package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/server"
)

// citySeed is cmd/demoserver's default -seed: the benchmark serves the
// same three networks the demo does. The workload seed only changes the
// requests.
const citySeed = 2022

// servingFlags are cmd/demoserver's defaults for the backend flags; the
// serving stack is built from them exactly as its run() does.
var servingFlags = struct{ trees, hierarchy, order, query string }{"ch-auto", "cch", "flow", "elimtree"}

// stack is one in-process serving stack: the study's cities behind a
// server.Server.
type stack struct {
	study  *eval.Study
	engine *core.Engine
	srv    *server.Server
}

// servingOptions parses servingFlags the way cmd/demoserver parses its
// flags.
func servingOptions() (core.Options, error) {
	backend, err := core.ParseTreeBackend(servingFlags.trees)
	if err != nil {
		return core.Options{}, err
	}
	hkind, err := core.ParseHierarchyKind(servingFlags.hierarchy)
	if err != nil {
		return core.Options{}, err
	}
	okind, err := core.ParseOrderKind(servingFlags.order)
	if err != nil {
		return core.Options{}, err
	}
	qeng, err := core.ParseQueryEngine(servingFlags.query)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{TreeBackend: backend, Hierarchy: hkind, Order: okind, Query: qeng}, nil
}

// newServing wires the stack as cmd/demoserver does: one shared engine
// with the default result cache, metrics and ingest on, verbose off, no
// ratings file.
func newServing() (*stack, error) {
	opts, err := servingOptions()
	if err != nil {
		return nil, err
	}
	study, err := eval.NewStudyOpts(citySeed, opts)
	if err != nil {
		return nil, fmt.Errorf("building the serving study: %w", err)
	}
	engine := core.NewEngine(0)
	engine.SetCache(core.DefaultCacheSize)
	for _, name := range study.CityNames() {
		study.Cities[name].SetEngine(engine)
	}
	srv := server.New(study.Cities, "", server.WithMetrics(), server.WithIngest(), server.WithVerbose(false))
	return &stack{study: study, engine: engine, srv: srv}, nil
}

// newOracle builds the paper-faithful configuration (core.Options{}:
// Dijkstra trees everywhere) that the correctness gate compares the
// serving stack against. Ingest is on so live-traffic publishes can be
// mirrored into it.
func newOracle() (*stack, error) {
	study, err := eval.NewStudyOpts(citySeed, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("building the oracle study: %w", err)
	}
	return &stack{study: study, srv: server.New(study.Cities, "", server.WithIngest())}, nil
}

// firstRoutesURL is the fixed request that ends a set-up: a diagonal
// across the middle of the city's bounding box.
func firstRoutesURL(st *stack, city string) string {
	bb := st.study.Cities[city].Graph.BBox()
	lat := func(f float64) float64 { return bb.MinLat + f*(bb.MaxLat-bb.MinLat) }
	lon := func(f float64) float64 { return bb.MinLon + f*(bb.MaxLon-bb.MinLon) }
	return fmt.Sprintf("/api/routes?city=%s&s=%.7f,%.7f&t=%.7f,%.7f", city, lat(0.3), lon(0.3), lat(0.7), lon(0.7))
}

// setUp builds a serving stack and returns it with the time from start
// until every city has answered one /api/routes request.
func setUp(start time.Time) (*stack, time.Duration, error) {
	st, err := newServing()
	if err != nil {
		return nil, 0, err
	}
	for _, city := range st.study.CityNames() {
		if code, body := call(st.srv, "GET", firstRoutesURL(st, city), nil); code != http.StatusOK {
			return nil, 0, fmt.Errorf("set-up: %s answered %d: %s", city, code, body)
		}
	}
	return st, time.Since(start), nil
}

// setUpMedian builds n stacks one after the other and keeps the last. The
// first set-up is timed from process start, the others from their own
// start; the median of the n times is returned.
func setUpMedian(n int, processStart time.Time) (*stack, float64, []float64, error) {
	var st *stack
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		st = nil
		runtime.GC() // the previous stack's garbage is not this set-up's cost
		var d time.Duration
		var err error
		if st, d, err = setUp(start); err != nil {
			return nil, 0, nil, err
		}
		times = append(times, d.Seconds())
	}
	return st, median(times), times, nil
}

// call drives one request through the handler, in process.
func call(h http.Handler, method, target string, body []byte) (int, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, rd))
	return rec.Code, rec.Body.Bytes()
}
