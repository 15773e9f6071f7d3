package main

import (
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro/internal/cch"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/sp"
	"repro/internal/telemetry"
)

// Probe sizes: routes requests, tables per size, and repetitions of each
// publish-side call.
const (
	probeRoutes  = 48
	probeTables  = 4
	probePublish = 5
)

// plannerKeys name approaches A–D in per-layer metric names.
var plannerKeys = [4]string{"commercial", "plateaus", "dissimilarity", "penalty"}

// probeResult is what the serial per-layer probes measured beyond the
// spans they recorded.
type probeResult struct {
	// waits are loaded latency minus the idle service time of the same
	// request, in the result-cache state the workload serves it in (ms).
	waits []float64
	// matrixOverhead is ServeHTTP minus MatrixEngine.Matrix on the same
	// k=4 table (ms).
	matrixOverhead []float64
	// customize are the LastCustomize values read after each publish.
	customize []time.Duration
	// tables, selHits and restricted count the probe tables' Table fields.
	tables, selHits, restricted int
	attempted, failed           int
}

// probe runs every per-layer probe serially after the windows, recording
// a span around each call it makes into a layer. Routes and tables are
// the workload's own requests when it has them; otherwise generated ones
// stand in. hot says the workload's routes requests are mostly answered
// from the result cache, so their queue wait is taken against the idle
// cached answer rather than the idle uncached one.
func probe(st *stack, tr *tracer, seed int64, routes []routeOp, routeLoaded []time.Duration, hot bool, tables []matrixOp, tableLoaded []time.Duration) (*probeResult, error) {
	pr := &probeResult{}
	if len(routes) == 0 {
		var err error
		if routes, err = sampleStudyPairs(st.study, seed, streamProbe, 0, probeRoutes, 1, ""); err != nil {
			return nil, err
		}
		routeLoaded = make([]time.Duration, len(routes))
	}
	if len(tables) == 0 {
		gen := newMatrixGen(st, seed)
		for i := 0; i < probeTables; i++ {
			for _, k := range matrixSizes {
				tables = append(tables, gen.op(streamProbe, len(tables), k))
			}
		}
		tableLoaded = make([]time.Duration, len(tables))
	}
	pr.probeRoutes(st, tr, routes, routeLoaded, hot)
	if err := pr.probeMatrix(st, tr, tables, tableLoaded); err != nil {
		return nil, err
	}
	pr.probePublish(st, tr, seed)
	return pr, nil
}

// check counts one probe request.
func (pr *probeResult) check(code int) bool {
	pr.attempted++
	if code != http.StatusOK {
		pr.failed++
		return false
	}
	return true
}

// probeRoutes times, per request: the whole request with the result
// cache off, the engine fan-out, each planner alone (with its
// allocations), one Dijkstra tree from s, and finally the request
// answered from the result cache.
func (pr *probeResult) probeRoutes(st *stack, tr *tracer, routes []routeOp, loaded []time.Duration, hot bool) {
	st.engine.SetCache(0)
	var m0, m1 runtime.MemStats
	for i, op := range routes {
		req := uint64(1)<<42 + uint64(i)
		c := st.study.Cities[op.city]
		t0 := time.Now()
		code, _ := call(st.srv, "GET", op.url, nil)
		t1 := time.Now()
		tr.add("server.ServeHTTP /api/routes nocache", req, t0, t1, -1)
		if pr.check(code) && loaded[i] > 0 && !hot {
			pr.waits = append(pr.waits, float64(loaded[i]-t1.Sub(t0))/1e6)
		}
		t0 = time.Now()
		st.engine.Alternatives(c.Planners[:], op.s, op.t)
		tr.add("core.Engine.Alternatives", req, t0, time.Now(), -1)
		for pi, pl := range c.Planners {
			vp := pl.(core.VersionedPlanner)
			runtime.ReadMemStats(&m0)
			t0 = time.Now()
			_, _, err := vp.AlternativesVersioned(op.s, op.t)
			t1 = time.Now()
			runtime.ReadMemStats(&m1)
			if err != nil && err != core.ErrNoRoute {
				pr.attempted++
				pr.failed++
			}
			tr.add("core."+plannerKeys[pi]+".AlternativesVersioned", req, t0, t1, int64(m1.Mallocs-m0.Mallocs))
		}
		ws := sp.GetWorkspace()
		t0 = time.Now()
		sp.BuildTreeInto(ws, c.Graph, c.PublicStore.Latest().Weights(), op.s, sp.Forward)
		tr.add("sp.BuildTreeInto", req, t0, time.Now(), -1)
		ws.Release()
	}
	st.engine.SetCache(core.DefaultCacheSize)
	for i, op := range routes {
		req := uint64(1)<<42 + uint64(i)
		code, _ := call(st.srv, "GET", op.url, nil)
		pr.check(code)
		t0 := time.Now()
		code, _ = call(st.srv, "GET", op.url, nil)
		t1 := time.Now()
		tr.add("server.ServeHTTP /api/routes hit", req, t0, t1, -1)
		if pr.check(code) && loaded[i] > 0 && hot {
			pr.waits = append(pr.waits, float64(loaded[i]-t1.Sub(t0))/1e6)
		}
	}
}

// probeMatrix times, per table: snapping every point, the matrix engine
// on the snapped ids, the whole request, and the matrix engine again on
// the now warm selection.
func (pr *probeResult) probeMatrix(st *stack, tr *tracer, tables []matrixOp, loaded []time.Duration) error {
	for i, op := range tables {
		req := uint64(1)<<43 + uint64(i)
		c := st.study.Cities[op.city]
		snap := func(pts [][2]float64) []graph.NodeID {
			ids := make([]graph.NodeID, len(pts))
			for j, p := range pts {
				t0 := time.Now()
				ids[j], _ = c.Index.Nearest(geo.Point{Lat: p[0], Lon: p[1]})
				tr.add(fmt.Sprintf("spatial.Index.Nearest k=%d", op.k), req, t0, time.Now(), -1)
			}
			return ids
		}
		src, dst := snap(op.src), snap(op.dst)
		t0 := time.Now()
		tab, err := c.Matrix.Matrix(src, dst)
		tr.add(fmt.Sprintf("core.MatrixEngine.Matrix k=%d", op.k), req, t0, time.Now(), -1)
		if err != nil {
			return fmt.Errorf("probe: matrix %s k=%d: %w", op.city, op.k, err)
		}
		pr.tables++
		if tab.SelectionHit {
			pr.selHits++
		}
		if tab.Restricted {
			pr.restricted++
		}
		t0 = time.Now()
		code, _ := call(st.srv, "POST", "/api/matrix", op.body)
		t1 := time.Now()
		tr.add("server.ServeHTTP /api/matrix idle", req, t0, t1, -1)
		if !pr.check(code) {
			continue
		}
		if loaded[i] > 0 {
			pr.waits = append(pr.waits, float64(loaded[i]-t1.Sub(t0))/1e6)
		}
		t2 := time.Now()
		if _, err := c.Matrix.Matrix(src, dst); err != nil {
			return fmt.Errorf("probe: matrix %s k=%d: %w", op.city, op.k, err)
		}
		t3 := time.Now()
		if op.k == 4 {
			pr.matrixOverhead = append(pr.matrixOverhead, float64(t1.Sub(t0)-t3.Sub(t2))/1e6)
		}
	}
	return nil
}

// probePublish times the publish side on Melbourne: a CCH customization
// of the current traffic snapshot and the tree-builder repack on its
// result (outside the serving stack), then rush-hour advances, raw store
// publishes and ingest ticks into the serving stores, each followed by
// waiting until it is served, and metric scrapes.
func (pr *probeResult) probePublish(st *stack, tr *tracer, seed int64) {
	const city = "Melbourne"
	c := st.study.Cities[city]
	opts, _ := servingOptions() // parsed successfully at set-up
	pre := cch.PreprocessSharedWith(c.Graph, cch.OrderConfig{Kind: opts.Order})
	w := c.TrafficStore.Latest().Weights()
	sc := telemetry.Scenario{Kind: telemetry.IncidentStorm, Seed: seed}
	req := uint64(1) << 44
	for i := 0; i < probePublish; i++ {
		t0 := time.Now()
		h := pre.CustomizeWith(w, cch.Config{})
		tr.add("cch.Preprocessed.CustomizeWith", req, t0, time.Now(), -1)
		t0 = time.Now()
		h.NewTreeBuilder()
		tr.add("ch.Hierarchy.NewTreeBuilder", req, t0, time.Now(), -1)
	}
	served := func() {
		cust, ok := waitServed(c, false)
		pr.attempted++
		if !ok {
			pr.failed++
			return
		}
		pr.customize = append(pr.customize, cust)
	}
	for i := 0; i < probePublish; i++ {
		t0 := time.Now()
		c.Seq.Advance(c.TrafficStore)
		tr.add("traffic.Sequence.Advance", req, t0, time.Now(), -1)
		served()

		next := append([]float64(nil), c.TrafficStore.Latest().Weights()...)
		t0 = time.Now()
		c.TrafficStore.Publish(next)
		tr.add("weights.Store.Publish", req, t0, time.Now(), -1)
		served()

		obs := sc.Observations(c.Graph, 1+i)
		t0 = time.Now()
		_, err := c.Ingest.Advance(obs, 1)
		tr.add("telemetry.Ingestor.Advance", req, t0, time.Now(), -1)
		if err != nil {
			pr.attempted++
			pr.failed++
		}
		served()

		t0 = time.Now()
		code, _ := call(st.srv, "GET", "/metrics", nil)
		tr.add("metrics.scrape", req, t0, time.Now(), -1)
		pr.check(code)
	}
}
