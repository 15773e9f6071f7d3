package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/eval"
)

// Input streams: each kind of generated input draws from its own stream
// of the workload seed.
const (
	streamWarm = iota + 1
	streamStudy
	streamHot
	streamLive
	streamArrivals
	streamBan
	streamMatrix
	streamClusters
	streamDepots
	streamCells
	streamProbe
)

// routeKey identifies a pair, so study-routes never repeats one.
type routeKey struct {
	city string
	s, t uint32
}

// routesBase is what both /api/routes workloads share: the request list,
// its results and the way one request is sent.
type routesBase struct {
	st      *stack
	seed    int64
	clients int
	// limit caps the requests of one window (0: none); the self-test
	// sets it.
	limit int
	ops   []routeOp
	res   []opResult
	next  int
}

// send answers op i and records it; due is the open loop's due time
// (zero in a closed loop).
func (w *routesBase) send(i int, due time.Time, tr *tracer) {
	r := &w.res[i]
	r.start = time.Now()
	code, body := call(w.st.srv, "GET", w.ops[i].url, nil)
	r.end = time.Now()
	r.code = code
	r.lat = r.end.Sub(r.start)
	if !due.IsZero() {
		r.lat, r.late = r.end.Sub(due), r.start.Sub(due)
	}
	parseRoutes(r, body)
	r.done = true
	tr.add("server.ServeHTTP /api/routes", uint64(i)+1, r.start, r.end, -1)
}

// grow makes room for results of every op.
func (w *routesBase) grow() {
	w.res = append(w.res, make([]opResult, len(w.ops)-len(w.res))...)
}

// loaded returns up to n routes requests of a window with their loaded
// latency, skipping repeated pairs.
func (w *routesBase) loaded(p *phase, n int) ([]routeOp, []time.Duration) {
	var ops []routeOp
	var lats []time.Duration
	seen := map[string]bool{}
	for j, i := range p.ops {
		if len(ops) == n {
			break
		}
		if seen[w.ops[i].url] {
			continue
		}
		seen[w.ops[i].url] = true
		ops = append(ops, w.ops[i])
		lats = append(lats, p.lats[j])
	}
	return ops, lats
}

// studyRoutes is the paper's query processor under study load: distinct
// pairs over all three cities with Table I's (city, band) weights, from
// a closed loop of one client per CPU, with no publishes.
type studyRoutes struct {
	routesBase
	seen  map[routeKey]bool
	drawn int
	rps   float64
}

func newStudyRoutes(st *stack, seed int64, clients, limit int) *studyRoutes {
	return &studyRoutes{routesBase: routesBase{st: st, seed: seed, clients: clients, limit: limit}, seen: map[routeKey]bool{}}
}

// extend draws study pairs until there are n distinct ones.
func (w *studyRoutes) extend(stream int, n int) error {
	for len(w.ops) < n {
		batch, err := sampleStudyPairs(w.st.study, w.seed, stream, w.drawn, w.drawn+n-len(w.ops), w.clients, "")
		if err != nil {
			return err
		}
		w.drawn += len(batch)
		for _, op := range batch {
			k := routeKey{op.city, uint32(op.s), uint32(op.t)}
			if !w.seen[k] {
				w.seen[k] = true
				w.ops = append(w.ops, op)
			}
		}
	}
	w.grow()
	return nil
}

// warmUp answers a few distinct pairs through the closed loop; their
// throughput sizes the windows' request lists. They are not measured.
func (w *studyRoutes) warmUp() error {
	if err := w.extend(streamWarm, 24*w.clients); err != nil {
		return err
	}
	start := w.next
	elapsed := closedLoop(w.clients, time.Minute, &w.next, len(w.ops), func(i int) { w.send(i, time.Time{}, nil) })
	for i := start; i < w.next; i++ {
		if w.res[i].code != http.StatusOK {
			return fmt.Errorf("warm-up: %s answered %d", w.ops[i].url, w.res[i].code)
		}
	}
	w.rps = float64(w.next-start) / elapsed.Seconds()
	w.drawn = 0
	return nil
}

func (w *studyRoutes) window(d time.Duration, tr *tracer) (*phase, error) {
	need := w.next + estimateOps(d, w.rps)
	if w.limit > 0 {
		need = w.next + w.limit
	}
	if err := w.extend(streamStudy, need); err != nil {
		return nil, err
	}
	p := &phase{}
	p.begin(w.st)
	from := w.next
	p.elapsed = closedLoop(w.clients, d, &w.next, len(w.ops), func(i int) { w.send(i, time.Time{}, tr) })
	p.end(w.st)
	p.collect(w.res, from, w.next, true)
	if w.limit == 0 && w.next == len(w.ops) {
		return nil, fmt.Errorf("study-routes: ran out of prepared requests after %v", p.elapsed)
	}
	return p, nil
}

// gate replays every answered request on the oracle stack: each answer
// must be byte-identical to the oracle's.
func (w *studyRoutes) gate(oracle *stack) gateResult {
	var g gateResult
	var mu sync.Mutex
	idx := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				code, body := call(oracle.srv, "GET", w.ops[i].url, nil)
				same := code == http.StatusOK && sha256.Sum256(body) == w.res[i].sum
				mu.Lock()
				g.Checked++
				if !same {
					g.fail("%s: answer differs from the oracle's (oracle status %d)", w.ops[i].url, code)
				}
				mu.Unlock()
			}
		}()
	}
	for i := range w.ops {
		if w.res[i].done && w.res[i].code == http.StatusOK {
			idx <- i
		}
	}
	close(idx)
	wg.Wait()
	return g
}

func (w *studyRoutes) probeInputs(p *phase) ([]routeOp, []time.Duration, []matrixOp, []time.Duration) {
	ops, lats := w.loaded(p, probeRoutes)
	return ops, lats, nil, nil
}

// liveTraffic is writes beside reads: a Poisson stream of /api/routes
// over a Zipf-weighted hot set of commuter pairs per city, sent on
// schedule by one client per CPU, while one publisher on a fixed clock
// sends rush-hour steps, ingest ticks, closures and metric scrapes.
type liveTraffic struct {
	routesBase
	hot    map[string][]routeOp
	due    []time.Duration
	arrive *rand.Rand
	pub    *publisher
}

// Live-traffic shape: request rate, hot pairs per city, Zipf exponent,
// publisher period and the top hot pairs the gate compares per city.
const (
	liveRate     = 100.0
	liveHot      = 128
	liveZipf     = 1.05
	livePeriod   = 250 * time.Millisecond
	liveGatePerC = 16
)

func newLiveTraffic(st *stack, seed int64, clients, limit int) (*liveTraffic, error) {
	w := &liveTraffic{
		routesBase: routesBase{st: st, seed: seed, clients: clients, limit: limit},
		hot:        map[string][]routeOp{},
		arrive:     rand.New(rand.NewSource(seed*1_000_003 + streamArrivals)),
		pub:        newPublisher(st, seed),
	}
	for ci, city := range st.study.CityNames() {
		ops, err := sampleStudyPairs(st.study, seed, streamHot*10+ci, 0, liveHot, clients, city)
		if err != nil {
			return nil, err
		}
		w.hot[city] = ops
	}
	return w, nil
}

// extend draws requests until n are prepared: a city with Table I's
// city weights, then a hot pair by Zipf rank, due after an exponential
// gap.
func (w *liveTraffic) extend(n int) {
	for k := len(w.ops); k < n; k++ {
		rng := opRand(w.seed, streamLive, k)
		city := scheduleCell(rng, "").City
		rank := rand.NewZipf(rng, liveZipf, 1, liveHot-1).Uint64()
		w.ops = append(w.ops, w.hot[city][rank])
		var at time.Duration
		if k > 0 {
			at = w.due[k-1] + time.Duration(w.arrive.ExpFloat64()/liveRate*float64(time.Second))
		}
		w.due = append(w.due, at)
	}
	w.grow()
}

// warmUp answers every hot pair once, so the result cache holds the hot
// set as a running deployment's would.
func (w *liveTraffic) warmUp() error {
	var all []routeOp
	for _, city := range w.st.study.CityNames() {
		all = append(all, w.hot[city]...)
	}
	codes := make([]int, len(all))
	next := 0
	closedLoop(w.clients, time.Hour, &next, len(all), func(i int) { codes[i], _ = call(w.st.srv, "GET", all[i].url, nil) })
	for i, code := range codes {
		if code != http.StatusOK {
			return fmt.Errorf("warm-up: %s answered %d", all[i].url, code)
		}
	}
	return nil
}

func (w *liveTraffic) window(d time.Duration, tr *tracer) (*phase, error) {
	w.extend(w.next + int(math.Ceil(1.2*liveRate*d.Seconds())) + 16)
	from, to := w.next, w.next
	for to < len(w.ops) && w.due[to]-w.due[from] < d {
		to++
	}
	if w.limit > 0 {
		to = min(to, from+w.limit)
	}
	p := &phase{}
	p.begin(w.st)
	start := p.start
	pubFrom := len(w.pub.samples)
	scrapeFrom := len(w.pub.scrapes)
	attempted, failed := w.pub.attempted, w.pub.failed
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.pub.run(start, livePeriod, d, tr)
	}()
	openLoop(w.clients, start, w.due, from, to, func(i int, due time.Time) { w.send(i, due, tr) })
	wg.Wait()
	p.elapsed = time.Since(start)
	p.end(w.st)
	w.next = to
	p.collect(w.res, from, to, true)
	p.pubs = w.pub.samples[pubFrom:]
	p.scrapes = w.pub.scrapes[scrapeFrom:]
	p.attempted += w.pub.attempted - attempted
	p.failed += w.pub.failed - failed
	return p, nil
}

// gate mirrors every publish into the oracle stack, lets the serving
// stack finish re-customizing, and compares the answers of each city's
// most popular hot pairs byte for byte. The serving answers mostly come
// from the result cache, which is what this checks.
func (w *liveTraffic) gate(oracle *stack) gateResult {
	var g gateResult
	for _, a := range w.pub.actions {
		if code, body := call(oracle.srv, a.method, a.url, a.body); code != http.StatusOK {
			g.fail("oracle rejected mirrored %s %s: %d %s", a.method, a.url, code, body)
		}
	}
	for _, city := range w.st.study.CityNames() {
		w.st.study.Cities[city].Router.Sync()
	}
	for _, city := range w.st.study.CityNames() {
		for _, op := range w.hot[city][:min(liveGatePerC, len(w.hot[city]))] {
			code, body := call(w.st.srv, "GET", op.url, nil)
			ocode, obody := call(oracle.srv, "GET", op.url, nil)
			g.Checked++
			if code != http.StatusOK || ocode != http.StatusOK || !bytes.Equal(body, obody) {
				g.fail("%s: answer differs from the oracle's (status %d, oracle %d)", op.url, code, ocode)
			}
		}
	}
	return g
}

func (w *liveTraffic) probeInputs(p *phase) ([]routeOp, []time.Duration, []matrixOp, []time.Duration) {
	ops, lats := w.loaded(p, probeRoutes)
	return ops, lats, nil, nil
}

// pubAction is one publisher request, kept so the gate can replay it on
// the oracle.
type pubAction struct {
	method, url string
	body        []byte
}

// pubSample is one publish as the publisher saw it: the request, the time
// from its answer until every planner on the published store(s) serves
// the new version, and the customization time the hierarchy planners
// among them reported.
type pubSample struct {
	kind                  string
	req, serve, customize time.Duration
}

// publisher is the live-traffic feed: rush-hour steps, incident-storm
// ingest ticks and closures, round-robin over the cities.
type publisher struct {
	st         *stack
	seed       int64
	j          int
	ingestStep map[string]int
	actions    []pubAction
	samples    []pubSample
	scrapes    []time.Duration
	attempted  int
	failed     int
}

func newPublisher(st *stack, seed int64) *publisher {
	return &publisher{st: st, seed: seed, ingestStep: map[string]int{}}
}

// closureEvery spaces the closures: one action in 16 closes a road, so
// each city sees one every 12 s at the live-traffic cadence.
const closureEvery = 16

// serveTimeout bounds the wait for a publish to be served.
const serveTimeout = 10 * time.Second

// act sends the publisher's next action and waits until it is served.
// Every closureEvery-th action closes a random edge (both stores), the others
// alternate a rush-hour step and an ingest tick (traffic store only).
func (p *publisher) act(tr *tracer) {
	j := p.j
	p.j++
	names := p.st.study.CityNames()
	city := names[j%len(names)]
	c := p.st.study.Cities[city]
	var a pubAction
	var kind string
	switch {
	case j%closureEvery == closureEvery-1:
		kind = "closure"
		edge := opRand(p.seed, streamBan, j).Intn(c.Graph.NumEdges())
		a = pubAction{"POST", fmt.Sprintf("/api/publish?city=%s&step=0&ban=%d", city, edge), nil}
	case j%2 == 0:
		kind = "rush-hour"
		a = pubAction{"POST", "/api/publish?city=" + city + "&step=1", nil}
	default:
		kind = "ingest"
		p.ingestStep[city]++
		a = pubAction{"POST", "/api/observations", []byte(fmt.Sprintf(
			`{"city":%q,"scenario":"incident-storm","seed":%d,"step":%d,"decaySteps":1}`, city, p.seed, p.ingestStep[city]))}
	}
	req := uint64(1)<<40 + uint64(j)
	t0 := time.Now()
	code, _ := call(p.st.srv, a.method, a.url, a.body)
	t1 := time.Now()
	p.attempted++
	p.actions = append(p.actions, a)
	tr.add("publish "+kind, req, t0, t1, -1)
	if code != http.StatusOK {
		p.failed++
		return
	}
	cust, ok := waitServed(c, kind == "closure")
	t2 := time.Now()
	tr.add("publish.serve", req, t1, t2, -1)
	if !ok {
		p.failed++
		return
	}
	p.samples = append(p.samples, pubSample{kind: kind, req: t1.Sub(t0), serve: t2.Sub(t1), customize: cust})
}

// scrape sends GET /metrics.
func (p *publisher) scrape(tr *tracer) {
	t0 := time.Now()
	code, body := call(p.st.srv, "GET", "/metrics", nil)
	t1 := time.Now()
	p.attempted++
	if code != http.StatusOK || len(body) == 0 {
		p.failed++
		return
	}
	p.scrapes = append(p.scrapes, t1.Sub(t0))
	tr.add("metrics.scrape", uint64(1)<<41+uint64(len(p.scrapes)), t0, t1, -1)
}

// run acts on a fixed clock from start until d has passed, scraping
// /metrics after every fourth action. An action that overruns its slot
// delays the next one; the clock does not drift.
func (p *publisher) run(start time.Time, period, d time.Duration, tr *tracer) {
	for tick := 0; ; tick++ {
		at := start.Add(time.Duration(tick) * period)
		if at.Sub(start) >= d {
			return
		}
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		p.act(tr)
		if tick%4 == 3 {
			p.scrape(tr)
		}
	}
}

// waitServed polls Router.ServingVersions until every planner on the
// store(s) just published serves the stores' latest version: the traffic
// store's planner (approach A) always, the public store's (B–D) too when
// both were. It returns the largest LastCustomize among the hierarchy
// planners it waited for.
func waitServed(c *eval.City, both bool) (time.Duration, bool) {
	want := []uint64{uint64(c.TrafficStore.Version())}
	if both {
		pv := uint64(c.PublicStore.Version())
		want = append(want, pv, pv, pv)
	}
	deadline := time.Now().Add(serveTimeout)
	for {
		served := true
		for i, v := range c.Router.ServingVersions()[:len(want)] {
			served = served && uint64(v) >= want[i]
		}
		if served {
			break
		}
		if time.Now().After(deadline) {
			return 0, false
		}
		time.Sleep(250 * time.Microsecond)
	}
	var cust time.Duration
	for _, hs := range c.Router.HierarchyStatuses()[:len(want)] {
		if hs.Kind != "" {
			cust = max(cust, hs.LastCustomize)
		}
	}
	return cust, true
}
