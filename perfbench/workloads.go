package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/simstudy"
)

// phase holds what one measured window produced.
type phase struct {
	start   time.Time
	elapsed time.Duration
	// lats are the latencies of the workload's own requests (/api/routes
	// or /api/matrix) that completed in the window; ops indexes them.
	lats []time.Duration
	ops  []int
	// lates is how late an open loop sent each request.
	lates []time.Duration
	// attempted and failed count every request the window sent,
	// publisher requests included; failed is non-2xx or malformed.
	attempted, failed int
	// mixed counts /api/routes answers whose approaches B–D disagree on
	// the weight version, out of routes answers.
	mixed, routes int
	// cells, tables, selHits and restricted describe matrix answers.
	cells, tables, selHits, restricted int
	pubs                               []pubSample
	scrapes                            []time.Duration
	before, after                      counters
	memBefore, memAfter                runtime.MemStats
}

// counters are the serving stack's cumulative counters that per-layer
// ratios are taken from as deltas over a window.
type counters struct {
	cacheHits, cacheMisses                uint64
	selHits, selMisses                    uint64
	elimQueries, elimTruncated, elimNodes uint64
}

func readCounters(st *stack) counters {
	var c counters
	c.cacheHits, c.cacheMisses = st.engine.CacheStats()
	for _, city := range st.study.CityNames() {
		for _, hs := range st.study.Cities[city].Router.HierarchyStatuses() {
			c.selHits += hs.SelectionHits
			c.selMisses += hs.SelectionMisses
			c.elimQueries += hs.ElimQueries
			c.elimTruncated += hs.ElimTruncated
			c.elimNodes += hs.ElimAscentNodes
		}
	}
	return c
}

// begin and end bracket a window: counters and memory statistics.
func (p *phase) begin(st *stack) {
	p.before = readCounters(st)
	runtime.ReadMemStats(&p.memBefore)
	p.start = time.Now()
}

func (p *phase) end(st *stack) {
	runtime.ReadMemStats(&p.memAfter)
	p.after = readCounters(st)
}

// collect adds the results of ops [from, to) to the phase.
func (p *phase) collect(res []opResult, from, to int, routes bool) {
	for i := from; i < to; i++ {
		r := &res[i]
		if !r.done {
			continue
		}
		p.attempted++
		if r.code != http.StatusOK || (routes && r.approaches != eval.NumApproaches) {
			p.failed++
			continue
		}
		p.lats = append(p.lats, r.lat)
		p.lates = append(p.lates, r.late)
		p.ops = append(p.ops, i)
		if routes {
			p.routes++
			if r.mixedVersions() {
				p.mixed++
			}
		}
	}
}

// gateResult is the outcome of the correctness gate.
type gateResult struct {
	Checked    int      `json:"checked"`
	Mismatched int      `json:"mismatched"`
	Notes      []string `json:"notes,omitempty"`
}

func (g *gateResult) fail(format string, args ...any) {
	g.Mismatched++
	if len(g.Notes) < 10 {
		g.Notes = append(g.Notes, fmt.Sprintf(format, args...))
	}
}

// workload is one traffic mix driven through the serving stack.
type workload interface {
	// warmUp sends a few requests outside any window, so lazy state and
	// pools are warm before timing.
	warmUp() error
	// window runs one measured window of length d, recording spans into
	// tr when it is non-nil.
	window(d time.Duration, tr *tracer) (*phase, error)
	// gate checks every answer (or the stated sample) of all windows
	// against the oracle stack.
	gate(oracle *stack) gateResult
	// probeInputs returns the requests the per-layer probes replay: routes
	// and matrix requests from the traced window when the workload has
	// them, with their loaded latency (0 when not from a window).
	probeInputs(tr *phase) ([]routeOp, []time.Duration, []matrixOp, []time.Duration)
}

// routeOp is one /api/routes request.
type routeOp struct {
	city string
	s, t graph.NodeID
	url  string
}

func newRouteOp(c *eval.City, city string, s, t graph.NodeID) routeOp {
	ps, pt := c.Graph.Point(s), c.Graph.Point(t)
	return routeOp{city: city, s: s, t: t,
		url: fmt.Sprintf("/api/routes?city=%s&s=%.7f,%.7f&t=%.7f,%.7f", city, ps.Lat, ps.Lon, pt.Lat, pt.Lon)}
}

// opRand is the random source of input number k of stream: every input
// is drawn independently, so the same seed gives the same inputs however
// many are generated and in whatever order.
func opRand(seed int64, stream, k int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*1_000_000_007 + int64(k)))
}

// scheduleCell draws a (city, band) cell with the weights of the paper's
// Table I response counts; city restricts the draw to one city when set.
func scheduleCell(rng *rand.Rand, city string) simstudy.Cell {
	sched := simstudy.PaperSchedule()
	total := 0
	for _, cc := range sched {
		if city == "" || cc.City == city {
			total += cc.N
		}
	}
	r := rng.Intn(total)
	for _, cc := range sched {
		if city != "" && cc.City != city {
			continue
		}
		if r < cc.N {
			return cc.Cell
		}
		r -= cc.N
	}
	panic("unreachable: r < total")
}

// sampleStudyPairs draws inputs [from, to) of stream as study queries:
// a Table I cell, then a pair from City.SampleQuery in its band. The
// draws run on workers goroutines; results are in input order. A
// non-empty city restricts the draws to that city.
func sampleStudyPairs(study *eval.Study, seed int64, stream, from, to, workers int, city string) ([]routeOp, error) {
	out := make([]routeOp, to-from)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := from + w; k < to; k += workers {
				rng := opRand(seed, stream, k)
				cell := scheduleCell(rng, city)
				c := study.Cities[cell.City]
				q, ok := c.SampleQuery(rng, cell.Band)
				if !ok {
					errs[w] = fmt.Errorf("no %s-band pair found in %s", cell.Band, cell.City)
					return
				}
				out[k-from] = newRouteOp(c, cell.City, q.S, q.T)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// estimateOps is how many closed-loop requests to prepare for a window
// of d: twice what the warm-up's throughput would finish, since a short
// warm-up on a shared machine can run well below the window's pace.
func estimateOps(d time.Duration, rps float64) int {
	return int(math.Ceil(2*d.Seconds()*rps)) + 64
}
