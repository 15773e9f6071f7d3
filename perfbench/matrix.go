package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/sp"
	"repro/internal/weights"
)

// matrixOp is one POST /api/matrix request.
type matrixOp struct {
	city     string
	k        int
	depot    bool
	src, dst [][2]float64
	body     []byte
}

// Matrix-fleet shape: table sizes, clusters and depot target sets per
// city, the cluster spread as a share of the city's bounding box, and the
// sampling of the correctness gate.
var matrixSizes = []int{4, 16, 64}

const (
	matrixClusters    = 32
	matrixDepots      = 8
	matrixSpread      = 0.02
	matrixGateEvery   = 8
	matrixCellsPerTab = 4
)

// matrixGen draws clustered fleet tables for the three cities.
type matrixGen struct {
	seed    int64
	cities  []string
	centers map[string][]geo.Point
	sigma   map[string][2]float64
	bbox    map[string]geo.BBox
	depots  map[string]map[int][][][2]float64
}

func newMatrixGen(st *stack, seed int64) *matrixGen {
	m := &matrixGen{seed: seed, cities: st.study.CityNames(), centers: map[string][]geo.Point{},
		sigma: map[string][2]float64{}, bbox: map[string]geo.BBox{}, depots: map[string]map[int][][][2]float64{}}
	for ci, city := range m.cities {
		g := st.study.Cities[city].Graph
		bb := g.BBox()
		m.bbox[city] = bb
		m.sigma[city] = [2]float64{matrixSpread * (bb.MaxLat - bb.MinLat), matrixSpread * (bb.MaxLon - bb.MinLon)}
		rng := opRand(seed, streamClusters, ci)
		for c := 0; c < matrixClusters; c++ {
			m.centers[city] = append(m.centers[city], g.Point(graph.NodeID(rng.Intn(g.NumNodes()))))
		}
		m.depots[city] = map[int][][][2]float64{}
		for ki, k := range matrixSizes {
			for d := 0; d < matrixDepots; d++ {
				m.depots[city][k] = append(m.depots[city][k], m.points(opRand(seed, streamDepots, (ci*10+ki)*10+d), city, k))
			}
		}
	}
	return m
}

// points draws n points around the city's cluster centers.
func (m *matrixGen) points(rng *rand.Rand, city string, n int) [][2]float64 {
	bb, sig := m.bbox[city], m.sigma[city]
	out := make([][2]float64, n)
	for i := range out {
		c := m.centers[city][rng.Intn(len(m.centers[city]))]
		lat := math.Min(math.Max(c.Lat+rng.NormFloat64()*sig[0], bb.MinLat), bb.MaxLat)
		lon := math.Min(math.Max(c.Lon+rng.NormFloat64()*sig[1], bb.MinLon), bb.MaxLon)
		out[i] = [2]float64{lat, lon}
	}
	return out
}

// op draws input k of stream: a city, a size (k forces one when > 0),
// fresh clustered sources, and half the time one of the city's depot
// target sets, otherwise fresh targets.
func (m *matrixGen) op(stream, k, size int) matrixOp {
	rng := opRand(m.seed, stream, k)
	op := matrixOp{city: m.cities[rng.Intn(len(m.cities))], k: matrixSizes[rng.Intn(len(matrixSizes))]}
	if size > 0 {
		op.k = size
	}
	op.src = m.points(rng, op.city, op.k)
	if op.depot = rng.Intn(2) == 0; op.depot {
		sets := m.depots[op.city][op.k]
		op.dst = sets[rng.Intn(len(sets))]
	} else {
		op.dst = m.points(rng, op.city, op.k)
	}
	body, err := json.Marshal(struct {
		City    string       `json:"city"`
		Sources [][2]float64 `json:"sources"`
		Targets [][2]float64 `json:"targets"`
	}{op.city, op.src, op.dst})
	if err != nil {
		panic(err) // plain strings and finite floats always marshal
	}
	op.body = body
	return op
}

// matrixFleet is the many-to-many workload: fleet tables of 4, 16 and 64
// clustered points from a closed loop of one client per CPU; half reuse a
// few fixed per-city depot target sets.
type matrixFleet struct {
	st      *stack
	gen     *matrixGen
	clients int
	limit   int
	ops     []matrixOp
	res     []opResult
	next    int
	rps     float64
	// snaps are the public snapshots at the end of the last window, the
	// ones the gate checks tables against.
	snaps map[string]*weights.Snapshot
}

func newMatrixFleet(st *stack, seed int64, clients, limit int) *matrixFleet {
	return &matrixFleet{st: st, gen: newMatrixGen(st, seed), clients: clients, limit: limit}
}

func (w *matrixFleet) extend(n int) {
	for k := len(w.ops); k < n; k++ {
		w.ops = append(w.ops, w.gen.op(streamMatrix, k, 0))
	}
	w.res = append(w.res, make([]opResult, len(w.ops)-len(w.res))...)
}

func (w *matrixFleet) send(i int, tr *tracer) {
	r := &w.res[i]
	r.start = time.Now()
	code, body := call(w.st.srv, "POST", "/api/matrix", w.ops[i].body)
	r.end = time.Now()
	r.code, r.lat = code, r.end.Sub(r.start)
	r.selHit = bytes.Contains(body, []byte(`"selectionHit":true`))
	r.restricted = bytes.Contains(body, []byte(`"restricted":true`))
	if i%matrixGateEvery == 0 {
		r.body = bytes.Clone(body)
	}
	r.done = true
	tr.add("server.ServeHTTP /api/matrix", uint64(i)+1, r.start, r.end, -1)
}

// warmUp answers a few tables of every size outside any window; their
// throughput sizes the windows' request lists.
func (w *matrixFleet) warmUp() error {
	warm := make([]matrixOp, 0, 4*len(matrixSizes))
	for k := 0; k < cap(warm); k++ {
		warm = append(warm, w.gen.op(streamWarm, k, 0))
	}
	start := time.Now()
	for _, op := range warm {
		if code, body := call(w.st.srv, "POST", "/api/matrix", op.body); code != http.StatusOK {
			return fmt.Errorf("warm-up: matrix %s k=%d answered %d: %s", op.city, op.k, code, body)
		}
	}
	w.rps = float64(len(warm)*w.clients) / time.Since(start).Seconds()
	return nil
}

func (w *matrixFleet) window(d time.Duration, tr *tracer) (*phase, error) {
	need := w.next + estimateOps(d, w.rps)
	if w.limit > 0 {
		need = w.next + w.limit
	}
	w.extend(need)
	p := &phase{}
	p.begin(w.st)
	from := w.next
	p.elapsed = closedLoop(w.clients, d, &w.next, len(w.ops), func(i int) { w.send(i, tr) })
	p.end(w.st)
	w.snaps = map[string]*weights.Snapshot{}
	for _, city := range w.gen.cities {
		w.snaps[city] = w.st.study.Cities[city].PublicStore.Latest()
	}
	p.collect(w.res, from, w.next, false)
	for _, i := range p.ops {
		p.tables++
		p.cells += w.ops[i].k * w.ops[i].k
		if w.res[i].selHit {
			p.selHits++
		}
		if w.res[i].restricted {
			p.restricted++
		}
	}
	if w.limit == 0 && w.next == len(w.ops) {
		return nil, fmt.Errorf("matrix-fleet: ran out of prepared requests after %v", p.elapsed)
	}
	return p, nil
}

// gate checks matrixCellsPerTab random cells of every matrixGateEvery-th
// answered table against a bidirectional Dijkstra search on the snapshot
// the table reports it was computed under. Nothing publishes during
// matrix-fleet's windows, so that is the public store's snapshot at the
// end of the last window.
// Distances are compared by sameDistance.
func (w *matrixFleet) gate(*stack) gateResult {
	var g gateResult
	ws := sp.GetWorkspace()
	defer ws.Release()
	for i := range w.ops {
		r := &w.res[i]
		if !r.done || r.body == nil || r.code != http.StatusOK {
			continue
		}
		op := &w.ops[i]
		c := w.st.study.Cities[op.city]
		var ans struct {
			Seconds       [][]*float64 `json:"seconds"`
			WeightVersion uint64       `json:"weightVersion"`
		}
		g.Checked++
		snap := w.snaps[op.city]
		if err := json.Unmarshal(r.body, &ans); err != nil {
			g.fail("matrix %d: undecodable answer: %v", i, err)
			continue
		}
		if ans.WeightVersion != uint64(snap.Version()) || len(ans.Seconds) != op.k {
			g.fail("matrix %d: version %d (store %d), %d rows for k=%d", i, ans.WeightVersion, snap.Version(), len(ans.Seconds), op.k)
			continue
		}
		rng := opRand(w.gen.seed, streamCells, i)
		for n := 0; n < matrixCellsPerTab; n++ {
			si, tj := rng.Intn(op.k), rng.Intn(op.k)
			s, _ := c.Index.Nearest(geo.Point{Lat: op.src[si][0], Lon: op.src[si][1]})
			t, _ := c.Index.Nearest(geo.Point{Lat: op.dst[tj][0], Lon: op.dst[tj][1]})
			_, want := sp.BidirectionalShortestPathInto(ws, c.Graph, snap.Weights(), s, t)
			got := math.Inf(1)
			if len(ans.Seconds[si]) != op.k {
				g.fail("matrix %d: row %d has %d cells", i, si, len(ans.Seconds[si]))
				break
			}
			if v := ans.Seconds[si][tj]; v != nil {
				got = *v
			}
			if !sameDistance(got, want) {
				g.fail("matrix %d (%s k=%d) cell %d,%d: %v s, Dijkstra says %v s", i, op.city, op.k, si, tj, got, want)
				break
			}
		}
	}
	return g
}

// probeInputs returns the first probeTables answered tables of each size
// from the window, with their loaded latency.
func (w *matrixFleet) probeInputs(p *phase) ([]routeOp, []time.Duration, []matrixOp, []time.Duration) {
	var ops []matrixOp
	var lats []time.Duration
	per := map[int]int{}
	for j, i := range p.ops {
		if per[w.ops[i].k] < probeTables {
			per[w.ops[i].k]++
			ops = append(ops, w.ops[i])
			lats = append(lats, p.lats[j])
		}
	}
	return nil, nil, ops, lats
}

// distTol is the repository's exactness standard for hierarchy distances
// against Dijkstra (core's matrixDistTol, ch's tests): sweeps add
// pre-summed shortcut weights, so the association order, and with it the
// last bit, can differ from an edge-by-edge search.
const distTol = 1e-9

// sameDistance reports whether a served distance equals the Dijkstra
// distance to within distTol; unreachable must match exactly.
func sameDistance(got, want float64) bool {
	if math.IsInf(got, 1) || math.IsInf(want, 1) {
		return math.IsInf(got, 1) && math.IsInf(want, 1)
	}
	return math.Abs(got-want) <= distTol*math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
}
