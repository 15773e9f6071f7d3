package cch

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ch"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/sp"
)

func gridCity(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(rows*cols, rows*cols*4)
	o := geo.Point{Lat: -37.81, Lon: 144.96}
	id := func(r, c int) graph.NodeID { return graph.NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddNode(geo.Offset(o, float64(r)*150, float64(c)*150))
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			class := graph.Residential
			if r%5 == 0 {
				class = graph.Primary
			}
			if c+1 < cols {
				b.AddEdge(graph.EdgeSpec{From: id(r, c), To: id(r, c+1), Class: class, TwoWay: true})
			}
			if r+1 < rows {
				b.AddEdge(graph.EdgeSpec{From: id(r, c), To: id(r+1, c), Class: graph.Residential, TwoWay: true})
			}
		}
	}
	return b.Build()
}

func randomCity(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, 0)
	o := geo.Point{Lat: -37.81, Lon: 144.96}
	for i := 0; i < n; i++ {
		b.AddNode(geo.Offset(o, rng.Float64()*4000, rng.Float64()*4000))
	}
	for i := 0; i < n*3; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		b.AddEdge(graph.EdgeSpec{
			From:     u,
			To:       v,
			Class:    graph.RoadClass(rng.Intn(7)),
			SpeedKmh: 20 + rng.Float64()*60,
			TwoWay:   rng.Intn(3) > 0,
		})
	}
	return b.Build()
}

func TestOrderIsPermutation(t *testing.T) {
	for _, g := range []*graph.Graph{gridCity(9, 13), randomCity(3, 200)} {
		rank := Order(g)
		if len(rank) != g.NumNodes() {
			t.Fatalf("rank length %d != %d nodes", len(rank), g.NumNodes())
		}
		seen := make([]bool, len(rank))
		for v, r := range rank {
			if r < 0 || int(r) >= len(rank) || seen[r] {
				t.Fatalf("rank[%d] = %d is not part of a permutation", v, r)
			}
			seen[r] = true
		}
	}
}

func checkDistances(t *testing.T, g *graph.Graph, h *ch.Runtime, w []float64, queries int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for q := 0; q < queries; q++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		dst := graph.NodeID(rng.Intn(g.NumNodes()))
		_, want := sp.ShortestPath(g, w, s, dst)
		got := h.Dist(s, dst)
		if math.IsInf(want, 1) != math.IsInf(got, 1) {
			t.Fatalf("query %d (%d->%d): reachability mismatch CCH %v dijkstra %v", q, s, dst, got, want)
		}
		if !math.IsInf(want, 1) && math.Abs(got-want) > 1e-6 {
			t.Fatalf("query %d (%d->%d): CCH %f, dijkstra %f", q, s, dst, got, want)
		}
	}
}

func TestDistMatchesDijkstraGrid(t *testing.T) {
	g := gridCity(12, 12)
	w := g.CopyWeights()
	checkDistances(t, g, Build(g, w), w, 60, 1)
}

func TestDistMatchesDijkstraRandomDirected(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomCity(seed, 150)
		w := g.CopyWeights()
		checkDistances(t, g, Build(g, w), w, 40, seed+50)
	}
}

// TestCustomizeArbitraryMetricExact is the package's headline contract:
// the same preprocessed topology, customized for metrics a witness-pruned
// hierarchy makes no exactness promise about — ±50% congestion, random
// rescalings, and heavy +Inf closures — answers exactly on every one.
func TestCustomizeArbitraryMetricExact(t *testing.T) {
	g := randomCity(11, 150)
	base := g.CopyWeights()
	pre := Preprocess(g)
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 4; round++ {
		w := make([]float64, len(base))
		for i := range w {
			w[i] = base[i] * (0.5 + rng.Float64())
		}
		// Heavy closures: ban 20% of all edges outright.
		for i := range w {
			if rng.Intn(5) == 0 {
				w[i] = math.Inf(1)
			}
		}
		checkDistances(t, g, pre.Customize(w), w, 40, int64(round))
	}
}

func TestPathUnpacksToValidRoute(t *testing.T) {
	g := gridCity(10, 10)
	w := g.CopyWeights()
	// Perturb the metric after preprocessing so unpacking exercises the
	// per-customization triangle decomposition, not the build metric.
	rng := rand.New(rand.NewSource(5))
	for i := range w {
		w[i] *= 0.6 + 0.8*rng.Float64()
	}
	h := Preprocess(g).Customize(w)
	for q := 0; q < 40; q++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		dst := graph.NodeID(rng.Intn(g.NumNodes()))
		edges, d := h.Path(s, dst)
		if s == dst {
			if d != 0 || len(edges) != 0 {
				t.Fatalf("s==t: got %d edges at %f", len(edges), d)
			}
			continue
		}
		if edges == nil {
			t.Fatalf("grid is connected; no path %d->%d", s, dst)
		}
		cur := s
		var cost float64
		for i, e := range edges {
			ed := g.Edge(e)
			if ed.From != cur {
				t.Fatalf("unpacked path discontinuous at edge %d", i)
			}
			cur = ed.To
			cost += w[e]
		}
		if cur != dst {
			t.Fatalf("unpacked path ends at %d, want %d", cur, dst)
		}
		if math.Abs(cost-d) > 1e-6 {
			t.Fatalf("unpacked cost %f != reported %f", cost, d)
		}
		_, want := sp.ShortestPath(g, w, s, dst)
		if math.Abs(d-want) > 1e-6 {
			t.Fatalf("CCH path cost %f != optimal %f", d, want)
		}
	}
}

// TestTreeBuilderMatchesDijkstra drives the shared PHAST machinery off a
// CCH runtime, including under bans: complete trees must match Dijkstra
// distances and never route over a closed edge.
func TestTreeBuilderMatchesDijkstra(t *testing.T) {
	g := randomCity(21, 120)
	w := g.CopyWeights()
	rng := rand.New(rand.NewSource(9))
	banned := map[graph.EdgeID]bool{}
	for len(banned) < g.NumEdges()/8 {
		e := graph.EdgeID(rng.Intn(g.NumEdges()))
		banned[e] = true
		w[e] = math.Inf(1)
	}
	tb := Build(g, w).NewTreeBuilder()
	ws := sp.GetWorkspace()
	defer ws.Release()
	for s := graph.NodeID(0); int(s) < g.NumNodes(); s += 7 {
		for _, dir := range []sp.Direction{sp.Forward, sp.Backward} {
			// The reference tree is owned (BuildTree clones) because the two
			// builders would otherwise share the same workspace slot.
			ref := sp.BuildTree(g, w, s, dir)
			got := tb.BuildTreeInto(ws, s, dir)
			for v := 0; v < g.NumNodes(); v++ {
				dw, dg := ref.Dist[v], got.Dist[v]
				if math.IsInf(dw, 1) != math.IsInf(dg, 1) || (!math.IsInf(dw, 1) && math.Abs(dw-dg) > 1e-7) {
					t.Fatalf("root %d dir %v node %d: dijkstra %g, CCH tree %g", s, dir, v, dw, dg)
				}
				if e := got.Parent[v]; e >= 0 && banned[e] {
					t.Fatalf("root %d: tree parent of %d is banned edge %d", s, v, e)
				}
			}
		}
	}
}

// TestCustomizeChainIndependence: customizing repeatedly (the serving
// pattern) must depend only on the final weights, never on the path taken
// to them — there is no hidden metric state in the preprocessed topology.
func TestCustomizeChainIndependence(t *testing.T) {
	g := randomCity(4, 100)
	w := g.CopyWeights()
	pre := Preprocess(g)
	rng := rand.New(rand.NewSource(5))
	cur := pre.Customize(w)
	var final []float64
	for step := 0; step < 4; step++ {
		next := make([]float64, len(w))
		for i := range w {
			next[i] = w[i] * (0.5 + rng.Float64())
		}
		cur = cur.Customize(next)
		final = next
	}
	direct := Preprocess(g).Customize(final)
	for s := graph.NodeID(0); int(s) < g.NumNodes(); s += 13 {
		for tt := graph.NodeID(0); int(tt) < g.NumNodes(); tt += 17 {
			if d1, d2 := cur.Dist(s, tt), direct.Dist(s, tt); d1 != d2 {
				t.Fatalf("Dist(%d,%d): chained %g, direct %g", s, tt, d1, d2)
			}
		}
	}
}

// TestCCHExactUnderHeavyClosures pins the motivation for this package: a
// heavy-closure snapshot (every sixth edge banned) — the metric under
// which a witness-pruned hierarchy's weights-only re-customization
// overestimates distances — customized on the unchanged preprocessing
// stays exactly equal to Dijkstra ground truth, reachability included.
func TestCCHExactUnderHeavyClosures(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randomCity(seed+400, 120)
		base := g.CopyWeights()
		pre := Preprocess(g)

		rng := rand.New(rand.NewSource(seed))
		w := make([]float64, len(base))
		copy(w, base)
		for i := range w {
			if rng.Intn(6) == 0 {
				w[i] = math.Inf(1)
			}
		}
		h := pre.Customize(w)

		for s := graph.NodeID(0); int(s) < g.NumNodes(); s += 5 {
			for dst := graph.NodeID(1); int(dst) < g.NumNodes(); dst += 7 {
				_, want := sp.ShortestPath(g, w, s, dst)
				got := h.Dist(s, dst)
				if math.IsInf(want, 1) != math.IsInf(got, 1) ||
					(!math.IsInf(want, 1) && math.Abs(got-want) > 1e-6) {
					t.Fatalf("seed %d (%d->%d): CCH %g != dijkstra %g under closures", seed, s, dst, got, want)
				}
			}
		}
	}
}

func TestSizeAccounting(t *testing.T) {
	g := gridCity(10, 10)
	pre := Preprocess(g)
	if pre.NumPairs() == 0 || pre.NumTriangles() == 0 {
		t.Fatalf("grid topology: %d pairs, %d triangles, want both positive", pre.NumPairs(), pre.NumTriangles())
	}
	h := pre.Customize(g.CopyWeights())
	if h.Kind() != Kind {
		t.Fatalf("kind = %q, want %q", h.Kind(), Kind)
	}
	if h.NumArcs() != 2*pre.NumPairs() {
		t.Fatalf("arcs %d != 2×%d pairs", h.NumArcs(), pre.NumPairs())
	}
}
