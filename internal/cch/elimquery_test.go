package cch

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/sp"
)

// twoComponentCity builds two disjoint grid components — queries across
// the gap are unreachable in both directions.
func twoComponentCity(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(2*rows*cols, 0)
	o := geo.Point{Lat: -37.81, Lon: 144.96}
	id := func(comp, r, c int) graph.NodeID { return graph.NodeID(comp*rows*cols + r*cols + c) }
	for comp := 0; comp < 2; comp++ {
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				// 20km east keeps the components geometrically separate too.
				b.AddNode(geo.Offset(o, float64(r)*150, float64(comp)*20000+float64(c)*150))
			}
		}
	}
	for comp := 0; comp < 2; comp++ {
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if c+1 < cols {
					b.AddEdge(graph.EdgeSpec{From: id(comp, r, c), To: id(comp, r, c+1), Class: graph.Residential, TwoWay: true})
				}
				if r+1 < rows {
					b.AddEdge(graph.EdgeSpec{From: id(comp, r, c), To: id(comp, r+1, c), Class: graph.Residential, TwoWay: true})
				}
			}
		}
	}
	return b.Build()
}

// TestElimTreeStructure pins the elimination tree's defining invariants
// on the preprocessed topology: the parent is the lowest-ranked upward
// neighbor, every parent outranks its child, depths increase by exactly
// one along parent pointers, and roots are exactly the nodes without
// chordal pairs.
func TestElimTreeStructure(t *testing.T) {
	for gi, g := range []*graph.Graph{gridCity(12, 12), randomCity(17, 200)} {
		pre := Preprocess(g)
		et := pre.ElimTree()
		if et == nil {
			t.Fatalf("graph %d: preprocessing built no elimination tree", gi)
		}
		rank := pre.rank
		if len(et.Parent) != g.NumNodes() || len(et.Depth) != g.NumNodes() {
			t.Fatalf("graph %d: tree sized %d/%d for %d nodes", gi, len(et.Parent), len(et.Depth), g.NumNodes())
		}
		// Recover each node's lowest-ranked upward neighbor from the raw
		// pair lists — the independent ground truth for Parent.
		minHi := make([]graph.NodeID, g.NumNodes())
		for v := range minHi {
			minHi[v] = graph.InvalidNode
		}
		for i, lo := range pre.lo {
			hi := pre.hi[i]
			if minHi[lo] == graph.InvalidNode || rank[hi] < rank[minHi[lo]] {
				minHi[lo] = hi
			}
		}
		for v := 0; v < g.NumNodes(); v++ {
			p := et.Parent[v]
			if p != minHi[v] {
				t.Fatalf("graph %d node %d: parent %d, lowest upward neighbor %d", gi, v, p, minHi[v])
			}
			if p == graph.InvalidNode {
				if et.Depth[v] != 0 {
					t.Fatalf("graph %d: root %d at depth %d", gi, v, et.Depth[v])
				}
				continue
			}
			if rank[p] <= rank[v] {
				t.Fatalf("graph %d node %d: parent %d does not outrank it (%d vs %d)", gi, v, p, rank[p], rank[v])
			}
			if et.Depth[v] != et.Depth[p]+1 {
				t.Fatalf("graph %d node %d: depth %d, parent depth %d", gi, v, et.Depth[v], et.Depth[p])
			}
		}
		if h := et.Height(); h <= 0 || h > g.NumNodes() {
			t.Fatalf("graph %d: height %d out of range", gi, h)
		}
		if d := et.AvgLeafDepth(); d < 0 || d >= float64(et.Height()) {
			t.Fatalf("graph %d: avg leaf depth %f vs height %d", gi, d, et.Height())
		}
	}
}

// TestElimVsBidijBitIdentical is the engine-equivalence contract behind
// the -query flag: the elimination-tree ascent and the bidirectional
// upward Dijkstra must return bit-identical distances on every metric —
// perturbations, heavy closures, perfect customization — so switching
// engines can never move a route or a matrix cell.
func TestElimVsBidijBitIdentical(t *testing.T) {
	for gi, g := range []*graph.Graph{gridCity(12, 12), randomCity(23, 200)} {
		pre := Preprocess(g)
		for round := 0; round < 3; round++ {
			w := perturbedWeights(g, int64(gi*10+round), 0.10*float64(round))
			elim := pre.CustomizeWith(w, Config{Perfect: round == 2})
			bidij := pre.CustomizeWith(w, Config{Perfect: round == 2, BidirQuery: true})
			if got := elim.QueryStats().Engine; got != "elimtree" {
				t.Fatalf("default engine %q, want elimtree", got)
			}
			if got := bidij.QueryStats().Engine; got != "bidij" {
				t.Fatalf("BidirQuery engine %q, want bidij", got)
			}
			rng := rand.New(rand.NewSource(int64(100*gi + round)))
			for q := 0; q < 60; q++ {
				s := graph.NodeID(rng.Intn(g.NumNodes()))
				dst := graph.NodeID(rng.Intn(g.NumNodes()))
				de, db := elim.Dist(s, dst), bidij.Dist(s, dst)
				if math.Float64bits(de) != math.Float64bits(db) {
					t.Fatalf("graph %d round %d (%d->%d): elimtree %v (bits %x) vs bidij %v (bits %x)",
						gi, round, s, dst, de, math.Float64bits(de), db, math.Float64bits(db))
				}
			}
			qs := elim.QueryStats()
			if qs.Queries == 0 || qs.AscentNodes == 0 {
				t.Fatalf("graph %d round %d: counters did not move: %+v", gi, round, qs)
			}
		}
	}
}

// TestElimQueryClosurePublishSwap mirrors the serving layer's live-ban
// flow on the elimination-tree engine: a node whose incident edges are
// all closed must be unreachable in both directions after the publish
// swap, stay exactly answerable everywhere else, and come back when the
// ban lifts — all through the Customize seam on one runtime chain.
func TestElimQueryClosurePublishSwap(t *testing.T) {
	g := gridCity(10, 10)
	base := g.CopyWeights()
	h := Build(g, base)
	checkDistances(t, g, h, base, 25, 1)

	victim := graph.NodeID(55)
	banned := g.CopyWeights()
	for _, e := range g.OutEdges(victim) {
		banned[e] = math.Inf(1)
	}
	for _, e := range g.InEdges(victim) {
		banned[e] = math.Inf(1)
	}
	h2 := h.Customize(banned)
	for _, other := range []graph.NodeID{0, 42, 99} {
		if d := h2.Dist(other, victim); !math.IsInf(d, 1) {
			t.Fatalf("banned node still reachable: %d->%d = %f", other, victim, d)
		}
		if d := h2.Dist(victim, other); !math.IsInf(d, 1) {
			t.Fatalf("banned node still escapes: %d->%d = %f", victim, other, d)
		}
		if edges, d := h2.Path(other, victim); edges != nil || !math.IsInf(d, 1) {
			t.Fatalf("Path over ban returned %d edges at %f", len(edges), d)
		}
	}
	checkDistances(t, g, h2, banned, 25, 2)

	h3 := h2.Customize(base)
	if d := h3.Dist(0, victim); math.IsInf(d, 1) {
		t.Fatalf("lifted ban: %d->%d still unreachable", 0, victim)
	}
	checkDistances(t, g, h3, base, 25, 3)
}

// TestElimQueryEdgeCases covers s==t and cross-component queries: zero
// distance with an empty path for the former, +Inf with a nil path for
// the latter — on both plain and perfect customizations.
func TestElimQueryEdgeCases(t *testing.T) {
	g := twoComponentCity(6, 6)
	w := g.CopyWeights()
	pre := Preprocess(g)
	for _, perfect := range []bool{false, true} {
		h := pre.CustomizeWith(w, Config{Perfect: perfect})
		for _, v := range []graph.NodeID{0, 17, 40} {
			if d := h.Dist(v, v); d != 0 {
				t.Fatalf("perfect=%v: Dist(%d,%d) = %f", perfect, v, v, d)
			}
			if edges, d := h.Path(v, v); d != 0 || len(edges) != 0 {
				t.Fatalf("perfect=%v: Path(%d,%d) = %d edges at %f", perfect, v, v, len(edges), d)
			}
		}
		half := graph.NodeID(g.NumNodes() / 2)
		for _, q := range [][2]graph.NodeID{{0, half}, {half, 0}, {half - 1, half + 1}} {
			if d := h.Dist(q[0], q[1]); !math.IsInf(d, 1) {
				t.Fatalf("perfect=%v: cross-component Dist(%d,%d) = %f", perfect, q[0], q[1], d)
			}
			if edges, d := h.Path(q[0], q[1]); edges != nil || !math.IsInf(d, 1) {
				t.Fatalf("perfect=%v: cross-component Path(%d,%d) = %d edges at %f", perfect, q[0], q[1], len(edges), d)
			}
		}
		// Within-component queries stay exact.
		checkDistances(t, g, h, w, 30, 11)
	}
}

// TestElimScratchAcrossRecustomize is the stale-scratch guard: runtimes
// from successive customizations of one chain answer interleaved queries
// without bleeding labels across each other or across their own earlier
// queries (workspace epochs, not clearing, are what isolates them), and
// each runtime's query counters start fresh.
func TestElimScratchAcrossRecustomize(t *testing.T) {
	g := randomCity(29, 150)
	w1 := perturbedWeights(g, 1, 0.05)
	w2 := perturbedWeights(g, 2, 0.15)
	h1 := Build(g, w1)
	checkDistances(t, g, h1, w1, 10, 21)
	if h1.QueryStats().Queries == 0 {
		t.Fatalf("h1 counters did not move")
	}
	h2 := h1.Customize(w2)
	if got := h2.QueryStats().Queries; got != 0 {
		t.Fatalf("re-customized runtime inherited %d queries", got)
	}
	// Interleave: the same workspace pool serves both runtimes.
	rng := rand.New(rand.NewSource(31))
	for q := 0; q < 30; q++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		dst := graph.NodeID(rng.Intn(g.NumNodes()))
		h := h1
		w := w1
		if q%2 == 1 {
			h, w = h2, w2
		}
		_, want := sp.ShortestPath(g, w, s, dst)
		got := h.Dist(s, dst)
		if math.IsInf(want, 1) != math.IsInf(got, 1) || (!math.IsInf(want, 1) && math.Abs(got-want) > 1e-6) {
			t.Fatalf("query %d (%d->%d): got %v want %v", q, s, dst, got, want)
		}
	}
}

// TestElimDistWarmZeroAlloc pins the hot path's allocation budget: a warm
// elimination-tree Dist allocates nothing — the workspace comes from the
// pool and the ascents walk parent pointers with no per-query state.
func TestElimDistWarmZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := gridCity(12, 12)
	h := Build(g, g.CopyWeights())
	s, dst := graph.NodeID(5), graph.NodeID(138)
	h.Dist(s, dst) // warm the pool
	if allocs := testing.AllocsPerRun(50, func() { h.Dist(s, dst) }); allocs != 0 {
		t.Fatalf("warm elimination-tree Dist allocates %.1f/op", allocs)
	}
}
