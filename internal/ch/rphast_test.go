package ch_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cch"
	"repro/internal/ch"
	"repro/internal/graph"
	"repro/internal/sp"
)

// The RPHAST contract under test: a restricted build agrees with the full
// PHAST build exactly on every selected node, reports no garbage anywhere
// else, and parent chains of selected nodes reconstruct whenever every
// node of the shortest path is itself selected.

// checkRestrictedAgainstFull verifies restricted trees for one target set
// against full builds from the same builder, and target distances against
// Dijkstra under w.
func checkRestrictedAgainstFull(t *testing.T, g *graph.Graph, w []float64, tb *ch.TreeBuilder, targets []graph.NodeID, root graph.NodeID) {
	t.Helper()
	sel := tb.Select(targets, nil)
	isTarget := make(map[graph.NodeID]bool, len(targets))
	for _, v := range targets {
		isTarget[v] = true
	}
	for _, dir := range []sp.Direction{sp.Forward, sp.Backward} {
		full := tb.BuildTree(root, dir)
		want := sp.BuildTree(g, w, root, dir)
		wsR := sp.NewWorkspace()
		got := tb.BuildTreeRestrictedInto(wsR, root, dir, sel)
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			if isTarget[v] {
				if !distEqual(got.Dist[v], full.Dist[v]) {
					t.Fatalf("dir %d target %d: restricted dist %v, full %v", dir, v, got.Dist[v], full.Dist[v])
				}
				if !distEqual(got.Dist[v], want.Dist[v]) {
					t.Fatalf("dir %d target %d: restricted dist %v, dijkstra %v", dir, v, got.Dist[v], want.Dist[v])
				}
				if got.Reached(v) && v != root && got.Parent[v] != full.Parent[v] {
					t.Fatalf("dir %d target %d: restricted parent %d, full %d", dir, v, got.Parent[v], full.Parent[v])
				}
				continue
			}
			// Non-targets may be unreached, but whatever is reported must
			// equal the full build (the sweep set is a superset of the
			// targets, never an approximation).
			if got.Reached(v) && !distEqual(got.Dist[v], full.Dist[v]) {
				t.Fatalf("dir %d swept node %d: restricted dist %v, full %v", dir, v, got.Dist[v], full.Dist[v])
			}
		}
	}
}

func TestRestrictedTreeMatchesFullOnTargetsGrid(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg cch.Config) {
		g := gridCity(12, 12)
		w := g.CopyWeights()
		tb := cch.BuildWith(g, w, cfg).NewTreeBuilder()
		rng := rand.New(rand.NewSource(3))
		for q := 0; q < 8; q++ {
			root := graph.NodeID(rng.Intn(g.NumNodes()))
			targets := []graph.NodeID{root}
			for len(targets) < 24 {
				targets = append(targets, graph.NodeID(rng.Intn(g.NumNodes())))
			}
			checkRestrictedAgainstFull(t, g, w, tb, targets, root)
		}
	})
}

func TestRestrictedTreeMatchesFullOnTargetsRandomDirected(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg cch.Config) {
		for seed := int64(0); seed < 4; seed++ {
			g := randomCity(seed+40, 150)
			w := g.CopyWeights()
			tb := cch.BuildWith(g, w, cfg).NewTreeBuilder()
			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < 5; q++ {
				root := graph.NodeID(rng.Intn(g.NumNodes()))
				targets := []graph.NodeID{root}
				for len(targets) < 30 {
					targets = append(targets, graph.NodeID(rng.Intn(g.NumNodes())))
				}
				checkRestrictedAgainstFull(t, g, w, tb, targets, root)
			}
		}
	})
}

// TestRestrictedTreeBannedEdges pins the +Inf semantics: banned arcs are
// dropped from the restricted subgraph entirely, and target distances
// still match the full build (unreachable stays unreachable).
func TestRestrictedTreeBannedEdges(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg cch.Config) {
		g := randomCity(9, 120)
		w := g.CopyWeights()
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < g.NumEdges()/5; i++ {
			w[rng.Intn(g.NumEdges())] = math.Inf(1)
		}
		tb := cch.BuildWith(g, w, cfg).NewTreeBuilder()
		for q := 0; q < 6; q++ {
			root := graph.NodeID(rng.Intn(g.NumNodes()))
			targets := []graph.NodeID{root}
			for len(targets) < 25 {
				targets = append(targets, graph.NodeID(rng.Intn(g.NumNodes())))
			}
			checkRestrictedAgainstFull(t, g, w, tb, targets, root)
		}
	})
}

// TestSelectionReusedAcrossRoots is the RPHAST amortization: one
// selection, many roots — every build stays exact on the targets. It also
// verifies parent chains reconstruct when the whole graph is selected.
func TestSelectionReusedAcrossRoots(t *testing.T) {
	g := gridCity(10, 10)
	w := g.CopyWeights()
	tb := cch.Build(g, w).NewTreeBuilder()
	all := make([]graph.NodeID, g.NumNodes())
	for v := range all {
		all[v] = graph.NodeID(v)
	}
	sel := tb.Select(all, nil)
	if f, b := sel.SweptNodes(); f != g.NumNodes() || b != g.NumNodes() {
		t.Fatalf("full-graph selection sweeps %d/%d nodes, want %d", f, b, g.NumNodes())
	}
	ws := sp.NewWorkspace()
	rng := rand.New(rand.NewSource(1))
	for q := 0; q < 6; q++ {
		root := graph.NodeID(rng.Intn(g.NumNodes()))
		got := tb.BuildTreeRestrictedInto(ws, root, sp.Forward, sel)
		want := sp.BuildTree(g, w, root, sp.Forward)
		checkTreeEquivalence(t, g, w, got.Clone(), want)
	}
}

// TestSelectionReuseRebuild verifies Select with a reuse argument reuses
// the backing arrays and produces a correct fresh selection.
func TestSelectionReuseRebuild(t *testing.T) {
	g := gridCity(8, 8)
	w := g.CopyWeights()
	tb := cch.Build(g, w).NewTreeBuilder()
	sel := tb.Select([]graph.NodeID{0, 1, 2, 3, 4, 5, 6, 7}, nil)
	sel = tb.Select([]graph.NodeID{10, 20, 30, 0, 63}, sel)
	if sel.Targets() != 5 {
		t.Fatalf("reused selection reports %d targets, want 5", sel.Targets())
	}
	checkRestrictedAgainstFull(t, g, w, tb, []graph.NodeID{10, 20, 30, 0, 63}, 0)
}

// TestStaleSelectionPanics pins the misuse guard: a selection must not
// survive into a different ch.TreeBuilder (the stale-selection-after-
// customize bug class this PR's serving layer must never hit).
func TestStaleSelectionPanics(t *testing.T) {
	g := gridCity(6, 6)
	w := g.CopyWeights()
	h := cch.Build(g, w)
	tb1 := h.NewTreeBuilder()
	tb2 := h.Customize(w).NewTreeBuilder()
	sel := tb1.Select([]graph.NodeID{0, 1, 2}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("restricted build with a stale selection did not panic")
		}
	}()
	ws := sp.NewWorkspace()
	tb2.BuildTreeRestrictedInto(ws, 0, sp.Forward, sel)
}

// TestRestrictedZeroAlloc: with a warm workspace and a prebuilt
// selection, a restricted build allocates nothing; re-selecting onto a
// warm Selection allocates nothing either.
func TestRestrictedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := gridCity(20, 20)
	w := g.CopyWeights()
	tb := cch.Build(g, w).NewTreeBuilder()
	ws := sp.NewWorkspace()
	rng := rand.New(rand.NewSource(2))
	targets := make([]graph.NodeID, 0, 80)
	for len(targets) < 80 {
		targets = append(targets, graph.NodeID(rng.Intn(g.NumNodes())))
	}
	sel := tb.Select(targets, nil)
	root := targets[0]
	build := func() {
		tb.BuildTreeRestrictedInto(ws, root, sp.Forward, sel)
		tb.BuildTreeRestrictedInto(ws, root, sp.Backward, sel)
	}
	build()
	if allocs := testing.AllocsPerRun(20, build); allocs > 0 {
		t.Errorf("restricted tree pair: %v allocs/op after warm-up, want 0", allocs)
	}
	reselect := func() { tb.Select(targets, sel) }
	reselect()
	if allocs := testing.AllocsPerRun(20, reselect); allocs > 0 {
		t.Errorf("warm re-selection: %v allocs/op, want 0", allocs)
	}
}

// TestSelectionCoverage pins the Covers contract: exactly the requested
// targets are covered — swept closure nodes are not, since only requested
// targets carry the both-directions exactness guarantee.
func TestSelectionCoverage(t *testing.T) {
	g := gridCity(10, 10)
	w := g.CopyWeights()
	tb := cch.Build(g, w).NewTreeBuilder()
	targets := []graph.NodeID{3, 17, 42, 99}
	sel := tb.Select(targets, nil)
	if !sel.Covers(targets) {
		t.Fatal("selection does not cover its own targets")
	}
	if !sel.Covers(targets[1:3]) {
		t.Fatal("selection does not cover a subset of its targets")
	}
	requested := map[graph.NodeID]bool{3: true, 17: true, 42: true, 99: true}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if !requested[v] && sel.Covers([]graph.NodeID{v}) {
			t.Fatalf("selection covers node %d that was never requested", v)
		}
	}
	// Coverage resets on reuse: the old targets must not leak through.
	sel = tb.Select([]graph.NodeID{7}, sel)
	if sel.Covers([]graph.NodeID{3}) {
		t.Fatal("reused selection still covers a previous target")
	}
	if !sel.Covers([]graph.NodeID{7}) {
		t.Fatal("reused selection does not cover its new target")
	}
}

// TestSelectUnionMatchesFlattenedSelect: a union selection is exactly the
// selection of the flattened, deduplicated target set — same target
// count, same sweep sets, byte-identical restricted trees.
func TestSelectUnionMatchesFlattenedSelect(t *testing.T) {
	g := randomCity(77, 150)
	w := g.CopyWeights()
	tb := cch.Build(g, w).NewTreeBuilder()
	groups := [][]graph.NodeID{{1, 2, 3}, {3, 4, 5, 60}, {90, 91, 2}}
	var flat []graph.NodeID
	for _, gr := range groups {
		flat = append(flat, gr...)
	}
	flatSel := tb.Select(flat, nil)
	unionSel := tb.SelectUnion(groups, nil)
	if flatSel.Targets() != unionSel.Targets() {
		t.Fatalf("union targets %d, flat targets %d", unionSel.Targets(), flatSel.Targets())
	}
	ff, fb := flatSel.SweptNodes()
	uf, ub := unionSel.SweptNodes()
	if ff != uf || fb != ub {
		t.Fatalf("union sweeps (%d,%d), flat sweeps (%d,%d)", uf, ub, ff, fb)
	}
	if !unionSel.Covers(flat) {
		t.Fatal("union selection does not cover the flattened target set")
	}
	wsA, wsB := sp.NewWorkspace(), sp.NewWorkspace()
	for _, root := range []graph.NodeID{0, 60, 120} {
		for _, dir := range []sp.Direction{sp.Forward, sp.Backward} {
			a := tb.BuildTreeRestrictedInto(wsA, root, dir, flatSel)
			b := tb.BuildTreeRestrictedInto(wsB, root, dir, unionSel)
			for v := 0; v < g.NumNodes(); v++ {
				if !distEqual(a.Dist[v], b.Dist[v]) || a.Parent[v] != b.Parent[v] {
					t.Fatalf("root %d dir %d node %d: flat (%v,%d) union (%v,%d)",
						root, dir, v, a.Dist[v], a.Parent[v], b.Dist[v], b.Parent[v])
				}
			}
		}
	}
}

// TestSelectionMemoryBytes sanity-checks the cache charging measure: a
// bigger target set retains at least as many bytes, and nothing is free.
func TestSelectionMemoryBytes(t *testing.T) {
	g := gridCity(12, 12)
	w := g.CopyWeights()
	tb := cch.Build(g, w).NewTreeBuilder()
	small := tb.Select([]graph.NodeID{0, 1}, nil)
	all := make([]graph.NodeID, g.NumNodes())
	for v := range all {
		all[v] = graph.NodeID(v)
	}
	big := tb.Select(all, nil)
	if small.MemoryBytes() <= 0 {
		t.Fatalf("small selection reports %d bytes", small.MemoryBytes())
	}
	if big.MemoryBytes() < small.MemoryBytes() {
		t.Fatalf("full-graph selection (%d B) smaller than 2-target selection (%d B)",
			big.MemoryBytes(), small.MemoryBytes())
	}
}

// TestRestrictedConcurrent shares one selection across goroutines (as the
// engine's workers share a cached selection); run under -race.
func TestRestrictedConcurrent(t *testing.T) {
	g := gridCity(10, 10)
	w := g.CopyWeights()
	tb := cch.Build(g, w).NewTreeBuilder()
	all := make([]graph.NodeID, g.NumNodes())
	for v := range all {
		all[v] = graph.NodeID(v)
	}
	sel := tb.Select(all, nil)
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			ws := sp.NewWorkspace()
			for q := 0; q < 20; q++ {
				root := graph.NodeID(rng.Intn(g.NumNodes()))
				tree := tb.BuildTreeRestrictedInto(ws, root, sp.Forward, sel)
				if tree.Dist[root] != 0 {
					done <- errDistRoot
					return
				}
			}
			done <- nil
		}(int64(i))
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
