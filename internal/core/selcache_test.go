package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/spatial"
	"repro/internal/weights"
)

// cellTargetSets returns up to want disjoint single-cell target sets of
// the matrix engine's spatial grid (two nodes from each of the densest
// cells, in cell order), so every set has its own cell signature and
// stays far below the RPHAST cutover.
func cellTargetSets(t *testing.T, g *graph.Graph, want int) [][]graph.NodeID {
	t.Helper()
	idx := spatial.NewIndex(g, 0)
	var sets [][]graph.NodeID
	for c := 0; c < idx.NumCells() && len(sets) < want; c++ {
		if nodes := idx.CellNodes(c); len(nodes) >= 2 {
			sets = append(sets, []graph.NodeID{nodes[0], nodes[1]})
		}
	}
	if len(sets) < want {
		t.Fatalf("only %d cells hold two nodes, want %d", len(sets), want)
	}
	return sets
}

// newMatrixEngineBudget is NewMatrixEngine with an explicit per-version
// selection-cache byte budget (≤ 0: one entry per shard). The budget
// applies from the next weight version on, so the engine plans on a
// store and republishes once to install a view built under it.
func newMatrixEngineBudget(g *graph.Graph, cacheBytes int) *MatrixEngine {
	store := weights.NewStore(g.BaseWeights())
	m := NewMatrixEngine(g, Options{Weights: store, TreeBackend: TreeCH}, nil)
	m.prov.selCacheBytes = cacheBytes
	store.Publish(g.BaseWeights())
	m.prov.refreshSync()
	return m
}

// TestSelectionCacheAlternatingHotPairs pins the fix for the
// selection-cache thrash bug: a single-slot cache let two alternating hot
// keys evict each other forever, so every lookup paid a full Select. The
// multi-entry cache keys by cell signature and holds both target sets'
// entries, so after each set's first miss every later table hits.
func TestSelectionCacheAlternatingHotPairs(t *testing.T) {
	g := randomRoadNetwork(42, 150)
	sets := cellTargetSets(t, g, 2)
	sources := sampleNodes(g, 2, 1)
	m := NewMatrixEngine(g, Options{TreeBackend: TreeCH}, nil)

	const rounds = 20
	var tab Table
	for i := 0; i < rounds; i++ {
		for _, targets := range sets {
			if err := m.MatrixInto(&tab, sources, targets); err != nil {
				t.Fatal(err)
			}
			if !tab.Restricted {
				t.Fatalf("single-cell target set %v ran full sweeps", targets)
			}
		}
	}
	st := m.HierarchyStatus()
	total := st.SelectionHits + st.SelectionMisses
	if total != 2*rounds {
		t.Fatalf("selection lookups = %d, want %d", total, 2*rounds)
	}
	if st.SelectionMisses > 2 {
		t.Fatalf("alternating hot target sets: misses = %d, want at most one cold miss per set (2)", st.SelectionMisses)
	}
	if rate := float64(st.SelectionHits) / float64(total); rate < 0.90 {
		t.Fatalf("alternating hot target sets: hit rate = %.2f (hits=%d misses=%d), want > 0.90", rate, st.SelectionHits, st.SelectionMisses)
	}
	if st.SelectionEvictions != 0 {
		t.Fatalf("two hot entries must fit the default budget; got %d evictions", st.SelectionEvictions)
	}
}

// TestSelectionCacheEviction drives a degenerate one-entry-per-shard
// budget through many distinct target sets and checks the clock hand
// actually evicts: the entry count stays bounded by the shard count while
// the eviction counter climbs.
func TestSelectionCacheEviction(t *testing.T) {
	g := randomRoadNetwork(43, 200)
	sets := cellTargetSets(t, g, 12)
	sources := sampleNodes(g, 2, 2)
	m := newMatrixEngineBudget(g, 0)

	var tab Table
	for _, targets := range sets {
		if err := m.MatrixInto(&tab, sources, targets); err != nil {
			t.Fatal(err)
		}
	}
	st := m.HierarchyStatus()
	if st.SelectionMisses != uint64(len(sets)) {
		t.Fatalf("%d distinct single-cell sets produced %d misses", len(sets), st.SelectionMisses)
	}
	if n := m.prov.view().sels.cache.entryCount(); n > selCacheShards {
		t.Fatalf("degenerate budget holds %d entries, want <= %d (one per shard)", n, selCacheShards)
	}
	if st.SelectionEvictions == 0 {
		t.Fatalf("%d misses on a one-entry-per-shard cache produced no evictions", st.SelectionMisses)
	}
}

// TestSelectionCacheSupersetHit checks the covering probe: once a target
// set's cell union is cached, a table whose targets lie in a subset of
// those cells reuses the covering selection instead of building its own,
// and its cells stay exact.
func TestSelectionCacheSupersetHit(t *testing.T) {
	g := randomRoadNetwork(44, 150)
	sets := cellTargetSets(t, g, 3)
	union := append(append(append([]graph.NodeID(nil), sets[0]...), sets[1]...), sets[2]...)
	sources := sampleNodes(g, 3, 3)
	m := NewMatrixEngine(g, Options{TreeBackend: TreeCH}, nil)

	if _, err := m.Matrix(sources, union); err != nil {
		t.Fatal(err)
	}
	for _, targets := range sets {
		tab, err := m.Matrix(sources, targets[:1])
		if err != nil {
			t.Fatal(err)
		}
		if !tab.SelectionHit || !tab.Restricted {
			t.Fatalf("subset target %v: SelectionHit=%v Restricted=%v, want a restricted hit on the covering union",
				targets[:1], tab.SelectionHit, tab.Restricted)
		}
		requireTableEqual(t, tab, dijkstraMatrix(g, g.BaseWeights(), sources, targets[:1]), "superset hit")
	}
	if st := m.HierarchyStatus(); st.SelectionMisses != 1 {
		t.Fatalf("subset tables built their own selections: %d misses, want 1", st.SelectionMisses)
	}
}
