package ch_test

import (
	"testing"

	"repro/internal/cch"
	"repro/internal/graph"
)

// TestDistNearZeroAlloc asserts the workspace-backed CH query allocates
// (almost) nothing per call once the pooled workspace is warm, on both
// point-to-point engines: the default elimination-tree ascent and the
// bidirectional upward search (cch.Config.BidirQuery). The old
// map-and-container/heap implementation spent ~450 allocations per query.
// "Almost" because sync.Pool may be drained by a GC between runs, forcing
// a one-off workspace rebuild.
func TestDistNearZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := gridCity(20, 20)
	s, d := graph.NodeID(0), graph.NodeID(g.NumNodes()-1)
	for _, cfg := range []cch.Config{{}, {BidirQuery: true}} {
		h := cch.BuildWith(g, g.CopyWeights(), cfg)
		engine := h.QueryStats().Engine
		h.Dist(s, d) // warm the pooled workspace
		if allocs := testing.AllocsPerRun(50, func() { h.Dist(s, d) }); allocs >= 1 {
			t.Errorf("Dist (%s): %v allocs/op after warm-up, want ~0", engine, allocs)
		}
	}
}
