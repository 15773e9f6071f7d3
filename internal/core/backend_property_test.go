package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/weights"
)

// The cross-backend equivalence harness — the permanent safety net for
// restricted sweeps and every future tree backend. Restricted sweeps are
// exactly the kind of optimization that silently drops nodes: a selection
// one node too small produces plausible-but-wrong route sets that no
// smoke test notices. So the matrix is pinned property-style: on seeded
// random tie-free networks (continuous random speeds make shortest-path
// ties measure-zero, so route sets are forced) under randomized ±50%
// traffic plus +Inf closure snapshots, every tree backend × customization
// × order × query engine must return byte-identical route sets for the
// study planners.

// closureSnapshot publishes a ±50% perturbation of the base weights plus
// ~3% random +Inf closures and returns the pinned snapshot.
func closureSnapshot(g *graph.Graph, seed int64) *weights.Snapshot {
	rng := rand.New(rand.NewSource(seed))
	store := weights.NewStore(g.BaseWeights())
	w := make([]float64, len(g.BaseWeights()))
	for i, base := range g.BaseWeights() {
		w[i] = base * (0.5 + rng.Float64())
	}
	store.Publish(w)
	var bans []graph.EdgeID
	for e := 0; e < g.NumEdges(); e++ {
		if rng.Float64() < 0.03 {
			bans = append(bans, graph.EdgeID(e))
		}
	}
	if len(bans) > 0 {
		store.Ban(bans...)
	}
	return store.Latest()
}

func TestBackendMatrix(t *testing.T) {
	type config struct {
		name    string
		backend TreeBackend
		hkind   HierarchyKind
		order   OrderKind
		query   QueryEngine
	}
	// Both customizations run on both contraction-order pipelines — the
	// flow order produces a different (smaller) hierarchy, and its routes
	// must still be byte-identical to the Dijkstra baseline. Rows default
	// to the elimination-tree query engine; the restricted backend — whose
	// selection bounds come straight from hier.Dist — additionally runs
	// bidij rows, pinning byte-identical routes across both engines on
	// both customizations and both orders.
	configs := []config{
		{"ch/cch", TreeCH, HierarchyCCH, OrderGeometric, QueryElimTree},
		{"ch/cch-perfect", TreeCH, HierarchyCCHPerfect, OrderGeometric, QueryElimTree},
		{"ch/cch/flow", TreeCH, HierarchyCCH, OrderFlow, QueryElimTree},
		{"ch/cch-perfect/flow", TreeCH, HierarchyCCHPerfect, OrderFlow, QueryElimTree},
		{"ch-restricted/cch", TreeCHRestricted, HierarchyCCH, OrderGeometric, QueryElimTree},
		{"ch-restricted/cch-perfect", TreeCHRestricted, HierarchyCCHPerfect, OrderGeometric, QueryElimTree},
		{"ch-restricted/cch/flow", TreeCHRestricted, HierarchyCCH, OrderFlow, QueryElimTree},
		{"ch-restricted/cch-perfect/flow", TreeCHRestricted, HierarchyCCHPerfect, OrderFlow, QueryElimTree},
		{"ch-restricted/cch/bidij", TreeCHRestricted, HierarchyCCH, OrderGeometric, QueryBidij},
		{"ch-restricted/cch-perfect/bidij", TreeCHRestricted, HierarchyCCHPerfect, OrderGeometric, QueryBidij},
		{"ch-restricted/cch/flow/bidij", TreeCHRestricted, HierarchyCCH, OrderFlow, QueryBidij},
		{"ch-restricted/cch-perfect/flow/bidij", TreeCHRestricted, HierarchyCCHPerfect, OrderFlow, QueryBidij},
		{"ch-auto/cch", TreeCHAuto, HierarchyCCH, OrderGeometric, QueryElimTree},
		{"ch-auto/cch-perfect", TreeCHAuto, HierarchyCCHPerfect, OrderGeometric, QueryElimTree},
		{"ch-auto/cch/flow", TreeCHAuto, HierarchyCCH, OrderFlow, QueryElimTree},
		{"ch-auto/cch-perfect/flow", TreeCHAuto, HierarchyCCHPerfect, OrderFlow, QueryElimTree},
	}
	plannerNames := []string{"Plateaus", "PrunedPlateaus", "Dissimilarity", "Dissimilarity(shared)", "Penalty", "Commercial"}
	mk := func(g *graph.Graph, snap *weights.Snapshot, cfg config) []Planner {
		o := Options{TreeBackend: cfg.backend, Hierarchy: cfg.hkind, Order: cfg.order, Query: cfg.query, Weights: snap}
		plateaus := NewPlateaus(g, o)
		return []Planner{
			plateaus,
			NewPrunedPlateaus(g, o),
			NewDissimilarity(g, o),
			// The serving wiring: trees, views and selections shared
			// with the Plateaus planner above.
			NewDissimilarityFor(plateaus),
			NewPenalty(g, o),
			// Commercial's private metric is the closure snapshot itself:
			// its hierarchy and its elliptic/restricted selections must
			// respect the same bans as everyone else's.
			NewCommercial(g, nil, o),
		}
	}
	for seed := int64(0); seed < 3; seed++ {
		g := randomRoadNetwork(seed+500, 140)
		snap := closureSnapshot(g, seed+900)
		baseline := mk(g, snap, config{backend: TreeDijkstra})
		for _, cfg := range configs {
			other := mk(g, snap, cfg)
			for i := range baseline {
				t.Run(cfg.name+"/"+plannerNames[i], func(t *testing.T) {
					comparePlannersExact(t, baseline[i], other[i], g, 6, seed*31+int64(i))
				})
			}
		}
	}
}

// TestBackendMatrixObservability spot-checks the restricted backends'
// serving telemetry: after a query, the planner reports a selection size
// and sweep time, and the auto mode reports whether it restricted.
func TestBackendMatrixObservability(t *testing.T) {
	g := randomRoadNetwork(7, 140)
	pl := NewPlateaus(g, Options{TreeBackend: TreeCHRestricted})
	s, dst, _ := banFastestRoute(t, g, pl, 5)
	if _, err := pl.Alternatives(s, dst); err != nil {
		t.Fatal(err)
	}
	st := pl.HierarchyStatus()
	if st.Kind != "cch" {
		t.Fatalf("restricted backend reports hierarchy %q", st.Kind)
	}
	if !st.LastRestricted || st.LastSelection <= 0 || st.LastSelection > g.NumNodes() {
		t.Fatalf("restricted query telemetry: restricted=%v selection=%d", st.LastRestricted, st.LastSelection)
	}
	if st.LastSweep <= 0 {
		t.Fatalf("restricted query reported no sweep time")
	}
}
