package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/weights"
)

// The cross-backend equivalence harness — the permanent safety net for
// the hierarchy tree backend and every future one. A fast tree source is
// exactly the kind of optimization that silently drops nodes: a tree one
// label off produces plausible-but-wrong route sets that no smoke test
// notices. So the matrix is pinned property-style: on seeded random
// tie-free networks (continuous random speeds make shortest-path ties
// measure-zero, so route sets are forced) under randomized ±50% traffic
// plus +Inf closure snapshots, every customization × order of the TreeCH
// backend, under both point-to-point query engines, must return
// byte-identical route sets to the Dijkstra oracle for the study
// planners.

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
		name  string
		trees string // -trees spelling, resolved by ParseTreeBackend
		hkind HierarchyKind
		order OrderKind
		query QueryEngine
	}
	// Both customizations run on both contraction-order pipelines — the
	// flow order produces a different (smaller) hierarchy, and its routes
	// must still be byte-identical to the Dijkstra baseline. Rows are
	// keyed by every -trees spelling that selects the hierarchy backend:
	// command lines and the perf harness still pass ch-restricted and
	// ch-auto, so whatever tree source those spellings resolve to is
	// pinned against the oracle. The bidij rows pin the query-engine
	// option, which still configures the serving runtime, as invisible in
	// route sets on both customizations and both orders.
	configs := []config{
		{"ch/cch", "ch", HierarchyCCH, OrderGeometric, QueryElimTree},
		{"ch/cch-perfect", "ch", HierarchyCCHPerfect, OrderGeometric, QueryElimTree},
		{"ch/cch/flow", "ch", HierarchyCCH, OrderFlow, QueryElimTree},
		{"ch/cch-perfect/flow", "ch", HierarchyCCHPerfect, OrderFlow, QueryElimTree},
		{"ch-restricted/cch", "ch-restricted", HierarchyCCH, OrderGeometric, QueryElimTree},
		{"ch-restricted/cch-perfect", "ch-restricted", HierarchyCCHPerfect, OrderGeometric, QueryElimTree},
		{"ch-restricted/cch/flow", "ch-restricted", HierarchyCCH, OrderFlow, QueryElimTree},
		{"ch-restricted/cch-perfect/flow", "ch-restricted", HierarchyCCHPerfect, OrderFlow, QueryElimTree},
		{"ch-restricted/cch/bidij", "ch-restricted", HierarchyCCH, OrderGeometric, QueryBidij},
		{"ch-restricted/cch-perfect/bidij", "ch-restricted", HierarchyCCHPerfect, OrderGeometric, QueryBidij},
		{"ch-restricted/cch/flow/bidij", "ch-restricted", HierarchyCCH, OrderFlow, QueryBidij},
		{"ch-restricted/cch-perfect/flow/bidij", "ch-restricted", HierarchyCCHPerfect, OrderFlow, QueryBidij},
		{"ch-auto/cch", "ch-auto", HierarchyCCH, OrderGeometric, QueryElimTree},
		{"ch-auto/cch-perfect", "ch-auto", HierarchyCCHPerfect, OrderGeometric, QueryElimTree},
		{"ch-auto/cch/flow", "ch-auto", HierarchyCCH, OrderFlow, QueryElimTree},
		{"ch-auto/cch-perfect/flow", "ch-auto", HierarchyCCHPerfect, OrderFlow, QueryElimTree},
	}
	plannerNames := []string{"Plateaus", "PrunedPlateaus", "Dissimilarity", "Dissimilarity(shared)", "Penalty", "Commercial"}
	mk := func(g *graph.Graph, snap *weights.Snapshot, backend TreeBackend, cfg config) []Planner {
		o := Options{TreeBackend: backend, Hierarchy: cfg.hkind, Order: cfg.order, Query: cfg.query, Weights: snap}
		plateaus := NewPlateaus(g, o)
		return []Planner{
			plateaus,
			NewPrunedPlateaus(g, o),
			NewDissimilarity(g, o),
			// The serving wiring: trees and views shared with the
			// Plateaus planner above.
			NewDissimilarityFor(plateaus),
			NewPenalty(g, o),
			// Commercial's private metric is the closure snapshot itself:
			// its hierarchy and its elliptic pruning must respect the same
			// bans as everyone else's.
			NewCommercial(g, nil, o),
		}
	}
	for seed := int64(0); seed < 3; seed++ {
		g := randomRoadNetwork(seed+500, 140)
		snap := closureSnapshot(g, seed+900)
		baseline := mk(g, snap, TreeDijkstra, config{})
		for _, cfg := range configs {
			backend, err := ParseTreeBackend(cfg.trees)
			if err != nil {
				t.Fatal(err)
			}
			if backend != TreeCH {
				t.Fatalf("-trees %s resolves to %v, want ch", cfg.trees, backend)
			}
			other := mk(g, snap, backend, cfg)
			for i := range baseline {
				t.Run(cfg.name+"/"+plannerNames[i], func(t *testing.T) {
					comparePlannersExact(t, baseline[i], other[i], g, 6, seed*31+int64(i))
				})
			}
		}
	}
}

// TestBackendMatrixObservability spot-checks the hierarchy backend's
// serving telemetry: the planners report the hierarchy they serve from
// and its customization time, but their queries touch neither the
// point-to-point engine nor the selection cache (trees are full PHAST
// sweeps). Only a matrix table on the same provider builds a selection.
func TestBackendMatrixObservability(t *testing.T) {
	g := randomRoadNetwork(7, 140)
	pl := NewPlateaus(g, Options{TreeBackend: TreeCH})
	com := NewCommercial(g, g.BaseWeights(), Options{TreeBackend: TreeCH})
	s, dst, _ := banFastestRoute(t, g, pl, 5)
	for _, p := range []interface {
		Planner
		HierarchyStatus() HierarchyStatus
	}{pl, com} {
		if _, err := p.Alternatives(s, dst); err != nil {
			t.Fatal(err)
		}
		st := p.HierarchyStatus()
		if st.Kind != "cch" || st.Order != "geometric" {
			t.Fatalf("%s: hierarchy backend reports kind %q order %q", p.Name(), st.Kind, st.Order)
		}
		if st.LastCustomize <= 0 {
			t.Fatalf("%s: no customization time reported", p.Name())
		}
		if st.ElimQueries != 0 || st.SelectionHits+st.SelectionMisses != 0 {
			t.Fatalf("%s: planner queries issued %d point-to-point queries and %d selections, want none",
				p.Name(), st.ElimQueries, st.SelectionHits+st.SelectionMisses)
		}
	}
	m := NewMatrixEngineFor(pl, nil)
	tab, err := m.Matrix(sampleNodes(g, 3, 8), clusteredTargets(t, g, 4))
	if err != nil {
		t.Fatal(err)
	}
	st := pl.HierarchyStatus()
	if !tab.Restricted || st.SelectionMisses != 1 || st.ElimQueries != 0 {
		t.Fatalf("matrix on the planner's provider: restricted=%v misses=%d point-to-point=%d, want true/1/0",
			tab.Restricted, st.SelectionMisses, st.ElimQueries)
	}
}
