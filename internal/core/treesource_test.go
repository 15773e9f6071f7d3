package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/traffic"
)

// The tree-backend claim under test: the choice-routing planners return
// the same routes whether their trees come from full Dijkstra searches,
// elliptic pruning, or PHAST sweeps over a contraction hierarchy.
//
// Exact route-set equality requires tie-free shortest paths (with ties,
// equally correct trees may pick different parents and therefore different
// plateaus), so these tests run on randomRoadNetwork graphs whose
// continuous random speeds make ties measure-zero. On the tied grid city
// the planners are exercised by the contract tests instead.

func comparePlannersExact(t *testing.T, a, b Planner, g *graph.Graph, queries int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	checked := 0
	for q := 0; checked < queries && q < queries*4; q++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		dst := graph.NodeID(rng.Intn(g.NumNodes()))
		if s == dst {
			continue
		}
		ra, err1 := a.Alternatives(s, dst)
		rb, err2 := b.Alternatives(s, dst)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("query %d->%d: error mismatch %v vs %v", s, dst, err1, err2)
		}
		if err1 != nil {
			continue
		}
		checked++
		if len(ra) != len(rb) {
			t.Fatalf("query %d->%d: %d vs %d routes", s, dst, len(ra), len(rb))
		}
		for i := range ra {
			if !path.Equal(ra[i], rb[i]) {
				t.Fatalf("query %d->%d route %d differs between backends", s, dst, i)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no connected queries sampled")
	}
}

func TestPlateausCHMatchesDijkstraBackend(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := randomRoadNetwork(seed+100, 150)
		dij := NewPlateaus(g, Options{})
		chp := NewPlateaus(g, Options{TreeBackend: TreeCH})
		comparePlannersExact(t, dij, chp, g, 12, seed)
	}
}

func TestPrunedPlateausCHBackend(t *testing.T) {
	g := randomRoadNetwork(7, 150)
	dij := NewPrunedPlateaus(g, Options{})
	chp := NewPrunedPlateaus(g, Options{TreeBackend: TreeCH})
	comparePlannersExact(t, dij, chp, g, 12, 7)
	// The CH variant builds full trees; instrumentation must still report.
	if fwd, bwd := chp.LastReached(); fwd <= 0 || bwd <= 0 {
		t.Errorf("CH-backend LastReached = (%d, %d), want positive", fwd, bwd)
	}
}

func TestCommercialPrunedMatchesFullTrees(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := randomRoadNetwork(seed+200, 150)
		private := traffic.Apply(g, traffic.DefaultModel(uint64(seed)+9))
		pruned := NewCommercial(g, private, Options{})
		full := NewCommercial(g, private, Options{DisablePrunedTrees: true})
		comparePlannersExact(t, full, pruned, g, 12, seed)
	}
}

func TestCommercialCHMatchesFullTrees(t *testing.T) {
	g := randomRoadNetwork(300, 150)
	private := traffic.Apply(g, traffic.DefaultModel(33))
	full := NewCommercial(g, private, Options{DisablePrunedTrees: true})
	chc := NewCommercial(g, private, Options{TreeBackend: TreeCH})
	comparePlannersExact(t, full, chc, g, 12, 5)
}

// TestEngineDrivesCHAndPrunedPlanners hammers the CH-backed and pruned
// planners through the concurrent engine; with -race it verifies the
// shared TreeBuilder, the pruned tree source and the atomic
// instrumentation are data-race free.
func TestEngineDrivesCHAndPrunedPlanners(t *testing.T) {
	g := testCity(t)
	e := NewEngine(4)
	planners := []Planner{
		NewPlateaus(g, Options{TreeBackend: TreeCH}),
		NewPrunedPlateaus(g, Options{}),
		NewPrunedPlateaus(g, Options{TreeBackend: TreeCH}),
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < 15; q++ {
				s := graph.NodeID(rng.Intn(g.NumNodes()))
				dst := graph.NodeID(rng.Intn(g.NumNodes()))
				if s == dst {
					continue
				}
				for _, r := range e.Alternatives(planners, s, dst) {
					if r.Err != nil && r.Err != ErrNoRoute {
						t.Errorf("engine CH query %d->%d: %v", s, dst, r.Err)
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestParseHierarchyKind pins the accepted -hierarchy spellings: the zero
// value is cch, and the deleted witness flavor is rejected.
func TestParseHierarchyKind(t *testing.T) {
	for _, s := range []string{"cch", "cch-perfect"} {
		k, err := ParseHierarchyKind(s)
		if err != nil || k.String() != s {
			t.Fatalf("ParseHierarchyKind(%q) = %v, %v", s, k, err)
		}
	}
	if HierarchyKind(0) != HierarchyCCH {
		t.Fatal("the zero HierarchyKind is not cch")
	}
	if _, err := ParseHierarchyKind("witness"); err == nil {
		t.Fatal(`ParseHierarchyKind("witness") accepted the deleted flavor`)
	}
}
