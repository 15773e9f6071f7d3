package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/traffic"
	"repro/internal/weights"
)

// The CCH half of the tree-backend claim: planners on the customizable
// hierarchy return byte-identical route sets to the Dijkstra backend on
// tie-free networks — and keep doing so for *any* published snapshot,
// including heavy closures.

func TestPlateausCCHMatchesDijkstraBackend(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := randomRoadNetwork(seed+500, 150)
		dij := NewPlateaus(g, Options{})
		cchP := NewPlateaus(g, Options{TreeBackend: TreeCH, Hierarchy: HierarchyCCH})
		comparePlannersExact(t, dij, cchP, g, 12, seed)
	}
}

func TestCommercialCCHMatchesFullTrees(t *testing.T) {
	g := randomRoadNetwork(301, 150)
	private := traffic.Apply(g, traffic.DefaultModel(33))
	full := NewCommercial(g, private, Options{DisablePrunedTrees: true})
	cchC := NewCommercial(g, private, Options{TreeBackend: TreeCH, Hierarchy: HierarchyCCH})
	comparePlannersExact(t, full, cchC, g, 12, 5)
}

// TestCCHServingExactUnderClosures pins the acceptance criterion through
// the whole serving stack: after publishing a heavy-closure snapshot to a
// live store, the CCH-backed planner's route sets stay byte-identical to
// the Dijkstra backend's — no re-contraction, only the triangle
// customization the publish triggered.
func TestCCHServingExactUnderClosures(t *testing.T) {
	g := randomRoadNetwork(55, 150)
	store := weights.NewStore(g.BaseWeights())
	cchP := NewPlateaus(g, Options{Weights: store, TreeBackend: TreeCH, Hierarchy: HierarchyCCH})
	dij := NewPlateaus(g, Options{Weights: store})
	router := NewRouter(NewEngine(2), []Planner{cchP, dij}, store)

	rng := rand.New(rand.NewSource(8))
	var closed []graph.EdgeID
	for len(closed) < g.NumEdges()/12 {
		closed = append(closed, graph.EdgeID(rng.Intn(g.NumEdges())))
	}
	store.Ban(closed...)
	// And a ±50% congestion republish on top of the closures.
	next := make([]float64, len(g.BaseWeights()))
	for i, w := range g.BaseWeights() {
		next[i] = w * (0.5 + rng.Float64())
	}
	store.Publish(next)
	router.Sync()

	if v := cchP.WeightsVersion(); v != store.Version() {
		t.Fatalf("post-sync CCH planner at version %d, store at %d", v, store.Version())
	}
	comparePlannersExact(t, dij, cchP, g, 12, 9)
}

// TestHierarchyStatusReporting covers the observability seam the server
// logs per query: hierarchy kind, order and customization latency per
// planner. The zero Options on a CH backend serve the CCH hierarchy.
func TestHierarchyStatusReporting(t *testing.T) {
	g := testCity(t)
	def := NewPlateaus(g, Options{TreeBackend: TreeCH})
	perfect := NewPrunedPlateaus(g, Options{TreeBackend: TreeCH, Hierarchy: HierarchyCCHPerfect, Order: OrderFlow})
	dij := NewPlateaus(g, Options{})

	if st := def.HierarchyStatus(); st.Kind != "cch" || st.Order != "geometric" || st.LastCustomize <= 0 {
		t.Fatalf("default status = %+v, want kind cch, geometric order, positive latency", st)
	}
	if st := perfect.HierarchyStatus(); st.Kind != "cch" || st.Order != "flow" || st.LastCustomize <= 0 {
		t.Fatalf("cch-perfect status = %+v, want kind cch, flow order, positive latency", st)
	}
	if st := dij.HierarchyStatus(); st.Kind != "" || st.Order != "" || st.LastCustomize != 0 {
		t.Fatalf("dijkstra-backend status = %+v, want zero", st)
	}

	router := NewRouter(nil, []Planner{def, perfect, dij, NewPenalty(g, Options{})})
	sts := router.HierarchyStatuses()
	if len(sts) != 4 {
		t.Fatalf("HierarchyStatuses length %d, want 4", len(sts))
	}
	if sts[0].Kind != "cch" || sts[1].Kind != "cch" || sts[2].Kind != "" || sts[3].Kind != "" {
		t.Fatalf("statuses = %+v", sts)
	}
}

// TestConcurrentPublishWithBatchQueriesCCH is the CCH twin of the
// live-serving race smoke CI runs under -race: rush-hour publishes and
// closures land while the engine answers batches across CCH-backed
// planners, and the post-sync state must match a planner built fresh at
// the final snapshot.
func TestConcurrentPublishWithBatchQueriesCCH(t *testing.T) {
	g := randomRoadNetwork(37, 120)
	pubStore := weights.NewStore(g.BaseWeights())
	seq := traffic.NewSequence(g, traffic.DefaultModel(5), 8)
	privStore := weights.NewStore(seq.WeightsAt(0))

	cchOpts := Options{Weights: pubStore, TreeBackend: TreeCH, Hierarchy: HierarchyCCH}
	planners := []Planner{
		NewPlateaus(g, cchOpts),
		NewPrunedPlateaus(g, cchOpts),
		NewPlateaus(g, Options{Weights: pubStore}),
		NewCommercial(g, nil, Options{Weights: privStore, TreeBackend: TreeCH, Hierarchy: HierarchyCCH}),
	}
	engine := NewEngine(4)
	router := NewRouter(engine, planners, pubStore, privStore)

	const publishes = 6
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := make([]float64, len(g.BaseWeights()))
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < publishes; i++ {
			seq.Advance(privStore)
			for j, w := range g.BaseWeights() {
				next[j] = w * (1 + 0.2*rng.Float64())
			}
			pubStore.Publish(next)
			if i == publishes/2 {
				// A closure mid-churn: the CCH swap must stay exact through it.
				pubStore.Ban(graph.EdgeID(rng.Intn(g.NumEdges())))
			}
		}
	}()

	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 10; round++ {
		jobs := make([]Job, 0, 3*len(planners))
		for q := 0; q < 3; q++ {
			s := graph.NodeID(rng.Intn(g.NumNodes()))
			dst := graph.NodeID(rng.Intn(g.NumNodes()))
			for _, pl := range planners {
				jobs = append(jobs, Job{Planner: pl, S: s, T: dst})
			}
		}
		for _, r := range router.AlternativesBatch(jobs) {
			if r.Err != nil && r.Err != ErrNoRoute {
				t.Fatalf("batch under publish churn: %v", r.Err)
			}
		}
	}
	wg.Wait()
	router.Sync()

	// Steady state: the CCH planner must agree exactly with a fresh
	// Dijkstra-backend planner pinned at the final snapshot — the
	// "arbitrary snapshot, no re-contraction" guarantee.
	fresh := NewPlateaus(g, Options{Weights: pubStore.Latest()})
	comparePlannersExact(t, fresh, planners[0].(*Plateaus), g, 6, 3)
	if v := planners[0].(*Plateaus).WeightsVersion(); v != pubStore.Version() {
		t.Fatalf("post-sync version %d != store version %d", v, pubStore.Version())
	}
}

// TestCCHRecustomizeChainStaysExact follows several publishes through one
// provider (each Customize reuses the frozen contraction) and checks the
// final distances against ground truth — there is no drift across swaps.
func TestCCHRecustomizeChainStaysExact(t *testing.T) {
	g := randomRoadNetwork(71, 120)
	store := weights.NewStore(g.BaseWeights())
	pl := NewPlateaus(g, Options{Weights: store, TreeBackend: TreeCH, Hierarchy: HierarchyCCH})
	rng := rand.New(rand.NewSource(6))
	var final []float64
	for step := 0; step < 4; step++ {
		next := make([]float64, len(g.BaseWeights()))
		for i, w := range g.BaseWeights() {
			next[i] = w * (0.5 + rng.Float64())
			if rng.Intn(20) == 0 {
				next[i] = math.Inf(1)
			}
		}
		store.Publish(next)
		final = next
	}
	pl.refreshSync()
	fresh := NewPlateaus(g, Options{Weights: weights.Pin(final)})
	comparePlannersExact(t, fresh, pl, g, 8, 11)
}
