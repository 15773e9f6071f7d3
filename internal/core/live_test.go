package core

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/traffic"
	"repro/internal/weights"
)

// --- Refactor equivalence ---------------------------------------------------

// TestStoreBackedPlannersMatchPinned is the refactor's acceptance gate:
// for a fixed snapshot, a planner resolving weights from a live store
// must return byte-identical route sets to one pinned at construction
// (the pre-refactor behaviour), on both tree backends.
func TestStoreBackedPlannersMatchPinned(t *testing.T) {
	g := randomRoadNetwork(42, 150)
	store := weights.NewStore(g.BaseWeights())
	private := traffic.Apply(g, traffic.DefaultModel(9))
	privStore := weights.NewStore(private)

	for _, backend := range []TreeBackend{TreeDijkstra, TreeCH} {
		pinnedOpts := Options{TreeBackend: backend}
		storeOpts := Options{TreeBackend: backend, Weights: store}
		cases := []struct {
			name           string
			pinned, stored Planner
		}{
			{"Plateaus", NewPlateaus(g, pinnedOpts), NewPlateaus(g, storeOpts)},
			{"PrunedPlateaus", NewPrunedPlateaus(g, pinnedOpts), NewPrunedPlateaus(g, storeOpts)},
			{"Dissimilarity", NewDissimilarity(g, pinnedOpts), NewDissimilarity(g, storeOpts)},
			{"Penalty", NewPenalty(g, pinnedOpts), NewPenalty(g, storeOpts)},
			{"Commercial", NewCommercial(g, private, pinnedOpts),
				NewCommercial(g, nil, Options{TreeBackend: backend, Weights: privStore})},
		}
		for _, tc := range cases {
			comparePlannersExact(t, tc.pinned, tc.stored, g, 8, 77)
		}
	}
}

// --- Ban semantics across version swaps -------------------------------------

// banFastestRoute finds a query with a route and returns it along with
// the edges of the planner's first route (the ones we will close).
func banFastestRoute(t *testing.T, g *graph.Graph, pl Planner, seed int64) (s, dst graph.NodeID, edges []graph.EdgeID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for q := 0; q < 200; q++ {
		s = graph.NodeID(rng.Intn(g.NumNodes()))
		dst = graph.NodeID(rng.Intn(g.NumNodes()))
		if s == dst {
			continue
		}
		routes, err := pl.Alternatives(s, dst)
		if err != nil || len(routes) == 0 || len(routes[0].Edges) < 3 {
			continue
		}
		return s, dst, append([]graph.EdgeID(nil), routes[0].Edges...)
	}
	t.Fatal("no suitable query found")
	return
}

// TestBanSurvivesSnapshotSwap closes the fastest route's edges in
// snapshot N, then publishes a fresh traffic vector as snapshot N+1: the
// bans must still be impassable for every planner on both tree backends
// (the +Inf mask is re-applied by the store on every publish, and the CH
// backend must re-customize it into its hierarchy).
func TestBanSurvivesSnapshotSwap(t *testing.T) {
	g := randomRoadNetwork(5, 150)
	for _, backend := range []TreeBackend{TreeDijkstra, TreeCH} {
		store := weights.NewStore(g.BaseWeights())
		opts := Options{TreeBackend: backend, Weights: store}
		planners := []Planner{
			NewPlateaus(g, opts),
			NewPrunedPlateaus(g, opts),
			NewDissimilarity(g, opts),
			NewPenalty(g, opts),
			NewCommercial(g, nil, opts), // plans on the same store as its private metric
		}
		router := NewRouter(NewEngine(2), planners, store)

		s, dst, banned := banFastestRoute(t, g, planners[0], int64(backend)+11)
		store.Ban(banned...) // snapshot N: closures take effect

		// Snapshot N+1: a whole new (perturbed) weight vector, no mention
		// of the bans — the store must carry them forward.
		next := make([]float64, len(g.BaseWeights()))
		rng := rand.New(rand.NewSource(99))
		for i, w := range g.BaseWeights() {
			next[i] = w * (1 + 0.3*rng.Float64())
		}
		store.Publish(next)
		router.Sync() // wait out the background re-customization

		isBanned := make(map[graph.EdgeID]bool, len(banned))
		for _, e := range banned {
			isBanned[e] = true
		}
		for _, pl := range planners {
			routes, err := pl.Alternatives(s, dst)
			if err == ErrNoRoute {
				continue // acceptable: the closure disconnected the pair for this planner
			}
			if err != nil {
				t.Fatalf("backend %v %s: %v", backend, pl.Name(), err)
			}
			for ri, r := range routes {
				if math.IsInf(r.TimeS, 1) {
					t.Errorf("backend %v %s route %d has infinite travel time", backend, pl.Name(), ri)
				}
				for _, e := range r.Edges {
					if isBanned[e] {
						t.Errorf("backend %v %s route %d uses banned edge %d after snapshot swap",
							backend, pl.Name(), ri, e)
					}
				}
			}
		}
	}
}

// --- Versioned result cache -------------------------------------------------

func TestEngineCacheVersionedHitsAndInvalidation(t *testing.T) {
	g := randomRoadNetwork(8, 150)
	store := weights.NewStore(g.BaseWeights())
	pl := NewPlateaus(g, Options{Weights: store})
	engine := NewEngine(2)
	router := NewRouter(engine, []Planner{pl}, store)

	s, dst, _ := banFastestRoute(t, g, pl, 3)
	first := router.Alternatives(s, dst)[0]
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.Version != 1 {
		t.Fatalf("first answer at version %d, want 1", first.Version)
	}
	again := router.Alternatives(s, dst)[0]
	hits, _ := engine.CacheStats()
	if hits == 0 {
		t.Fatal("repeat query did not hit the cache")
	}
	if len(again.Routes) != len(first.Routes) {
		t.Fatal("cached answer differs from computed answer")
	}
	for i := range first.Routes {
		if !path.Equal(first.Routes[i], again.Routes[i]) {
			t.Fatalf("cached route %d differs", i)
		}
	}

	// A publish invalidates: the same query recomputes under version 2.
	store.Publish(g.BaseWeights())
	router.Sync()
	after := router.Alternatives(s, dst)[0]
	if after.Err != nil {
		t.Fatal(after.Err)
	}
	if after.Version != 2 {
		t.Fatalf("post-publish answer at version %d, want 2", after.Version)
	}
	// Identical weights were republished, so the routes themselves match.
	for i := range first.Routes {
		if !path.Equal(first.Routes[i], after.Routes[i]) {
			t.Fatalf("route %d changed across an identical-weights republish", i)
		}
	}
}

func TestUnversionedPlannersBypassCache(t *testing.T) {
	g := testCity(t)
	engine := NewEngine(1)
	engine.SetCache(16)
	// A planner that does not implement VersionedPlanner must run every
	// time and report version 0.
	pl := plainPlanner{inner: NewPlateaus(g, Options{})}
	r1 := engine.Alternatives([]Planner{pl}, 0, graph.NodeID(g.NumNodes()-1))[0]
	r2 := engine.Alternatives([]Planner{pl}, 0, graph.NodeID(g.NumNodes()-1))[0]
	if r1.Version != 0 || r2.Version != 0 {
		t.Fatalf("unversioned planner reported versions %d/%d", r1.Version, r2.Version)
	}
	if hits, _ := engine.CacheStats(); hits != 0 {
		t.Fatal("unversioned planner was served from the cache")
	}
}

// TestRouterHonoursExplicitCacheDisable: SetCache(0) is a deliberate
// choice; the Router's default cache must only land on engines whose
// owner never called SetCache.
func TestRouterHonoursExplicitCacheDisable(t *testing.T) {
	g := testCity(t)
	store := weights.NewStore(g.BaseWeights())
	pl := NewPlateaus(g, Options{Weights: store})

	disabled := NewEngine(1)
	disabled.SetCache(0)
	router := NewRouter(disabled, []Planner{pl}, store)
	router.Alternatives(0, graph.NodeID(g.NumNodes()-1))
	router.Alternatives(0, graph.NodeID(g.NumNodes()-1))
	if hits, misses := disabled.CacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("explicitly disabled cache served traffic: %d hits / %d misses", hits, misses)
	}

	fresh := NewEngine(1)
	router.SetEngine(fresh) // never configured: gets the default cache
	router.Alternatives(0, graph.NodeID(g.NumNodes()-1))
	if _, misses := fresh.CacheStats(); misses == 0 {
		t.Fatal("unconfigured engine did not get the router's default cache")
	}
}

// plainPlanner strips the VersionedPlanner interface off a planner.
type plainPlanner struct{ inner *Plateaus }

func (p plainPlanner) Name() string { return "plain" }
func (p plainPlanner) Alternatives(s, t graph.NodeID) ([]path.Path, error) {
	return p.inner.Alternatives(s, t)
}

// --- Double-buffered CH swap ------------------------------------------------

// TestCHSwapServesOldThenNew publishes a uniformly scaled snapshot (which
// re-customization handles exactly) and verifies that (a) queries before
// Sync never fail or block on the rebuild, and (b) after Sync the planner
// serves the new version with route sets identical to a from-scratch
// planner pinned at the new snapshot.
func TestCHSwapServesOldThenNew(t *testing.T) {
	g := randomRoadNetwork(21, 150)
	store := weights.NewStore(g.BaseWeights())
	pl := NewPlateaus(g, Options{TreeBackend: TreeCH, Weights: store})
	router := NewRouter(NewEngine(2), []Planner{pl}, store)

	s, dst, _ := banFastestRoute(t, g, pl, 13)

	scaled := make([]float64, len(g.BaseWeights()))
	for i, w := range g.BaseWeights() {
		scaled[i] = 1.5 * w
	}
	store.Publish(scaled)
	// Mid-swap: the query must answer immediately under *some* version.
	routes, ver, err := pl.AlternativesVersioned(s, dst)
	if err != nil || len(routes) == 0 {
		t.Fatalf("mid-swap query failed: %v", err)
	}
	if ver != 1 && ver != 2 {
		t.Fatalf("mid-swap version = %d, want 1 or 2", ver)
	}

	router.Sync()
	if v := pl.WeightsVersion(); v != 2 {
		t.Fatalf("post-sync version = %d, want 2", v)
	}
	fresh := NewPlateaus(g, Options{TreeBackend: TreeCH, Weights: weights.Pin(scaled)})
	comparePlannersExact(t, fresh, pl, g, 8, 29)
}

// --- Race smoke: publishes racing batch queries -----------------------------

// TestConcurrentPublishWithBatchQueries is the live-serving smoke test CI
// runs under -race: a rush-hour producer publishes snapshots while the
// engine answers batches across all planners and both backends. Every
// answer must be a coherent single-version result (no torn reads, no
// panics); correctness of the final state is pinned by a post-Sync
// equality check against a planner built fresh at the final snapshot.
func TestConcurrentPublishWithBatchQueries(t *testing.T) {
	g := randomRoadNetwork(31, 120)
	pubStore := weights.NewStore(g.BaseWeights())
	seq := traffic.NewSequence(g, traffic.DefaultModel(4), 8)
	privStore := weights.NewStore(seq.WeightsAt(0))

	opts := Options{Weights: pubStore}
	chOpts := Options{Weights: pubStore, TreeBackend: TreeCH}
	planners := []Planner{
		NewPlateaus(g, opts),
		NewPlateaus(g, chOpts),
		NewPrunedPlateaus(g, chOpts),
		NewDissimilarity(g, opts),
		NewPenalty(g, opts),
		NewCommercial(g, nil, Options{Weights: privStore, TreeBackend: TreeCH}),
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

	// Steady state: the Dijkstra-backed store planner must now agree
	// exactly with a fresh planner pinned at the final snapshot.
	fresh := NewPlateaus(g, Options{Weights: pubStore.Latest()})
	comparePlannersExact(t, fresh, planners[0].(*Plateaus), g, 6, 3)
	if v := planners[0].(*Plateaus).WeightsVersion(); v != pubStore.Version() {
		t.Fatalf("post-sync version %d != store version %d", v, pubStore.Version())
	}
}

// --- Cross-store swap atomicity ----------------------------------------------

// stubVersioned is a minimal versioned planner for provoking the
// mixed-version interleaving deterministically: a "live" stub swings to
// the store's latest snapshot on every call, a "laggy" stub keeps serving
// its installed version until a Sync barrier (refreshSync) lands —
// exactly the double-buffered CH planner's window, but with a swap that
// never completes on its own.
type stubVersioned struct {
	name    string
	src     *weights.Store
	lag     bool
	serving atomic.Uint64
	calls   atomic.Int64
}

func (p *stubVersioned) Name() string { return p.name }

func (p *stubVersioned) version() weights.Version {
	if !p.lag {
		return p.src.Version()
	}
	return weights.Version(p.serving.Load())
}

func (p *stubVersioned) Alternatives(s, t graph.NodeID) ([]path.Path, error) {
	routes, _, err := p.AlternativesVersioned(s, t)
	return routes, err
}

func (p *stubVersioned) AlternativesVersioned(s, t graph.NodeID) ([]path.Path, weights.Version, error) {
	p.calls.Add(1)
	return []path.Path{{}}, p.version(), nil
}

func (p *stubVersioned) WeightsVersion() weights.Version { return p.version() }
func (p *stubVersioned) servingVersion() weights.Version { return p.version() }
func (p *stubVersioned) weightsSource() weights.Source   { return p.src }
func (p *stubVersioned) refreshAsync()                   {} // the lag: background refresh never lands by itself
func (p *stubVersioned) refreshSync() {
	p.serving.Store(uint64(p.src.Version()))
}

// TestRouterResponseVersionConsistency is the regression test for the
// cross-store swap atomicity fix: a publish between two planners' swap
// points used to let one response carry adjacent versions for approaches
// on the same store. The router must detect the mix and re-run the batch
// behind a Sync barrier.
func TestRouterResponseVersionConsistency(t *testing.T) {
	store := weights.NewStore([]float64{1, 2, 3, 4})
	live := &stubVersioned{name: "live", src: store}
	laggy := &stubVersioned{name: "laggy", src: store, lag: true}
	laggy.refreshSync() // serving v1
	router := NewRouter(NewEngine(2), []Planner{live, laggy}, store)

	store.Publish([]float64{2, 3, 4, 5}) // v2; laggy keeps serving v1

	// Provoke the old interleaving at the engine layer (no consistency
	// pass there): the response mixes v2 and v1.
	mixed := router.Engine().Alternatives([]Planner{live, laggy}, 0, 1)
	if mixed[0].Version == mixed[1].Version {
		t.Fatalf("expected the provoked engine response to mix versions, got %d/%d",
			mixed[0].Version, mixed[1].Version)
	}

	// The router repairs it: one Sync + retry, and the response is
	// whole-set consistent at the latest version.
	res := router.Alternatives(0, 1)
	if res[0].Version != res[1].Version {
		t.Fatalf("router response mixes versions %d vs %d after the fix", res[0].Version, res[1].Version)
	}
	if res[0].Version != weights.Version(store.Version()) {
		t.Fatalf("consistent response at version %d, want store latest %d", res[0].Version, store.Version())
	}

	// Planners on *different* stores may legitimately differ: no retry
	// storm, the response returns at first attempt.
	other := weights.NewStore([]float64{9, 9, 9, 9})
	foreign := &stubVersioned{name: "foreign", src: other}
	router2 := NewRouter(NewEngine(2), []Planner{live, foreign}, store, other)
	store.Publish([]float64{3, 4, 5, 6})
	before := live.calls.Load()
	res2 := router2.Alternatives(0, 1)
	if res2[0].Version == res2[1].Version {
		t.Fatalf("distinct stores coincidentally at the same version breaks the test setup")
	}
	if live.calls.Load() != before+1 {
		t.Fatalf("cross-store version difference triggered retries: %d calls", live.calls.Load()-before)
	}
}

// --- Restricted-sweep selection invalidation ---------------------------------

// TestRestrictedSelectionInvalidatedOnPublish guards the RPHAST
// selection-reuse bug class: the matrix engine's cached target selection
// must not survive a weight publish. A stale selection indexes the
// superseded tree builder's arcs — loud when the ch guard catches it, a
// silently wrong sweep otherwise — so the post-swap table must equal
// Dijkstra at the new snapshot, computed on a freshly built selection.
func TestRestrictedSelectionInvalidatedOnPublish(t *testing.T) {
	g := randomRoadNetwork(17, 150)
	cases := []struct {
		name  string
		hkind HierarchyKind
		next  func(rng *rand.Rand, banned []graph.EdgeID) []float64
		ban   bool
	}{
		// Uniform scaling leaves every shortest path unchanged, so only
		// the builder-mismatch guard would catch a stale selection object
		// carried across the customization.
		{"cch-uniform", HierarchyCCH, func(_ *rand.Rand, _ []graph.EdgeID) []float64 {
			next := make([]float64, len(g.BaseWeights()))
			for i, w := range g.BaseWeights() {
				next[i] = 1.7 * w
			}
			return next
		}, false},
		// Arbitrary perturbation + closures: CCH customization stays
		// exact, and the shortest paths genuinely move.
		{"cch-perturbed-banned", HierarchyCCH, func(rng *rand.Rand, _ []graph.EdgeID) []float64 {
			next := make([]float64, len(g.BaseWeights()))
			for i, w := range g.BaseWeights() {
				next[i] = w * (0.5 + rng.Float64())
			}
			return next
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := weights.NewStore(g.BaseWeights())
			pl := NewPlateaus(g, Options{TreeBackend: TreeCH, Hierarchy: tc.hkind, Weights: store})
			router := NewRouter(NewEngine(1), []Planner{pl}, store)
			m := NewMatrixEngineFor(pl, router.Engine())
			sources := sampleNodes(g, 4, 23)
			targets := clusteredTargets(t, g, 4)

			// Prime the target selection under version 1.
			tab, err := m.Matrix(sources, targets)
			if err != nil {
				t.Fatal(err)
			}
			if !tab.Restricted {
				t.Fatalf("clustered targets ran full sweeps; the test is about cached selections")
			}
			_, _, firstRoute := banFastestRoute(t, g, pl, 23)

			rng := rand.New(rand.NewSource(55))
			if tc.ban {
				store.Ban(firstRoute[0])
			}
			store.Publish(tc.next(rng, firstRoute))
			router.Sync()

			tab, err = m.Matrix(sources, targets)
			if err != nil {
				t.Fatal(err)
			}
			if tab.Version != store.Version() {
				t.Fatalf("post-publish table at version %d, store at %d", tab.Version, store.Version())
			}
			if tab.SelectionHit {
				t.Fatal("post-publish table reused a selection cached under the previous version")
			}
			requireTableEqual(t, tab, dijkstraMatrix(g, store.Latest().Weights(), sources, targets), "post-publish")
		})
	}
}

// --- Live-traffic soak: CH trees and restricted sweeps under publish churn --

// TestLiveTrafficSoakRestrictedSweeps is the permanent safety net for the
// hierarchy backend (and every future one) under live traffic: a
// deterministic rush-hour publish loop races engine batches on TreeCH
// planners and RPHAST matrix tables on Plateaus' provider. Every planner
// answer must (a) carry a version the store actually published, (b)
// never walk an edge banned in an earlier version — the store re-applies
// the closure mask on every publish, and the hierarchies must carry it
// through each customization — and (c) never regress to an older version
// within one caller's sequence, which is exactly what a result cache
// serving a stale generation would look like. Every table must carry a
// published version, never regress, and run restricted. CI runs it under
// -race.
func TestLiveTrafficSoakRestrictedSweeps(t *testing.T) {
	g := randomRoadNetwork(61, 140)
	pubStore := weights.NewStore(g.BaseWeights())
	seq := traffic.NewSequence(g, traffic.DefaultModel(7), 8)
	privStore := weights.NewStore(seq.WeightsAt(0))

	plateaus := NewPlateaus(g, Options{Weights: pubStore, TreeBackend: TreeCH, Hierarchy: HierarchyCCH})
	planners := []Planner{
		plateaus,
		NewPrunedPlateaus(g, Options{Weights: pubStore, TreeBackend: TreeCH, Hierarchy: HierarchyCCH}),
		NewDissimilarity(g, Options{Weights: pubStore}),
		NewCommercial(g, nil, Options{Weights: privStore, TreeBackend: TreeCH, Hierarchy: HierarchyCCH}),
		// Shares plateaus' provider: its queries race the same views and
		// background customizations.
		NewDissimilarityFor(plateaus),
	}
	storeOf := map[Planner]*weights.Store{
		planners[0]: pubStore, planners[1]: pubStore, planners[2]: pubStore, planners[3]: privStore,
		planners[4]: pubStore,
	}
	engine := NewEngine(4)
	router := NewRouter(engine, planners, pubStore, privStore)
	matrix := NewMatrixEngineFor(plateaus, engine)
	mSources := sampleNodes(g, 3, 61)
	mTargets := clusteredTargets(t, g, 3)

	// Close the fastest route's edges on both metrics before the churn
	// starts: every raced answer is computed at a post-ban version and
	// must treat them as walls throughout the publish sequence.
	s0, t0, banned := banFastestRoute(t, g, planners[0], 3)
	_ = s0
	_ = t0
	pubStore.Ban(banned...)
	privStore.Ban(banned...)
	router.Sync()
	isBanned := make(map[graph.EdgeID]bool, len(banned))
	for _, e := range banned {
		isBanned[e] = true
	}

	const publishes = 6
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := make([]float64, len(g.BaseWeights()))
		rng := rand.New(rand.NewSource(8))
		for i := 0; i < publishes; i++ {
			seq.Advance(privStore)
			for j, w := range g.BaseWeights() {
				next[j] = w * (1 + 0.3*rng.Float64())
			}
			pubStore.Publish(next)
		}
	}()

	var qwg sync.WaitGroup
	qwg.Add(1)
	go func() { // matrix tables on the shared provider
		defer qwg.Done()
		var last weights.Version
		for round := 0; round < 8; round++ {
			tab, err := matrix.Matrix(mSources, mTargets)
			if err != nil {
				t.Errorf("matrix under churn: %v", err)
				return
			}
			if tab.Version < 2 || tab.Version > pubStore.Version() || tab.Version < last {
				t.Errorf("matrix table at version %d (previous %d, store at %d)", tab.Version, last, pubStore.Version())
			}
			last = tab.Version
			if !tab.Restricted {
				t.Errorf("clustered matrix table ran full sweeps at version %d", tab.Version)
			}
		}
	}()
	for worker := 0; worker < 3; worker++ {
		qwg.Add(1)
		go func(seed int64) {
			defer qwg.Done()
			rng := rand.New(rand.NewSource(seed))
			lastSeen := make(map[Planner]weights.Version, len(planners))
			for round := 0; round < 8; round++ {
				s := graph.NodeID(rng.Intn(g.NumNodes()))
				dst := graph.NodeID(rng.Intn(g.NumNodes()))
				jobs := make([]Job, 0, len(planners))
				for _, pl := range planners {
					jobs = append(jobs, Job{Planner: pl, S: s, T: dst})
				}
				for i, r := range router.AlternativesBatch(jobs) {
					pl := planners[i]
					if r.Err != nil {
						if r.Err != ErrNoRoute {
							t.Errorf("%s under churn: %v", pl.Name(), r.Err)
						}
						continue
					}
					// (a) the version was actually published by this
					// planner's store (versions are dense 1..latest).
					if r.Version < 2 || r.Version > storeOf[pl].Version() {
						t.Errorf("%s answered at unpublished version %d (store at %d)",
							pl.Name(), r.Version, storeOf[pl].Version())
					}
					// (c) no caller ever observes a planner going back in
					// time — the stale-cache-generation signature.
					if r.Version < lastSeen[pl] {
						t.Errorf("%s regressed from version %d to %d (stale cache generation?)",
							pl.Name(), lastSeen[pl], r.Version)
					}
					lastSeen[pl] = r.Version
					// (b) bans from version 2 stay impassable forever.
					for ri, route := range r.Routes {
						if math.IsInf(route.TimeS, 1) {
							t.Errorf("%s route %d has infinite travel time", pl.Name(), ri)
						}
						for _, e := range route.Edges {
							if isBanned[e] {
								t.Errorf("%s route %d uses banned edge %d at version %d",
									pl.Name(), ri, e, r.Version)
							}
						}
					}
				}
			}
		}(int64(worker + 1))
	}
	qwg.Wait()
	wg.Wait()
	router.Sync()

	// Steady state: the hierarchy planners agree byte-for-byte with fresh
	// Dijkstra planners pinned at the final snapshot, and the matrix
	// engine with Dijkstra trees.
	fresh := NewPlateaus(g, Options{Weights: pubStore.Latest()})
	comparePlannersExact(t, fresh, plateaus, g, 6, 13)
	comparePlannersExact(t, NewDissimilarity(g, Options{Weights: pubStore.Latest()}), planners[4], g, 6, 13)
	tab, err := matrix.Matrix(mSources, mTargets)
	if err != nil {
		t.Fatal(err)
	}
	requireTableEqual(t, tab, dijkstraMatrix(g, pubStore.Latest().Weights(), mSources, mTargets), "steady-state matrix")
	if v := plateaus.WeightsVersion(); v != pubStore.Version() {
		t.Fatalf("post-sync version %d != store version %d", v, pubStore.Version())
	}
}
