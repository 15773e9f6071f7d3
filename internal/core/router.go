package core

import (
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/weights"
)

// DefaultCacheSize is the result-cache capacity a Router installs on its
// engine when the engine has none: roomy enough for the hot query set of
// one demo city between publishes, small enough to be irrelevant next to
// the graph itself.
const DefaultCacheSize = 4096

// Router is the live-traffic serving layer: it owns a planner set, the
// weight stores they plan on, and the engine that answers queries. It
// subscribes to every store, so a publish
//
//  1. evicts the stale generations of the engine's versioned result
//     cache (keeping what double-buffered planners still serve), and
//  2. kicks background re-customization in every planner that derives
//     per-version state (the CH hierarchies of TreeCH planners),
//
// after which each planner's view swings to the new version by an atomic
// pointer swap — old state keeps serving until its replacement is ready,
// so an *individual planner query* never blocks on a rebuild.
//
// Swap granularity is per planner, but *responses* are version-
// consistent: Alternatives and AlternativesBatch check that every planner
// resolving the same weight store answered under the same snapshot
// version, and when a publish lands mid-response (a double-buffered
// planner still serving version N while a direct resolver already swung
// to N+1), the router syncs the planner set and re-runs the batch — the
// versioned result cache makes the repeated jobs nearly free. A response
// therefore never mixes adjacent versions between approaches. The price
// is deliberate: a fanned-out response arriving inside a publish window
// waits out the in-flight customization (Sync) instead of returning a
// mixed set — bounded by versionRetries, after which the final round's
// answers are returned as-is under adversarial publish churn, each still
// internally single-version with its version in Result.Version. Sync
// remains the explicit barrier for callers that additionally need the
// *latest* version.
type Router struct {
	engine   atomic.Pointer[Engine]
	planners []Planner
	stores   []*weights.Store
	// metrics is the installed instrument bundle (nil: none); kept so a
	// SetEngine swap inherits it like the cache.
	metrics atomic.Pointer[Metrics]
}

// versionRetries bounds the response-consistency loop: how many times a
// mixed-version batch is re-run (after a Sync barrier) before the last
// round is returned as-is. One retry suffices whenever publishes pause
// long enough for a Sync to complete — the steady state of any real
// traffic feed.
const versionRetries = 3

// NewRouter wires the serving layer together. A nil engine gets a fresh
// default-sized one; an engine whose owner never called SetCache gets a
// DefaultCacheSize cache (an explicit SetCache(0) is honoured). The
// router subscribes to the given stores — every store a planner resolves
// from should be listed, or its publishes won't trigger invalidation and
// re-customization.
func NewRouter(engine *Engine, planners []Planner, stores ...*weights.Store) *Router {
	if engine == nil {
		engine = NewEngine(0)
	}
	if !engine.cacheSet.Load() {
		engine.SetCache(DefaultCacheSize)
	}
	r := &Router{
		planners: append([]Planner(nil), planners...),
		stores:   stores,
	}
	r.engine.Store(engine)
	for _, st := range stores {
		st.Subscribe(func(*weights.Snapshot) { r.onPublish() })
	}
	return r
}

// Engine returns the engine currently answering this router's queries.
func (r *Router) Engine() *Engine { return r.engine.Load() }

// SetEngine swaps the serving engine (a deployment sharing one worker
// pool across cities installs it here). The new engine inherits cache
// duty: it gets a DefaultCacheSize cache unless its owner already called
// SetCache (including SetCache(0) to run uncached).
func (r *Router) SetEngine(e *Engine) {
	if !e.cacheSet.Load() {
		e.SetCache(DefaultCacheSize)
	}
	e.SetMetrics(r.metrics.Load(), r.planners...)
	r.engine.Store(e)
}

// SetMetrics installs the instrument bundle across the whole serving
// layer: the engine records query latency and cache traffic, and every
// provider-backed planner sinks its customization-latency and
// selection-size observers. Nil uninstalls. Call once at wiring time
// (typically right after NewRouter); installs race benignly with serving
// queries — an in-flight query simply records under whichever bundle it
// loaded first.
func (r *Router) SetMetrics(m *Metrics) {
	r.metrics.Store(m)
	// Registered per planner: an engine shared by several cities keeps
	// attributing each query to the city whose planner ran it.
	r.Engine().SetMetrics(m, r.planners...)
	for _, p := range r.planners {
		if ms, ok := p.(metricsSetter); ok {
			ms.setMetrics(m)
		}
	}
}

// Planners returns the planner set, in registration order.
func (r *Router) Planners() []Planner { return r.planners }

// Stores returns the weight stores the router is subscribed to.
func (r *Router) Stores() []*weights.Store { return r.stores }

// Alternatives answers one query with every planner concurrently. The
// response is version-consistent across planners sharing a weight store
// (see the type comment).
func (r *Router) Alternatives(s, t graph.NodeID) []Result {
	jobs := make([]Job, len(r.planners))
	for i, pl := range r.planners {
		jobs[i] = Job{Planner: pl, S: s, T: t}
	}
	return r.AlternativesBatch(jobs)
}

// AlternativesBatch fans an arbitrary job batch out over the engine,
// re-running it behind a Sync barrier while planners on a shared store
// disagree on the version they answered under (bounded by
// versionRetries).
func (r *Router) AlternativesBatch(jobs []Job) []Result {
	results := r.Engine().AlternativesBatch(jobs)
	for attempt := 0; attempt < versionRetries && mixedVersions(jobs, results); attempt++ {
		r.Sync()
		results = r.Engine().AlternativesBatch(jobs)
	}
	return results
}

// mixedVersions reports whether two answers of one batch were computed
// under different snapshot versions of the *same* weight source. Planners
// on distinct sources (the Commercial provider's private traffic metric
// vs the public metric) legitimately report different versions; answers
// without a version (unversioned planners, panicked jobs) are exempt.
func mixedVersions(jobs []Job, results []Result) bool {
	var seen map[weights.Source]weights.Version
	for i := range jobs {
		if results[i].Version == 0 {
			continue
		}
		sp, ok := jobs[i].Planner.(sourced)
		if !ok {
			continue
		}
		src := sp.weightsSource()
		if src == nil {
			continue
		}
		if seen == nil {
			seen = make(map[weights.Source]weights.Version, len(jobs))
		}
		if v, dup := seen[src]; dup {
			if v != results[i].Version {
				return true
			}
		} else {
			seen[src] = results[i].Version
		}
	}
	return false
}

// onPublish is the store subscription hook. It must not block the
// publisher: cache eviction is one O(entries) map sweep, and planner
// refreshes only CAS a flag and spawn (at most one) rebuild goroutine.
//
// Eviction is per store generation, not a wholesale clear: each planner
// drops only the cache entries older than the version it is *currently
// serving* (read passively — never nudging a rebuild from the publish
// path). A double-buffered CH planner therefore keeps its
// previous-version entries hot until its background customization swaps;
// planners that resolve the store directly swing to the new version
// immediately, so their floor is the fresh latest and their stale
// generations go at once. Entries of a superseded generation linger at
// most until the next publish and are bounded by the cache capacity.
func (r *Router) onPublish() {
	floors := make(map[Planner]weights.Version, len(r.planners))
	for _, p := range r.planners {
		if vp, ok := p.(VersionedPlanner); ok {
			floors[p] = servingVersionOf(vp)
		}
	}
	r.Engine().EvictCacheStale(floors)
	for _, p := range r.planners {
		if rf, ok := p.(refresher); ok {
			rf.refreshAsync()
		}
	}
}

// servingVersionOf reads the version a planner currently serves without
// triggering rebuilds: the passive servingVersioned hook when available,
// else WeightsVersion (which for direct store resolvers is a cheap atomic
// load of the latest snapshot).
func servingVersionOf(vp VersionedPlanner) weights.Version {
	if sv, ok := vp.(servingVersioned); ok {
		return sv.servingVersion()
	}
	return vp.WeightsVersion()
}

// Sync blocks until every planner serves its source's latest snapshot —
// the barrier behind deterministic tests and maintenance endpoints that
// must observe a completed swap.
func (r *Router) Sync() {
	for _, p := range r.planners {
		if rf, ok := p.(refresher); ok {
			rf.refreshSync()
		}
	}
}

// Versions reports, per planner, the weight version currently serving (0
// for planners without version tracking) — the observability hook the
// demo server logs per query.
func (r *Router) Versions() []weights.Version {
	out := make([]weights.Version, len(r.planners))
	for i, p := range r.planners {
		if vp, ok := p.(VersionedPlanner); ok {
			out[i] = vp.WeightsVersion()
		}
	}
	return out
}

// ServingVersions reports, per planner, the weight version currently
// *installed*, read passively — unlike Versions it never nudges a
// rebuild, so it is safe on scrape paths that must not perturb serving
// (the /metrics collectors call it on every scrape). Planners without
// version tracking report 0.
func (r *Router) ServingVersions() []weights.Version {
	out := make([]weights.Version, len(r.planners))
	for i, p := range r.planners {
		if vp, ok := p.(VersionedPlanner); ok {
			out[i] = servingVersionOf(vp)
		}
	}
	return out
}

// hierarchyReporter is implemented by planners backed by a hierarchy
// provider (the choice-routing planners on TreeCH). Dissimilarity does
// not implement it, so the provider it shares with Plateaus
// (NewDissimilarityFor) is reported once; a standalone Dissimilarity's
// hierarchy goes unreported.
type hierarchyReporter interface {
	HierarchyStatus() HierarchyStatus
}

// HierarchyStatuses reports, per planner, the hierarchy kind currently
// answering and its most recent customization latency (zero-value entries
// for planners without a hierarchy backend) — the second observability
// hook behind the demo server's per-query log line.
func (r *Router) HierarchyStatuses() []HierarchyStatus {
	out := make([]HierarchyStatus, len(r.planners))
	for i, p := range r.planners {
		if hr, ok := p.(hierarchyReporter); ok {
			out[i] = hr.HierarchyStatus()
		}
	}
	return out
}
