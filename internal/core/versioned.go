package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cch"
	"repro/internal/ch"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/path"
	"repro/internal/spatial"
	"repro/internal/weights"
)

// VersionedPlanner is a Planner that resolves its weights from a
// weights.Source per query and can report which snapshot version an
// answer was computed under. Every planner in this package implements it;
// the engine's result cache requires it (an unversioned planner's answers
// cannot be keyed, so they are never cached).
type VersionedPlanner interface {
	Planner
	// WeightsVersion returns the version the next query would plan on.
	// For a CH-backed planner mid-swap this is the version of the
	// hierarchy currently serving, which may trail the source's latest
	// until background re-customization completes.
	WeightsVersion() weights.Version
	// AlternativesVersioned is Alternatives plus the snapshot version the
	// routes were computed under.
	AlternativesVersioned(s, t graph.NodeID) ([]path.Path, weights.Version, error)
}

// refresher is implemented by planners that derive per-version state
// (contraction hierarchies, pruning bounds) from their weight source. The
// Router uses it to start background re-customization on publish and to
// block until every planner serves the latest version.
type refresher interface {
	refreshAsync()
	refreshSync()
}

// sourced exposes the weight source a planner resolves its queries from.
// The Router's response-consistency pass groups a batch's answers by
// source: two planners on the same source must answer one fanned-out
// response under the same snapshot version. Every versioned planner in
// this package implements it.
type sourced interface {
	weightsSource() weights.Source
}

// servingVersioned is the passive counterpart of WeightsVersion: the
// version currently *installed*, read without nudging any rebuild. The
// Router's publish path uses it to decide which cache generations are
// still live — it must never trigger the synchronous rebuild a
// WeightsVersion call can imply for cheap backends.
type servingVersioned interface {
	servingVersion() weights.Version
}

// view is one fully resolved weight version: the snapshot itself plus
// whatever per-version state the planner's tree backend needs. Views are
// immutable once installed; a query resolves exactly one view and uses it
// for everything (trees, plateau costs, admission bounds), so its answer
// is consistent under a single snapshot even while publishes race.
type view struct {
	snap  *weights.Snapshot
	trees TreeSource
	// hier is kept for the TreeCH backend so the next version can be
	// customized — a weights-only triangle relaxation on the frozen
	// contraction — instead of contracted from scratch.
	hier *ch.Runtime
	// sels is the version's matrix target-selection state (TreeCH only).
	sels *selections
	// pruned is the undecorated elliptic source (when the backend uses
	// one), kept so the next version can share its minimum-speed scan.
	pruned *prunedTrees
}

// provider resolves a weights.Source into views, caching the current one
// behind an atomic pointer. Cheap backends (Dijkstra, pruned) rebuild
// synchronously on the first query that sees a new version; the CH
// backend is double-buffered: the stale view keeps serving while a single
// background goroutine re-customizes the hierarchy, and the pointer swap
// is atomic.
type provider struct {
	g       *graph.Graph
	src     weights.Source
	backend TreeBackend
	hkind   HierarchyKind // basic or perfect customization behind TreeCH
	// order selects the nested-dissection pipeline of the CCH contraction
	// (geometric or flow-refined separators). Baked into the shared
	// preprocessing at first build.
	order OrderKind
	// query selects the CCH point-to-point engine (elimination-tree
	// ascents by default). Carried into the hierarchy's customize hook,
	// so every later re-customization inherits it.
	query      QueryEngine
	pruned     bool    // elliptic pruning (ignored on TreeCH)
	upperBound float64 // pruning budget
	needTrees  bool    // planners without a tree seam skip tree state
	// wrap optionally decorates each version's tree source (the counting
	// instrumentation of PrunedPlateaus).
	wrap func(TreeSource) TreeSource
	// selCacheBytes is the per-version selection-cache byte budget
	// (selectionCacheBytes; tests shrink it to drive eviction).
	selCacheBytes int
	// grid is the spatial quantization shared by every weight version's
	// selections — geometry only, so it never goes stale. Nil off the
	// hierarchy backend.
	grid *spatial.Index

	cur      atomic.Pointer[view]
	mu       sync.Mutex  // serializes rebuilds
	inflight atomic.Bool // coalesces concurrent async refreshes
	// lastCustomize is the wall time (ns) of the most recent hierarchy
	// build or customization — the per-swap latency the server logs.
	lastCustomize atomic.Int64
	// selStats is the selection observability shared across weight
	// versions (nil off the hierarchy backend).
	selStats *selectionStats
	// custObs, when set, receives the wall-clock seconds of every
	// hierarchy build/customization (the per-planner histogram installed
	// by Router.SetMetrics).
	custObs atomic.Pointer[metrics.Histogram]

	// Query-engine counters accumulated from superseded hierarchies. Each
	// customized runtime starts its QueryStats at zero (ch.WithElimTree
	// allocates fresh counters), so reading them off the current view alone
	// made ElimQueries/ElimTruncated/ElimAscentNodes drop to zero on every
	// publish swap. Instead the swap folds the outgoing view's counters
	// into acc* and status reports acc + current view. accGen is a seqlock
	// generation (odd while a fold+swap is in flight): hierarchyStatus
	// retries until it observes a stable generation, so it never pairs a
	// pre-fold accumulator with a post-swap (zeroed) runtime — the read
	// that would make the counters go backwards. The fields are atomics
	// only so the racing reads are well-defined; writers already serialize
	// under p.mu.
	accGen         atomic.Uint64
	accQueries     atomic.Uint64
	accTruncated   atomic.Uint64
	accAscentNodes atomic.Uint64
}

// newProvider builds the resolver and synchronously installs the view of
// the source's current snapshot, so construction keeps its pre-refactor
// meaning: a TreeCH planner leaves its constructor with a ready hierarchy.
// The backend/hierarchy/order/query/bound knobs come from opts; a
// nil src pins the graph's own base weights (note the Commercial planner
// passes its private metric here, not opts.Weights).
func newProvider(g *graph.Graph, src weights.Source, needTrees, pruned bool, wrap func(TreeSource) TreeSource, opts Options) *provider {
	if src == nil {
		src = weights.Pin(g.BaseWeights())
	}
	p := &provider{
		g:             g,
		src:           src,
		backend:       opts.TreeBackend,
		hkind:         opts.Hierarchy,
		order:         opts.Order,
		query:         opts.Query,
		pruned:        pruned,
		upperBound:    opts.UpperBound,
		needTrees:     needTrees,
		wrap:          wrap,
		selCacheBytes: selectionCacheBytes,
	}
	if needTrees && opts.TreeBackend.usesHierarchy() {
		p.selStats = &selectionStats{}
		p.grid = spatial.NewIndex(g, 0)
	}
	p.refreshSync()
	return p
}

// view resolves the view a query should run on. When the source has moved
// past the installed view, Dijkstra-style backends rebuild inline (their
// per-version state is a few cheap scans); the CH backend kicks a
// background customization and keeps serving the installed view — the
// double-buffer half of the live-swap design.
func (p *provider) view() *view {
	cur := p.cur.Load()
	snap := p.src.Snapshot()
	if cur != nil && cur.snap.Version() >= snap.Version() {
		return cur
	}
	if cur == nil || !p.backend.usesHierarchy() || !p.needTrees {
		return p.rebuildTo(snap)
	}
	p.refreshAsync()
	return cur
}

// weightsVersion reports the serving view's version without forcing a
// rebuild (but nudging one along if the source has moved).
func (p *provider) weightsVersion() weights.Version {
	return p.view().snap.Version()
}

// servingVersion reports the installed view's version without touching
// the source at all — the publish-path read behind per-generation cache
// eviction.
func (p *provider) servingVersion() weights.Version {
	if v := p.cur.Load(); v != nil {
		return v.snap.Version()
	}
	return 0
}

// hierarchyStatus reports the serving hierarchy kind and the latency of
// the most recent (re)customization; zero when the backend runs no
// hierarchy.
func (p *provider) hierarchyStatus() HierarchyStatus {
	if !p.backend.usesHierarchy() || !p.needTrees {
		return HierarchyStatus{}
	}
	st := HierarchyStatus{LastCustomize: time.Duration(p.lastCustomize.Load())}
	// Seqlock read of the accumulated + current-runtime query counters:
	// retry while a swap's fold is in flight or completed underneath us,
	// so the sum is always taken against one consistent (acc, view) pair
	// and stays monotone across publishes. Never takes p.mu — a rebuild
	// can hold it for seconds.
	var v *view
	var qs ch.QueryStats
	var accQ, accT, accA uint64
	for {
		g1 := p.accGen.Load()
		if g1&1 != 0 {
			runtime.Gosched()
			continue
		}
		accQ, accT, accA = p.accQueries.Load(), p.accTruncated.Load(), p.accAscentNodes.Load()
		qs = ch.QueryStats{}
		v = p.cur.Load()
		if v != nil && v.hier != nil {
			qs = v.hier.QueryStats()
		}
		if p.accGen.Load() == g1 {
			break
		}
	}
	if v != nil && v.hier != nil {
		st.Kind = v.hier.Kind()
		st.Order = p.order.String()
	}
	st.LastQueryEngine = qs.Engine
	st.ElimQueries = accQ + qs.Queries
	st.ElimTruncated = accT + qs.Truncated
	st.ElimAscentNodes = accA + qs.AscentNodes
	st.LastAscent = qs.LastAscent
	st.SelectionHits = p.selStats.selHits.Load()
	st.SelectionMisses = p.selStats.selMisses.Load()
	st.SelectionEvictions = p.selStats.selEvictions.Load()
	return st
}

// setMetrics sinks the provider-relevant observers of a bundle: the
// planner's customization histogram and, on the hierarchy backend, the
// selection-size histogram. A nil bundle clears both.
func (p *provider) setMetrics(cust, sel *metrics.Histogram) {
	p.custObs.Store(cust)
	if p.selStats != nil {
		p.selStats.selObs.Store(sel)
	}
}

// rebuildTo synchronously installs a view for at least the given
// snapshot's version. Concurrent callers coalesce: whoever takes the lock
// first builds, the rest observe the result.
func (p *provider) rebuildTo(snap *weights.Snapshot) *view {
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := p.cur.Load()
	if cur != nil && cur.snap.Version() >= snap.Version() {
		return cur
	}
	v := p.buildView(snap, cur)
	p.installView(v, cur)
	return v
}

// installView swings the view pointer, folding the outgoing runtime's
// query counters into the provider accumulators first so
// hierarchyStatus stays monotone across the swap. The odd/even accGen
// window makes fold+swap atomic for seqlock readers; it spans only this
// function (buildView runs outside it), so readers spin briefly at
// worst. Queries still draining on the old view after the fold add to
// counters nobody reads again — a bounded undercount, never a
// backwards step. Caller holds p.mu.
func (p *provider) installView(v, old *view) {
	p.accGen.Add(1)
	if old != nil && old.hier != nil {
		qs := old.hier.QueryStats()
		p.accQueries.Add(qs.Queries)
		p.accTruncated.Add(qs.Truncated)
		p.accAscentNodes.Add(qs.AscentNodes)
	}
	p.cur.Store(v)
	p.accGen.Add(1)
}

// refreshAsync starts (at most one) background rebuild toward the
// source's latest snapshot. Queries keep resolving the old view until the
// atomic swap; a publish arriving mid-rebuild is picked up by the next
// query's view() call, so the provider converges without a scheduler.
func (p *provider) refreshAsync() {
	if !p.inflight.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer p.inflight.Store(false)
		p.rebuildTo(p.src.Snapshot())
	}()
}

// refreshSync blocks until the provider serves the source's latest
// snapshot — the Router's barrier for tests and deterministic swaps.
func (p *provider) refreshSync() {
	p.rebuildTo(p.src.Snapshot())
}

// buildView constructs the per-version state. For TreeCH, prev's
// hierarchy (when available) is customized — the always-exact triangle
// relaxation on the frozen contraction — instead of contracting from
// scratch. For the elliptic backend, prev's
// minimum-speed scan is shared when the snapshot's delta proves it still
// valid.
func (p *provider) buildView(snap *weights.Snapshot, prev *view) *view {
	v := &view{snap: snap}
	if !p.needTrees {
		return v
	}
	w := snap.Weights()
	switch {
	case p.backend.usesHierarchy():
		start := time.Now()
		if prev != nil && prev.hier != nil {
			// The customize hook closes over the original Config, so the
			// perfect/query choices survive every re-customization.
			v.hier = prev.hier.Customize(w)
		} else {
			v.hier = cch.BuildWith(p.g, w, cch.Config{
				Order:      cch.OrderConfig{Kind: p.order},
				Perfect:    p.hkind == HierarchyCCHPerfect,
				BidirQuery: p.query == QueryBidij,
			})
		}
		tb := v.hier.NewTreeBuilder()
		v.trees = chTrees{tb: tb}
		// Fresh selections per version: a cached selection indexes this
		// tree builder's arcs and must never survive a weight swap.
		v.sels = newSelections(p.g, tb, p.grid, p.selStats, p.selCacheBytes)
		elapsed := time.Since(start)
		p.lastCustomize.Store(int64(elapsed))
		if h := p.custObs.Load(); h != nil {
			h.Observe(elapsed.Seconds())
		}
	case p.pruned:
		var prevPruned *prunedTrees
		var prevSnap *weights.Snapshot
		if prev != nil {
			prevPruned, prevSnap = prev.pruned, prev.snap
		}
		v.pruned = newPrunedTreesFrom(p.g, snap, p.upperBound, prevPruned, prevSnap)
		v.trees = v.pruned
	default:
		v.trees = dijkstraTrees{g: p.g, weights: w}
	}
	if p.wrap != nil {
		v.trees = p.wrap(v.trees)
	}
	return v
}
