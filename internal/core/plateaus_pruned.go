package core

import (
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/weights"
)

// PrunedPlateaus is the §II-B "compatibility with routing optimisations"
// variant of the Plateaus planner: instead of two full Dijkstra trees it
// builds elliptically pruned trees that only explore nodes able to lie on
// a route within UpperBound × the fastest travel time. As the paper
// argues, such trees "must still cover all feasible routes... and so when
// they are combined, they still yield the same choice routes" — which the
// test suite verifies against the full-tree planner.
//
// With Options.TreeBackend == TreeCH the planner instead builds full
// PHAST trees from a contraction hierarchy (pruning is moot there: the
// downward sweep is already near-linear), keeping the same instrumented
// interface. The exploration counters are atomics shared by every weight
// version's tree source, so the planner is safe under core.Engine workers
// and across live snapshot swaps.
type PrunedPlateaus struct {
	inner  *Plateaus
	counts *treeCounts
}

// NewPrunedPlateaus returns the pruned-tree plateau planner.
func NewPrunedPlateaus(g *graph.Graph, opts Options) *PrunedPlateaus {
	counts := &treeCounts{}
	wrap := func(src TreeSource) TreeSource { return &countingTrees{src: src, counts: counts} }
	pruned := !opts.withDefaults().TreeBackend.usesHierarchy()
	return &PrunedPlateaus{
		inner:  newPlateaus(g, opts, pruned, wrap),
		counts: counts,
	}
}

// Name implements Planner.
func (p *PrunedPlateaus) Name() string { return "Plateaus(pruned)" }

// WeightsVersion implements VersionedPlanner.
func (p *PrunedPlateaus) WeightsVersion() weights.Version { return p.inner.WeightsVersion() }

func (p *PrunedPlateaus) refreshAsync() { p.inner.refreshAsync() }
func (p *PrunedPlateaus) refreshSync()  { p.inner.refreshSync() }

func (p *PrunedPlateaus) servingVersion() weights.Version { return p.inner.servingVersion() }

func (p *PrunedPlateaus) weightsSource() weights.Source { return p.inner.weightsSource() }

// HierarchyStatus reports the hierarchy serving this planner and
// its last customization latency (zero off the TreeCH backend).
func (p *PrunedPlateaus) HierarchyStatus() HierarchyStatus { return p.inner.HierarchyStatus() }

// setMetrics sinks the observers under this planner's own name (not the
// inner Plateaus', which may also be serving separately).
func (p *PrunedPlateaus) setMetrics(m *Metrics) {
	p.inner.prov.setMetrics(m.customizeObserver(p.Name()), m.selectionObserver())
}

// Alternatives implements Planner.
func (p *PrunedPlateaus) Alternatives(s, t graph.NodeID) ([]path.Path, error) {
	return p.inner.Alternatives(s, t)
}

// AlternativesVersioned implements VersionedPlanner.
func (p *PrunedPlateaus) AlternativesVersioned(s, t graph.NodeID) ([]path.Path, weights.Version, error) {
	return p.inner.AlternativesVersioned(s, t)
}

// treeCounts is the concurrency-safe exploration instrumentation shared
// by all of a planner's per-version tree sources.
type treeCounts struct {
	lastFwd, lastBwd atomic.Int64
}

// LastReached reports how many nodes the most recent query's forward and
// backward trees explored — instrumentation for tests and the chspeedup
// example. Under concurrent use the values reflect some recent query
// (each query's counts are stored atomically; the last writer wins).
func (p *PrunedPlateaus) LastReached() (fwd, bwd int) {
	return int(p.counts.lastFwd.Load()), int(p.counts.lastBwd.Load())
}
