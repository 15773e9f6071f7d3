package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cch"
	"repro/internal/ch"
	"repro/internal/graph"
	"repro/internal/sp"
	"repro/internal/weights"
)

// TreeBackend selects how the tree-based planners (Plateaus, Commercial,
// PrunedPlateaus, Dissimilarity) obtain the forward/backward
// shortest-path trees their plateau join or via-node scan consumes.
// Penalty ignores it: each of its iterations searches different weights.
type TreeBackend uint8

const (
	// TreeDijkstra builds trees with full Dijkstra searches, the paper's
	// baseline description of Choice Routing and the oracle every fast
	// path is tested against.
	TreeDijkstra TreeBackend = iota
	// TreeCH builds trees from a customizable contraction hierarchy with
	// full PHAST downward sweeps (ch.TreeBuilder) — the §II-B optimisation
	// commercial engines apply. Trees are bit-compatible drop-ins for
	// Dijkstra trees; the hierarchy is preprocessed once at planner
	// construction and re-customized on every publish. The matrix engine
	// on the same provider runs RPHAST restricted sweeps over cached
	// target selections (see MatrixEngine).
	TreeCH
)

// RestrictedAutoFraction is the matrix engine's RPHAST cutover: a table
// runs restricted sweeps while its target cells hold at most this
// fraction of the graph's nodes, full PHAST sweeps beyond it.
const RestrictedAutoFraction = 0.25

// ParseTreeBackend maps the shared command-line flag spelling onto a
// TreeBackend: "dijkstra" or "ch". The retired spellings "ch-restricted",
// "rphast", "ch-auto" and "auto" still parse, as "ch".
func ParseTreeBackend(s string) (TreeBackend, error) {
	switch s {
	case "dijkstra":
		return TreeDijkstra, nil
	case "ch", "ch-restricted", "rphast", "ch-auto", "auto":
		return TreeCH, nil
	}
	return 0, fmt.Errorf("core: invalid tree backend %q (want dijkstra or ch)", s)
}

// String implements fmt.Stringer.
func (b TreeBackend) String() string {
	if b == TreeCH {
		return "ch"
	}
	return "dijkstra"
}

// usesHierarchy reports whether the backend preprocesses a contraction
// hierarchy (and therefore double-buffers weight swaps instead of
// resolving snapshots inline).
func (b TreeBackend) usesHierarchy() bool { return b == TreeCH }

// HierarchyKind selects how the customizable contraction hierarchy behind
// the TreeCH backend is customized on every publish. Both kinds compile
// to the same ch.Runtime, so every consumer downstream of preprocessing is
// identical.
type HierarchyKind uint8

const (
	// HierarchyCCH (the default) is the customizable hierarchy
	// (cch.Build): metric-independent contraction on a nested-dissection
	// order with no witness pruning, customized by triangle relaxation —
	// exact for any published snapshot, including +Inf closures.
	HierarchyCCH HierarchyKind = iota
	// HierarchyCCHPerfect is HierarchyCCH with the perfect-customization
	// post-pass: each publish additionally proves which shortcut arcs are
	// strictly dominated under the snapshot's metric and marks them
	// inert, so queries and tree sweeps skip them. Same routes, costlier
	// customization, cheaper everything after.
	HierarchyCCHPerfect
)

// ParseHierarchyKind maps the shared command-line flag spelling ("cch"
// or "cch-perfect") onto a HierarchyKind.
func ParseHierarchyKind(s string) (HierarchyKind, error) {
	switch s {
	case "cch":
		return HierarchyCCH, nil
	case "cch-perfect":
		return HierarchyCCHPerfect, nil
	}
	return 0, fmt.Errorf("core: invalid hierarchy kind %q (want cch or cch-perfect)", s)
}

// String implements fmt.Stringer.
func (k HierarchyKind) String() string {
	if k == HierarchyCCHPerfect {
		return "cch-perfect"
	}
	return "cch"
}

// OrderKind selects the nested-dissection separator pipeline behind the
// CCH hierarchy — the cch package's type re-exported so command wiring
// needs only one spelling. OrderGeometric is the coordinate-bisection
// baseline; OrderFlow refines every split with an inertial-flow minimum
// vertex cut (smaller separators, fewer triangles, faster customization;
// slower one-off preprocessing). Ignored by the Dijkstra backend.
type OrderKind = cch.OrderKind

const (
	OrderGeometric = cch.OrderGeometric
	OrderFlow      = cch.OrderFlow
)

// ParseOrderKind maps the shared command-line flag spelling ("geometric"
// or "flow") onto an OrderKind.
func ParseOrderKind(s string) (OrderKind, error) { return cch.ParseOrderKind(s) }

// QueryEngine selects the point-to-point distance engine behind the CCH
// hierarchy's Dist/Path. Both engines return bit-identical distances. No
// serving path issues point-to-point hierarchy queries (planners and the
// matrix engine sweep trees), so the choice shows only in the Elim*
// counters of HierarchyStatus.
type QueryEngine uint8

const (
	// QueryElimTree (the default) walks the two elimination-tree root
	// paths heap-free — no priority queue, no decrease-key, no stopping
	// criterion; ascent lengths are bounded by the tree height the order
	// pipeline produced.
	QueryElimTree QueryEngine = iota
	// QueryBidij keeps the classic bidirectional upward Dijkstra.
	QueryBidij
)

// ParseQueryEngine maps the shared command-line flag spelling ("elimtree"
// or "bidij") onto a QueryEngine.
func ParseQueryEngine(s string) (QueryEngine, error) {
	switch s {
	case "elimtree":
		return QueryElimTree, nil
	case "bidij":
		return QueryBidij, nil
	}
	return 0, fmt.Errorf("core: invalid query engine %q (want elimtree or bidij)", s)
}

// String implements fmt.Stringer.
func (q QueryEngine) String() string {
	if q == QueryBidij {
		return "bidij"
	}
	return "elimtree"
}

// HierarchyStatus is the serving-layer observability record of one
// planner's hierarchy backend: which hierarchy answers queries right now,
// how long the most recent (re)customization took, and how the matrix
// engine's target selections on it fared. Zero for planners not running
// on a hierarchy.
type HierarchyStatus struct {
	Kind string
	// Order is the contraction-order pipeline ("geometric" or "flow")
	// behind the hierarchy; empty off hierarchy backends.
	Order         string
	LastCustomize time.Duration
	// SelectionHits / SelectionMisses count, cumulatively across weight
	// versions, how many matrix tables reused a cached target selection
	// vs had to build one (a Select pass); SelectionEvictions counts
	// entries dropped under the cache's byte budget. The hit rate is the
	// headline amortization metric of the selection cache.
	SelectionHits      uint64
	SelectionMisses    uint64
	SelectionEvictions uint64
	// LastQueryEngine names the point-to-point engine of the serving
	// hierarchy ("elimtree" or "bidij"; empty off hierarchy backends).
	// The Elim* counters are cumulative across weight swaps:
	// ElimQueries point-to-point ascent queries, ElimTruncated of them
	// abandoned early by the incumbent bound, ElimAscentNodes total
	// processed ascent nodes (mean ascent = nodes/queries). LastAscent is
	// the most recent query's processed node count.
	LastQueryEngine string
	ElimQueries     uint64
	ElimTruncated   uint64
	ElimAscentNodes uint64
	LastAscent      int
}

// TreeSource abstracts the tree factory behind the tree-based planners.
// Implementations must be safe for concurrent use: all per-call
// scratch state lives in the passed workspace.
type TreeSource interface {
	// BuildTrees writes a forward tree rooted at s and a backward tree
	// rooted at t into ws (aliasing its tree slots, like
	// sp.BuildTreeInto). ok is false when t is unreachable from s, in
	// which case the trees must not be used.
	BuildTrees(ws *sp.Workspace, s, t graph.NodeID) (fwd, bwd *sp.Tree, ok bool)
}

// dijkstraTrees is the paper-baseline source: two full Dijkstra trees.
// (Per-version sources are constructed by provider.buildView, which owns
// the backend selection and the CH re-customization chain.)
type dijkstraTrees struct {
	g       *graph.Graph
	weights []float64
}

func (d dijkstraTrees) BuildTrees(ws *sp.Workspace, s, t graph.NodeID) (fwd, bwd *sp.Tree, ok bool) {
	fwd = sp.BuildTreeInto(ws, d.g, d.weights, s, sp.Forward)
	if !fwd.Reached(t) {
		return fwd, nil, false
	}
	bwd = sp.BuildTreeInto(ws, d.g, d.weights, t, sp.Backward)
	return fwd, bwd, true
}

// chTrees is the PHAST source: complete trees out of the contraction
// hierarchy's search spaces, two near-linear passes per tree.
type chTrees struct {
	tb *ch.TreeBuilder
}

func (c chTrees) BuildTrees(ws *sp.Workspace, s, t graph.NodeID) (fwd, bwd *sp.Tree, ok bool) {
	fwd = c.tb.BuildTreeInto(ws, s, sp.Forward)
	if !fwd.Reached(t) {
		return fwd, nil, false
	}
	bwd = c.tb.BuildTreeInto(ws, t, sp.Backward)
	return fwd, bwd, true
}

// prunedTrees is the §II-B elliptic source: a bidirectional probe finds
// the fastest time, then both trees explore only nodes that can lie on a
// route within upperBound × fastest. Within that budget the trees'
// distances equal the full trees', so the choice routes are preserved.
type prunedTrees struct {
	g          *graph.Graph
	weights    []float64
	scale      float64 // admissible seconds-per-meter lower bound
	upperBound float64
}

// newPrunedTrees builds the elliptic source, deriving the admissible
// scale from the same weights the trees will search — the invariant the
// pruning bound depends on.
func newPrunedTrees(g *graph.Graph, weights []float64, upperBound float64) *prunedTrees {
	return &prunedTrees{
		g:          g,
		weights:    weights,
		scale:      sp.MinSecondsPerMeter(g, weights),
		upperBound: upperBound,
	}
}

// newPrunedTreesFrom is newPrunedTrees with cross-version scan sharing:
// when the snapshot carries a changed-edge delta relative to exactly the
// previous view's snapshot (closures, spot republishes), the admissible
// scale is updated from the previous one in O(|delta|) instead of
// rescanning every edge — the minimum-speed scan survives any publish
// that leaves the minima untouched. Bulk publishes (full traffic steps)
// carry no delta and fall back to the full scan.
func newPrunedTreesFrom(g *graph.Graph, snap *weights.Snapshot, upperBound float64, prev *prunedTrees, prevSnap *weights.Snapshot) *prunedTrees {
	w := snap.Weights()
	if prev != nil && prevSnap != nil {
		if since, changed, ok := snap.Delta(); ok && since == prevSnap.Version() {
			if scale, ok := rescaleFromDelta(g, prevSnap.Weights(), w, changed, prev.scale); ok {
				return &prunedTrees{g: g, weights: w, scale: scale, upperBound: upperBound}
			}
		}
	}
	return newPrunedTrees(g, w, upperBound)
}

// rescaleFromDelta derives the new minimum seconds-per-meter from the
// previous one given that only the changed edges differ. It is sound
// exactly when the previous minimum was achieved on an *unchanged* edge:
// then the old scale is still attained and only the changed edges can
// lower it. If any changed edge sat at the old minimum (it may have been
// the sole argmin, and raising it would raise the true minimum), ok is
// false and the caller must rescan.
func rescaleFromDelta(g *graph.Graph, prevW, w []float64, changed []graph.EdgeID, prevScale float64) (float64, bool) {
	scale := prevScale
	for _, e := range changed {
		ed := g.Edge(e)
		if ed.LengthM <= 0 {
			continue
		}
		if prevW[e]/ed.LengthM <= prevScale {
			return 0, false
		}
		if r := w[e] / ed.LengthM; r < scale {
			scale = r
		}
	}
	return scale, true
}

func (p *prunedTrees) BuildTrees(ws *sp.Workspace, s, t graph.NodeID) (fwd, bwd *sp.Tree, ok bool) {
	_, fastest := sp.BidirectionalShortestPathInto(ws, p.g, p.weights, s, t)
	if math.IsInf(fastest, 1) {
		return nil, nil, false
	}
	maxCost := p.upperBound * fastest
	fwd = sp.BuildPrunedTreeInto(ws, p.g, p.weights, s, sp.Forward, t, maxCost, p.scale)
	bwd = sp.BuildPrunedTreeInto(ws, p.g, p.weights, t, sp.Backward, s, maxCost, p.scale)
	if !fwd.Reached(t) {
		return fwd, bwd, false
	}
	return fwd, bwd, true
}

// countingTrees decorates a source with concurrency-safe instrumentation:
// how many nodes the last query's trees reached. The counts live in a
// treeCounts shared across weight versions (plain atomics — concurrent
// queries each record their own trees, last writer wins), so planners
// carrying this instrumentation stay safe under core.Engine workers.
type countingTrees struct {
	src    TreeSource
	counts *treeCounts
}

func (c *countingTrees) BuildTrees(ws *sp.Workspace, s, t graph.NodeID) (fwd, bwd *sp.Tree, ok bool) {
	fwd, bwd, ok = c.src.BuildTrees(ws, s, t)
	if fwd != nil {
		c.counts.lastFwd.Store(int64(sp.CountReached(fwd)))
	}
	if bwd != nil {
		c.counts.lastBwd.Store(int64(sp.CountReached(bwd)))
	}
	return fwd, bwd, ok
}
