// Package ch implements the query side of contraction hierarchies
// (Geisberger et al.), the classic routing-engine speedup technique. §II-B
// of the paper discusses how plateau-based alternative routing must stay
// compatible with such optimisations ("many routing engines compute only a
// subset of the source or destination tree"); this package provides the
// optimisation itself: over a contraction order and its shortcut arcs,
// point-to-point queries run as upward searches that settle a tiny
// fraction of the graph, returning exact shortest paths that unpack to
// original edge sequences, and PHAST/RPHAST sweeps derive whole trees.
//
// Preprocessing lives in repro/internal/cch: customizable contraction
// hierarchies (Dibbelt, Strasser & Wagner) contract metric-independently
// on a nested-dissection order and customize by triangle relaxation,
// which is exact for any weight vector, +Inf closures included. That
// package compiles every customization to the Runtime defined here, which
// the queries, the PHAST TreeBuilder and the serving layer consume.
package ch

import "repro/internal/graph"

// Arc is one directed edge of a hierarchy runtime: either an original road
// edge or a shortcut replacing two lower arcs. Exported so the
// preprocessor (package cch) can assemble runtimes.
type Arc struct {
	To     graph.NodeID
	Weight float64
	// Orig is the original edge ID when the arc is (resolved by) a single
	// road edge, -1 otherwise.
	Orig graph.EdgeID
	// Skip1, Skip2 are the two constituent arcs (indices into the runtime
	// arc array, in path order) when the arc is a shortcut, -1 otherwise.
	// Constituents always precede the arc referencing them.
	Skip1, Skip2 int32
}

// Runtime is the packed representation a customized hierarchy compiles
// to: the contraction order, the arc array with its unpacking table
// (Orig/Skip1/Skip2), and the upward forward/backward adjacency the
// queries and the tree builder walk. It is immutable after construction
// and safe for concurrent queries; a metric swap goes through the
// customize hook of the preprocessing that built it.
type Runtime struct {
	g    *graph.Graph
	kind string
	rank []int32 // contraction order; higher rank = more important
	arcs []Arc
	// Packed upward adjacency, CSR over nodes:
	// upFwdArcs[upFwdOff[v]:upFwdOff[v+1]] lists arcs v->w with
	// rank[w] > rank[v]; upBwdArcs[upBwdOff[v]:upBwdOff[v+1]] lists arcs
	// u->v (stored at v) with rank[u] > rank[v]. CSR instead of per-node
	// slices keeps NewRuntime at a handful of allocations (it used to pay
	// two append-grown slices per node, ~2n allocations per city).
	upFwdOff  []int32
	upFwdArcs []int32
	upBwdOff  []int32
	upBwdArcs []int32
	// arcFrom[i] is the tail node of arcs[i].
	arcFrom []graph.NodeID
	// arcTo/arcW are packed copies of arcs[i].To and arcs[i].Weight — the
	// only fields the relax loops read. A 32-byte Arc record drags the
	// unpacking table through the cache on every relaxation; the packed
	// views keep the hot loops at 12 bytes per arc. arcTo is
	// topology-fixed and shared across customizations; arcW follows the
	// arc array (WithArcs/WithArcsInert re-derive or adopt it).
	arcTo []graph.NodeID
	arcW  []float64
	// inert, when non-nil, flags arcs a perfect customization proved
	// strictly dominated by an up-down path through other arcs: queries
	// and tree-builder packings skip them without losing exactness (the
	// dominating path always survives, because every arc on a shortest
	// up-down path has weight equal to the distance of its endpoints and
	// is therefore never strictly dominated itself). Indexed like arcs;
	// nil means no arc is inert.
	inert []bool
	// customize handles Customize calls (the CCH triangle relaxation).
	customize func([]float64) *Runtime
	// elim, when non-nil, switches Dist/Path to the elimination-tree
	// engine (elimquery.go). Only sound on hierarchies whose upward
	// neighborhoods are cliques — package cch attaches it unless asked
	// for the bidirectional search. elimStats is allocated alongside it.
	elim      *ElimTree
	elimStats *elimCounters
}

// NewRuntime assembles a hierarchy runtime from externally built arcs:
// rank is the contraction order (a permutation), from[i] the tail of
// arcs[i], and customize the required metric-swap hook behind Customize.
// The adjacency split is derived here; the input slices are owned by the
// runtime afterwards.
func NewRuntime(g *graph.Graph, kind string, rank []int32, from []graph.NodeID, arcs []Arc, customize func([]float64) *Runtime) *Runtime {
	if customize == nil {
		panic("ch: NewRuntime needs a customize hook")
	}
	n := g.NumNodes()
	h := &Runtime{
		g:         g,
		kind:      kind,
		rank:      rank,
		arcs:      arcs,
		upFwdOff:  make([]int32, n+1),
		upBwdOff:  make([]int32, n+1),
		arcFrom:   from,
		arcTo:     make([]graph.NodeID, len(arcs)),
		arcW:      make([]float64, len(arcs)),
		customize: customize,
	}
	for ai := range arcs {
		h.arcTo[ai] = arcs[ai].To
		h.arcW[ai] = arcs[ai].Weight
	}
	// Count, prefix-sum, fill.
	for ai := range arcs {
		u := from[ai]
		w := arcs[ai].To
		if rank[u] < rank[w] {
			h.upFwdOff[u+1]++
		} else if rank[u] > rank[w] {
			h.upBwdOff[w+1]++
		}
	}
	for v := 0; v < n; v++ {
		h.upFwdOff[v+1] += h.upFwdOff[v]
		h.upBwdOff[v+1] += h.upBwdOff[v]
	}
	h.upFwdArcs = make([]int32, h.upFwdOff[n])
	h.upBwdArcs = make([]int32, h.upBwdOff[n])
	fwdCur := make([]int32, n)
	bwdCur := make([]int32, n)
	for ai := range arcs {
		u := from[ai]
		w := arcs[ai].To
		if rank[u] < rank[w] {
			h.upFwdArcs[h.upFwdOff[u]+fwdCur[u]] = int32(ai)
			fwdCur[u]++
		} else if rank[u] > rank[w] {
			h.upBwdArcs[h.upBwdOff[w]+bwdCur[w]] = int32(ai)
			bwdCur[w]++
		}
	}
	return h
}

// upFwdAt returns the upward forward arc list of v (arc indices v->w with
// rank[w] > rank[v]).
func (h *Runtime) upFwdAt(v graph.NodeID) []int32 {
	return h.upFwdArcs[h.upFwdOff[v]:h.upFwdOff[v+1]]
}

// upBwdAt returns the upward backward arc list of v (arc indices u->v with
// rank[u] > rank[v]).
func (h *Runtime) upBwdAt(v graph.NodeID) []int32 {
	return h.upBwdArcs[h.upBwdOff[v]:h.upBwdOff[v+1]]
}

// WithArcs returns a runtime sharing this runtime's graph, order,
// adjacency, tails and customize hook, with the arc array replaced — the
// zero-re-indexing path a customization pass uses to publish new weights
// on a frozen topology. The new arcs must be index-compatible with the
// old (same tails and heads).
func (h *Runtime) WithArcs(arcs []Arc) *Runtime {
	rt := *h
	rt.arcs = arcs
	if arcs == nil {
		rt.arcW = nil // template form: adjacency only, no metric
		return &rt
	}
	rt.arcW = make([]float64, len(arcs))
	for ai := range arcs {
		rt.arcW[ai] = arcs[ai].Weight
	}
	return &rt
}

// WithCustomize returns a runtime identical to this one except for the
// customize hook — how package cch tells a basic-customized runtime apart
// from a perfect-customized one (each re-customizes through the pass that
// produced it).
func (h *Runtime) WithCustomize(fn func([]float64) *Runtime) *Runtime {
	rt := *h
	rt.customize = fn
	return &rt
}

// WithArcsInert is WithArcs plus a packed weight view and an inert-arc
// mask (both aligned with arcs; nil inert clears the mask) — the handoff
// from a customization pass. arcW must hold arcs[i].Weight for every i;
// passing the customization's own buffer keeps the swap allocation-free.
// A nil arcW is derived here instead.
func (h *Runtime) WithArcsInert(arcs []Arc, arcW []float64, inert []bool) *Runtime {
	rt := *h
	rt.arcs = arcs
	rt.inert = inert
	if arcW == nil {
		arcW = make([]float64, len(arcs))
		for ai := range arcs {
			arcW[ai] = arcs[ai].Weight
		}
	}
	rt.arcW = arcW
	return &rt
}

// WithElimTree returns a runtime answering Dist/Path with the
// elimination-tree engine over et (nil restores the bidirectional
// search). The caller vouches that et is the elimination tree of this
// runtime's topology and that upward neighborhoods are cliques — package
// cch's chordal supergraph satisfies this by construction. Counters start
// fresh: each customized runtime reports its own query telemetry, like a
// selection cache does.
func (h *Runtime) WithElimTree(et *ElimTree) *Runtime {
	rt := *h
	rt.elim = et
	if et != nil {
		rt.elimStats = &elimCounters{}
	} else {
		rt.elimStats = nil
	}
	return &rt
}

// Arcs exposes the runtime's arc array for bit-identity tests and
// topology reports. The slice aliases internal storage: callers must not
// modify it, and it is valid only while they hold the runtime.
func (h *Runtime) Arcs() []Arc { return h.arcs }

// InertCount returns how many arcs the runtime's customization marked
// inert (strictly dominated; skipped by queries and sweeps). Zero for
// basic customizations.
func (h *Runtime) InertCount() int {
	count := 0
	for _, in := range h.inert {
		if in {
			count++
		}
	}
	return count
}

// Graph returns the road network the hierarchy was built over.
func (h *Runtime) Graph() *graph.Graph { return h.g }

// Kind names the preprocessing that built the runtime, for logging and
// status reports.
func (h *Runtime) Kind() string { return h.kind }

// Rank returns the contraction order (higher rank = more important). The
// slice aliases internal storage and must not be modified.
func (h *Runtime) Rank() []int32 { return h.rank }

// Customize returns a runtime over the same contraction order and
// topology with arc weights rebuilt for the given vector — the cheap
// live-traffic path (no re-contraction), dispatched to the hook the
// runtime was built with. The receiver is not modified.
func (h *Runtime) Customize(weights []float64) *Runtime { return h.customize(weights) }
