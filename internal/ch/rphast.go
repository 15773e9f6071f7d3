package ch

import (
	"math"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/sp"
)

// This file implements restricted PHAST (RPHAST, Delling et al., "Faster
// batched shortest paths in road networks"): the TreeBuilder's downward
// sweep limited to the part of the hierarchy that can influence a given
// target node set. A full PHAST build relaxes every downward arc once;
// for the short queries the choice-routing planners prune elliptically,
// almost all of that work computes distances nobody reads. RPHAST splits
// the work in two:
//
//   - a *selection* phase (Select) that, once per target set, extracts the
//     restricted downward sub-CSR — the upward closure of the targets in
//     the pull DAG, in sweep order — and
//   - a *restricted build* (BuildTreeRestrictedInto) that runs the usual
//     upward search but sweeps only the selected positions.
//
// The produced trees equal full PHAST trees exactly on every selected
// node (same distances, same parent edges) and report every other node
// unreached, which is precisely the contract of an elliptically pruned
// tree (sp.BuildPrunedTree): as long as the target set covers the query's
// ellipse, the plateau join yields the same choice routes. Every
// customization gets this for free: the TreeBuilder is compiled from the
// Runtime, whichever customization pass (basic or perfect) produced it.

// Selection is the reusable restricted-sweep state for one target set. It
// is immutable after Select returns and safe for concurrent restricted
// builds from any root (the RPHAST amortization: one selection serves
// every query whose relevant nodes lie inside the same target set). It is
// valid only for the TreeBuilder that produced it; using it with another
// builder — e.g. keeping a selection across a weight customization, whose
// arcs it no longer matches — is a bug and panics rather than degrading
// silently.
type Selection struct {
	tb      *TreeBuilder
	targets int // distinct target nodes requested
	// covered is the position-space bitset of the *requested* targets
	// (before upward closure) — the coverage query behind selection
	// sharing: trees built through the selection are guaranteed exact on
	// exactly these nodes, in both directions, from any root.
	covered []uint64
	fwd     restrictedCSR
	bwd     restrictedCSR
}

// restrictedCSR is the position-space sub-CSR of one direction's downward
// sweep: the selected positions in sweep order (ascending position =
// descending rank) and, per selected position, its pull arcs. Arc upper
// endpoints stay global positions, so the restricted sweep indexes the
// same rank-space scratch a full sweep uses — no per-selection remapping.
type restrictedCSR struct {
	nodes []int32
	off   []int32
	arcs  []downArc
	ends  []arcEnds
}

// selectScratch is the pooled mark array of the selection passes.
type selectScratch struct{ mark []bool }

// Targets returns the number of distinct target nodes the selection was
// built for.
func (sel *Selection) Targets() int { return sel.targets }

// SweptNodes returns how many positions the restricted forward and
// backward sweeps process — the targets plus their upward closures, the
// measure of how much of the graph a restricted build still touches.
func (sel *Selection) SweptNodes() (fwd, bwd int) {
	return len(sel.fwd.nodes), len(sel.bwd.nodes)
}

// Covers reports whether every given node was a requested target of this
// selection: a query or batch sweep whose relevant node set passes Covers
// can reuse the selection and still read exact distances and parents at
// those nodes — the invariant selection-sharing caches rely on. It never
// allocates.
func (sel *Selection) Covers(targets []graph.NodeID) bool {
	pos, covered := sel.tb.pos, sel.covered
	for _, v := range targets {
		p := uint32(pos[v])
		if covered[p>>6]&(1<<(p&63)) == 0 {
			return false
		}
	}
	return true
}

// MemoryBytes reports the approximate retained size of the selection's
// backing arrays — what a byte-budgeted selection cache charges per
// entry. Capacities (not lengths) are counted, since a reused Selection
// keeps its grown backing.
func (sel *Selection) MemoryBytes() int {
	const (
		arcBytes  = int(unsafe.Sizeof(downArc{}))
		endBytes  = int(unsafe.Sizeof(arcEnds{}))
		int32Size = 4
	)
	csr := func(r *restrictedCSR) int {
		return int32Size*(cap(r.nodes)+cap(r.off)) + (arcBytes+endBytes)*cap(r.arcs)
	}
	return 8*cap(sel.covered) + csr(&sel.fwd) + csr(&sel.bwd)
}

// resetCovered sizes and clears the coverage bitset for n positions,
// reusing the backing on a warm Selection.
func (sel *Selection) resetCovered(n int) {
	words := (n + 63) >> 6
	if cap(sel.covered) >= words {
		sel.covered = sel.covered[:words]
		for i := range sel.covered {
			sel.covered[i] = 0
		}
	} else {
		sel.covered = make([]uint64, words)
	}
}

// Select builds the restricted sweep state for the given target set:
// distances and parent edges of every target are exact in trees built
// through the selection (from any root, in either direction); all other
// nodes may be reported unreached. Passing a previous Selection reuses
// its backing arrays, so re-selecting on a warm Selection allocates only
// on growth. The target slice is not retained; duplicate entries are
// deduplicated.
func (tb *TreeBuilder) Select(targets []graph.NodeID, reuse *Selection) *Selection {
	sel := selectionFor(tb, reuse)
	sc := tb.selScratch.Get().(*selectScratch)
	sel.targets = tb.markTargets(targets, sc.mark, sel.covered)
	sel.fwd.closeAndEmit(tb, tb.fwdOff, tb.fwdArcs, tb.fwdEnds, sc.mark)
	tb.markTargets(targets, sc.mark, sel.covered)
	sel.bwd.closeAndEmit(tb, tb.bwdOff, tb.bwdArcs, tb.bwdEnds, sc.mark)
	tb.selScratch.Put(sc)
	return sel
}

// SelectUnion is Select over the union of several target groups — the
// many-to-many entry point: one selection over a *cell union* (each group
// typically being one spatial cell's vertices) provably serves every
// query whose elliptic target set lies inside the union, which is what
// lets a selection cache share one Select across nearby query pairs and
// whole source batches. Groups may overlap; the union is deduplicated
// like Select's target slice, and reuse semantics are identical.
func (tb *TreeBuilder) SelectUnion(groups [][]graph.NodeID, reuse *Selection) *Selection {
	sel := selectionFor(tb, reuse)
	sc := tb.selScratch.Get().(*selectScratch)
	distinct := 0
	for _, g := range groups {
		distinct += tb.markTargets(g, sc.mark, sel.covered)
	}
	sel.targets = distinct
	sel.fwd.closeAndEmit(tb, tb.fwdOff, tb.fwdArcs, tb.fwdEnds, sc.mark)
	for _, g := range groups {
		tb.markTargets(g, sc.mark, sel.covered)
	}
	sel.bwd.closeAndEmit(tb, tb.bwdOff, tb.bwdArcs, tb.bwdEnds, sc.mark)
	tb.selScratch.Put(sc)
	return sel
}

// selectionFor readies a Selection (fresh or reused) for tb.
func selectionFor(tb *TreeBuilder, reuse *Selection) *Selection {
	sel := reuse
	if sel == nil {
		sel = &Selection{}
	}
	sel.tb = tb
	sel.resetCovered(tb.n)
	return sel
}

// markTargets marks the targets' positions in mark and records them in
// the covered bitset, returning how many were newly marked. It runs once
// per direction (the emit pass clears mark), so covered writes are
// idempotent by design.
func (tb *TreeBuilder) markTargets(targets []graph.NodeID, mark []bool, covered []uint64) int {
	distinct := 0
	for _, v := range targets {
		p := uint32(tb.pos[v])
		covered[p>>6] |= 1 << (p & 63)
		if !mark[p] {
			mark[p] = true
			distinct++
		}
	}
	return distinct
}

// closeAndEmit computes one direction's restricted CSR from the marked
// target positions: close the marks upward along the pull arcs (an up
// endpoint has a smaller position, so one descending scan reaches a
// fixed point), then emit the marked positions and their pull lists in
// sweep order. +Inf arcs (bans, inert CCH pairs) can never win a pull,
// so they are dropped from both the closure and the copy — under heavy
// closures the restricted subgraph shrinks further. Leaves mark fully
// cleared.
func (r *restrictedCSR) closeAndEmit(tb *TreeBuilder, off []int32, arcs []downArc, ends []arcEnds, mark []bool) {
	n := tb.n
	for p := n - 1; p >= 0; p-- {
		if !mark[p] {
			continue
		}
		lo, hi := off[p], off[p+1]
		for k := lo; k < hi; k++ {
			if a := arcs[k]; !math.IsInf(a.w, 1) {
				mark[a.up] = true
			}
		}
	}
	r.nodes = r.nodes[:0]
	r.off = append(r.off[:0], 0)
	r.arcs = r.arcs[:0]
	r.ends = r.ends[:0]
	for p := 0; p < n; p++ {
		if !mark[p] {
			continue
		}
		mark[p] = false
		r.nodes = append(r.nodes, int32(p))
		lo, hi := off[p], off[p+1]
		for k := lo; k < hi; k++ {
			if math.IsInf(arcs[k].w, 1) {
				continue
			}
			r.arcs = append(r.arcs, arcs[k])
			r.ends = append(r.ends, ends[k])
		}
		r.off = append(r.off, int32(len(r.arcs)))
	}
}

// BuildTreeRestrictedInto is BuildTreeInto with the downward sweep
// limited to sel: the returned tree (aliasing ws's slot for dir, same
// rules as BuildTreeInto) carries exact distances and original-graph
// parent edges for every node of the selection's sweep set and reports
// everything else unreached — an elliptically-pruned-tree drop-in. The
// upward search is unrestricted (it already touches only the root's
// upward cone). After warm-up a restricted build allocates nothing.
func (tb *TreeBuilder) BuildTreeRestrictedInto(ws *sp.Workspace, root graph.NodeID, dir sp.Direction, sel *Selection) *sp.Tree {
	if sel.tb != tb {
		panic("ch: Selection used with a TreeBuilder it was not derived from (stale selection kept across a customization?)")
	}
	t, st := ws.TreeSlot(dir)
	n := tb.n
	dist, parent := st.DenseArrays(n)

	upOff, upArcs, upEnds := tb.bwdOff, tb.bwdArcs, tb.bwdEnds
	r := &sel.fwd
	if dir == sp.Backward {
		upOff, upArcs, upEnds = tb.fwdOff, tb.fwdArcs, tb.fwdEnds
		r = &sel.bwd
	}
	useLast := dir == sp.Forward

	sc := tb.scratch.Get().(*sweepScratch)
	distR, parentR := sc.initFor(n, tb.pos[root])

	// Phase 1, the upward search — identical to the full build.
	upwardPass(distR, parentR, upOff, upArcs, upEnds, useLast)

	// Phase 2, the restricted downward sweep: selected positions in
	// descending rank. Every pull's upper endpoint is in the selection
	// (the closure invariant) and precedes the puller in sweep order, so
	// its distance is final when read — exactly the full sweep's argument
	// on the sub-DAG.
	nodes := r.nodes
	for k := range nodes {
		i := nodes[k]
		d := distR[i]
		lo, hi := r.off[k], r.off[k+1]
		arcs := r.arcs[lo:hi]
		best := -1
		for j := range arcs {
			a := arcs[j]
			if cand := distR[a.up] + a.w; cand < d {
				d = cand
				best = j
			}
		}
		if best >= 0 {
			distR[i] = d
			e := r.ends[lo+int32(best)]
			if useLast {
				parentR[i] = e.last
			} else {
				parentR[i] = e.first
			}
		}
	}

	// Scatter only the selection; everything else — including nodes the
	// upward search touched, whose distances phase 2 never finalized — is
	// reported unreached, like outside an elliptic pruning budget.
	inf := math.Inf(1)
	for v := range dist {
		dist[v] = inf
		parent[v] = -1
	}
	order := tb.order
	for k := range nodes {
		i := nodes[k]
		v := order[i]
		dist[v] = distR[i]
		parent[v] = parentR[i]
	}
	tb.scratch.Put(sc)
	// The root's distance is 0 by definition even when the caller's
	// target set (unusually) excludes it.
	dist[root] = 0
	parent[root] = -1
	t.Root, t.Dir = root, dir
	t.Dist, t.Parent = dist, parent
	return t
}
