// Package cch implements customizable contraction hierarchies (Dibbelt,
// Strasser, Wagner: "Customizable Contraction Hierarchies"), the
// preprocessing behind every ch.Runtime.
//
// Classic witness-pruned contraction drops shortcuts against the
// build-time metric, so a weights-only re-customization is exact only for
// metrics that preserve that witness structure — heavy road closures or
// aggressive congestion snapshots degrade its distances to upper bounds.
// This package removes the metric from preprocessing entirely:
//
//   - Preprocess contracts nodes along a nested-dissection order (order.go)
//     with *no witness pruning*: contracting v connects all of v's
//     higher-ranked neighbours into a clique, yielding the chordal
//     supergraph. Each undirected chordal arc {x, y} carries an upward
//     (x→y) and a downward (y→x) weight slot. Preprocess also records, per
//     arc, its *lower triangles* — the vertices z below both endpoints
//     with arcs to each — and the original edges mapping onto each slot.
//   - Customize instantiates the topology for one weight vector: slots
//     start at the cheapest original edge (+Inf when none) and one
//     bottom-up sweep relaxes every lower triangle
//     (w(x→y) ≤ w(x→z) + w(z→y)). After the sweep, bidirectional upward
//     searches — and therefore PHAST sweeps and every planner consuming
//     trees — are exact for *any* weight vector, including +Inf closures,
//     because any shortest path rewrites into an equal-weight up-down path
//     by repeatedly bypassing its lowest interior vertex through the
//     relaxed triangle arc.
//
// Preprocessing is paid once per road network; following a published
// weight snapshot costs one triangle sweep (linear in the triangle count),
// which is what makes every weights.Snapshot exactly servable without
// re-contraction.
package cch

import (
	"fmt"
	"sync"

	"repro/internal/ch"
	"repro/internal/graph"
)

// Kind labels hierarchies produced by this package.
const Kind = "cch"

// Preprocessed is the metric-independent half of a customizable
// hierarchy: the nested-dissection order, the chordal arc topology, the
// lower-triangle lists and the original-edge mapping. It is immutable
// after Preprocess and safe for concurrent Customize calls; it holds no
// weights of its own.
type Preprocessed struct {
	g         *graph.Graph
	orderKind OrderKind
	rank      []int32
	// Chordal arc pairs {lo, hi} with rank[lo] < rank[hi], sorted by
	// rank[lo] ascending — the order triangle relaxation must process them
	// in (a pair's lower triangles reference only pairs with a strictly
	// lower lo-rank).
	lo, hi []graph.NodeID
	// Lower triangles per pair, CSR over pair indices: triangle k of pair
	// p is a vertex z below both endpoints, represented by its two
	// constituent pairs triLoSide[k] = {z, lo(p)} and triHiSide[k] =
	// {z, hi(p)}.
	triOff    []int32
	triLoSide []int32
	triHiSide []int32
	// Original edges mapping onto each pair's two slots, CSR per pair:
	// upEdges are lo→hi road edges, downEdges hi→lo.
	upOff, downOff     []int32
	upEdges, downEdges []graph.EdgeID
	// arcFrom is the runtime tail array (2 arcs per pair: up then down),
	// shared by every customization.
	arcFrom []graph.NodeID
	// Packed dependency-level CSR (levels.go): levelPairs grouped by
	// ascending level, levelOff bounding each level's group — the wave
	// structure level-parallel customization runs over.
	levelOff   []int32
	levelPairs []int32
	// elim is the elimination tree of the chordal supergraph (parent =
	// lowest-ranked upward neighbor), built once here and attached to
	// every customized runtime — the topology the heap-free query engine
	// walks. Metric-independent like everything else in a Preprocessed.
	elim *ch.ElimTree

	// template caches the first customized runtime so later Customize
	// calls share its adjacency arrays instead of re-deriving them.
	mu       sync.Mutex
	template *ch.Runtime
	// Double-buffered customization output (customize.go): arc buffers
	// leased to in-flight runtimes, reclaimed by finalizer.
	bufMu sync.Mutex
	bufs  []*arcBuf
	// soa pools the flat weight vectors of the triangle loops.
	soa sync.Pool
}

// Build preprocesses g metric-independently and customizes the result for
// the given weights. Keep the returned hierarchy's Customize for
// following weight snapshots; only the first call pays for contraction.
//
// Preprocessing is shared: because a Preprocessed depends only on the
// graph (never on weights) and is safe for concurrent Customize calls,
// Build memoizes the most recent graph's preprocessing process-wide. The
// common serving shape — several planners (public and private metric) on
// one city network — therefore contracts each network once, not once per
// planner.
func Build(g *graph.Graph, weights []float64) *ch.Runtime {
	return PreprocessShared(g).Customize(weights)
}

// BuildWith is Build with explicit customization Config — the order
// pipeline, worker fan-out and the perfect (inert-arc marking)
// post-pass. Preprocessings are shared per (graph, order kind): two
// callers asking for different order pipelines on the same network get
// distinct (and distinctly memoized) contractions.
func BuildWith(g *graph.Graph, weights []float64, cfg Config) *ch.Runtime {
	return PreprocessSharedWith(g, cfg.Order).CustomizeWith(weights, cfg)
}

// sharedPreCap bounds the process-wide preprocessing memo. Four entries
// cover the realistic serving shapes (a city per metric profile, a pair
// of cities in an A/B harness) while keeping a long multi-city test run
// from pinning every network it ever touched.
const sharedPreCap = 4

// preKey identifies one memoized preprocessing. The order kind is part
// of the key — a Preprocessed built on the geometric order is a
// different contraction than one built on the flow order, and a caller
// asking for one must never silently receive the other. OrderConfig's
// Workers knob is deliberately *not* in the key: every worker count
// produces bit-identical ranks, so the contractions are interchangeable.
type preKey struct {
	g    *graph.Graph
	kind OrderKind
}

// shared* memoize preprocessings keyed by (graph pointer, order kind),
// FIFO-evicted at sharedPreCap. A single graph-keyed slot used to live
// here; alternating between two cities (the common multi-city test
// shape) re-preprocessed on every switch, and two callers with different
// order settings would have silently shared one contraction.
var (
	sharedMu    sync.Mutex
	sharedPre   = map[preKey]*Preprocessed{}
	sharedOrder []preKey
)

// PreprocessShared returns the memoized default-order preprocessing of
// g, computing and caching it on first sight. A Preprocessed depends
// only on the graph and the order pipeline (never on weights) and is
// safe for concurrent Customize calls, so every consumer of one network
// can share a single contraction.
func PreprocessShared(g *graph.Graph) *Preprocessed {
	return PreprocessSharedWith(g, OrderConfig{})
}

// PreprocessSharedWith is PreprocessShared keyed by (graph, order kind).
func PreprocessSharedWith(g *graph.Graph, order OrderConfig) *Preprocessed {
	key := preKey{g, order.Kind}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if pre, ok := sharedPre[key]; ok {
		return pre
	}
	pre := PreprocessWith(g, order)
	if len(sharedOrder) >= sharedPreCap {
		delete(sharedPre, sharedOrder[0])
		sharedOrder = sharedOrder[:copy(sharedOrder, sharedOrder[1:])]
	}
	sharedPre[key] = pre
	sharedOrder = append(sharedOrder, key)
	return pre
}

// Preprocess computes the nested-dissection order, the chordal (no
// witness pruning) arc topology, the per-arc lower-triangle lists and the
// original-edge mapping. The result depends only on the graph structure
// and node coordinates, never on weights.
func Preprocess(g *graph.Graph) *Preprocessed {
	return PreprocessWith(g, OrderConfig{})
}

// PreprocessWith is Preprocess on an explicit order configuration.
func PreprocessWith(g *graph.Graph, ocfg OrderConfig) *Preprocessed {
	n := g.NumNodes()
	p := &Preprocessed{g: g, orderKind: ocfg.Kind, rank: OrderWith(g, ocfg)}
	order := make([]graph.NodeID, n)
	for v := 0; v < n; v++ {
		order[p.rank[v]] = graph.NodeID(v)
	}

	// Chordal fill-in: process nodes in ascending rank; the (deduplicated)
	// higher-ranked neighbours of v become v's pairs, and every two of
	// them gain an arc — the clique contraction of v induces. upAdj may
	// hold duplicates between visits; dedup happens once per node via the
	// seen stamps.
	upAdj := make([][]graph.NodeID, n)
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		l, h := ed.From, ed.To
		if p.rank[l] > p.rank[h] {
			l, h = h, l
		}
		upAdj[l] = append(upAdj[l], h)
	}
	seen := make([]int32, n)
	for i := range seen {
		seen[i] = -1
	}
	// A node's pairs are appended contiguously (one group per node visit,
	// in rank order) and sorted by rank of the upper endpoint, which makes
	// pair lookup a binary search over [pairStart[v], pairEnd[v]).
	pairStart := make([]int32, n)
	pairEnd := make([]int32, n)
	var nbuf []graph.NodeID
	for i := 0; i < n; i++ {
		v := order[i]
		pairStart[v] = int32(len(p.lo))
		nbuf = nbuf[:0]
		for _, u := range upAdj[v] {
			if seen[u] != int32(i) {
				seen[u] = int32(i)
				nbuf = append(nbuf, u)
			}
		}
		upAdj[v] = nil
		sortByRank(nbuf, p.rank)
		for _, u := range nbuf {
			p.lo = append(p.lo, v)
			p.hi = append(p.hi, u)
		}
		pairEnd[v] = int32(len(p.lo))
		for a := 0; a < len(nbuf); a++ {
			for b := a + 1; b < len(nbuf); b++ {
				upAdj[nbuf[a]] = append(upAdj[nbuf[a]], nbuf[b])
			}
		}
	}
	P := len(p.lo)

	findPair := func(a, b graph.NodeID) int32 {
		// Binary search b among a's pairs (sorted by rank of hi).
		loI, hiI := pairStart[a], pairEnd[a]
		rb := p.rank[b]
		for loI < hiI {
			mid := (loI + hiI) / 2
			if p.rank[p.hi[mid]] < rb {
				loI = mid + 1
			} else {
				hiI = mid
			}
		}
		if loI < pairEnd[a] && p.hi[loI] == b {
			return loI
		}
		panic(fmt.Sprintf("cch: pair {%d,%d} missing from chordal topology", a, b))
	}

	// Lower triangles: for every z, each two of z's pairs {z,a}, {z,b}
	// witness the triangle of pair {a,b} (which exists by the clique
	// property). Count, prefix-sum, fill.
	triCnt := make([]int32, P+1)
	forEachTriangle(p, pairStart, pairEnd, func(abPair, zaPair, zbPair int32) {
		triCnt[abPair+1]++
	}, findPair)
	for i := 0; i < P; i++ {
		triCnt[i+1] += triCnt[i]
	}
	p.triOff = triCnt
	p.triLoSide = make([]int32, p.triOff[P])
	p.triHiSide = make([]int32, p.triOff[P])
	cursor := make([]int32, P)
	forEachTriangle(p, pairStart, pairEnd, func(abPair, zaPair, zbPair int32) {
		k := p.triOff[abPair] + cursor[abPair]
		cursor[abPair]++
		p.triLoSide[k] = zaPair
		p.triHiSide[k] = zbPair
	}, findPair)

	// Original edges per pair and direction (parallel edges all listed —
	// which one is cheapest depends on the metric).
	upCnt := make([]int32, P+1)
	downCnt := make([]int32, P+1)
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		if p.rank[ed.From] < p.rank[ed.To] {
			upCnt[findPair(ed.From, ed.To)+1]++
		} else {
			downCnt[findPair(ed.To, ed.From)+1]++
		}
	}
	for i := 0; i < P; i++ {
		upCnt[i+1] += upCnt[i]
		downCnt[i+1] += downCnt[i]
	}
	p.upOff, p.downOff = upCnt, downCnt
	p.upEdges = make([]graph.EdgeID, p.upOff[P])
	p.downEdges = make([]graph.EdgeID, p.downOff[P])
	upCur := make([]int32, P)
	downCur := make([]int32, P)
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		if p.rank[ed.From] < p.rank[ed.To] {
			pi := findPair(ed.From, ed.To)
			p.upEdges[p.upOff[pi]+upCur[pi]] = graph.EdgeID(e)
			upCur[pi]++
		} else {
			pi := findPair(ed.To, ed.From)
			p.downEdges[p.downOff[pi]+downCur[pi]] = graph.EdgeID(e)
			downCur[pi]++
		}
	}

	p.arcFrom = make([]graph.NodeID, 2*P)
	for i := 0; i < P; i++ {
		p.arcFrom[2*i] = p.lo[i]
		p.arcFrom[2*i+1] = p.hi[i]
	}

	// Elimination tree: a node's parent is its lowest-ranked upward
	// neighbor — the first of its pair group, which is sorted ascending by
	// rank of the upper endpoint. Depths follow in one descending-rank
	// pass (a parent always outranks its children, so it is final first).
	parent := make([]graph.NodeID, n)
	depth := make([]int32, n)
	for v := 0; v < n; v++ {
		if pairStart[v] < pairEnd[v] {
			parent[v] = p.hi[pairStart[v]]
		} else {
			parent[v] = graph.InvalidNode
		}
	}
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		if parent[v] >= 0 {
			depth[v] = depth[parent[v]] + 1
		}
	}
	p.elim = &ch.ElimTree{Parent: parent, Depth: depth}

	p.computeLevels()
	p.soa.New = func() any {
		return &soaScratch{upW: make([]float64, P), downW: make([]float64, P)}
	}
	return p
}

// forEachTriangle enumerates every lower triangle: for each node z, every
// two of its pairs {z,a}, {z,b} (rank[a] < rank[b]) are the constituent
// sides of a triangle of pair {a,b}.
func forEachTriangle(p *Preprocessed, pairStart, pairEnd []int32, visit func(abPair, zaPair, zbPair int32), findPair func(a, b graph.NodeID) int32) {
	n := p.g.NumNodes()
	for z := graph.NodeID(0); int(z) < n; z++ {
		lo, hi := pairStart[z], pairEnd[z]
		for i := lo; i < hi; i++ {
			for j := i + 1; j < hi; j++ {
				// p.hi sorted by rank: hi[i] is the lower endpoint of the
				// target pair.
				visit(findPair(p.hi[i], p.hi[j]), i, j)
			}
		}
	}
}

// sortByRank sorts nodes ascending by rank (insertion sort: the lists are
// the upward degrees of one node, short in practice).
func sortByRank(xs []graph.NodeID, rank []int32) {
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		j := i - 1
		for j >= 0 && rank[xs[j]] > rank[x] {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = x
	}
}

// OrderKind reports which nested-dissection pipeline produced this
// contraction's order.
func (p *Preprocessed) OrderKind() OrderKind { return p.orderKind }

// NumPairs returns the number of chordal arc pairs (each carries an
// upward and a downward weight slot).
func (p *Preprocessed) NumPairs() int { return len(p.lo) }

// NumTriangles returns the number of precomputed lower triangles — the
// unit of Customize work.
func (p *Preprocessed) NumTriangles() int { return len(p.triLoSide) }

// Rank returns the nested-dissection contraction order (higher = more
// important). The slice aliases internal storage.
func (p *Preprocessed) Rank() []int32 { return p.rank }

// ElimTree returns the elimination tree of the chordal supergraph — the
// root-path topology the heap-free query engine ascends. Shared by every
// customization; immutable.
func (p *Preprocessed) ElimTree() *ch.ElimTree { return p.elim }
