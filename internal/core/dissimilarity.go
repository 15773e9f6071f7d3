package core

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/sp"
	"repro/internal/weights"
)

// Dissimilarity implements the SSVP-D+ technique of Chondrogiannis et al.
// ("Finding k-dissimilar paths with minimum collective length", SIGSPATIAL
// 2018): generate candidate routes through via-nodes — the concatenation
// sp(s,u)+sp(u,t) for a via-node u — consider them in ascending order of
// their total travel time, and admit a candidate only if its similarity to
// every already-selected route is below the threshold θ. The fastest path
// (via-node = any node on it) is always selected first, so the result is a
// set of short routes that are pairwise dissimilar by construction.
//
// Both shortest-path trees are built once per query; every via-path is
// assembled from tree pointers, which keeps the approximation fast enough
// for interactive use (the exact problem is NP-hard). The trees come from
// the same weight provider as Plateaus' (TreeSource): full Dijkstra
// searches on TreeDijkstra, full PHAST sweeps on TreeCH, with the same
// per-version hierarchy double-buffering. The candidate
// scan rejects via-paths on pooled marks — node stamps for simplicity, a
// used-segment mark for the union share — before any path is built, so
// only admitted routes allocate.
type Dissimilarity struct {
	g    *graph.Graph
	opts Options
	prov *provider
	// segOf maps every edge to the canonical id of its road segment: the
	// lowest edge id joining the same unordered node pair, the
	// equivalence path.UnionShare keys on.
	segOf []graph.EdgeID
	// scratch pools the per-query candidate list and marks
	// (*dissimilarityScratch), sized to this planner's graph.
	scratch sync.Pool
}

// NewDissimilarity returns a Dissimilarity planner over g planning on
// Options.Weights (nil pins the graph's base travel-time weights) with
// trees from Options.TreeBackend. On a CH backend it builds its own
// hierarchy; NewDissimilarityFor shares Plateaus' instead.
func NewDissimilarity(g *graph.Graph, opts Options) *Dissimilarity {
	opts = opts.withDefaults()
	return newDissimilarity(g, opts, newProvider(g, opts.Weights, true, false, nil, opts))
}

// NewDissimilarityFor returns a Dissimilarity planner sharing an existing
// Plateaus planner's options and weight provider: same views, same
// hierarchy, so one customization per publish serves both planners. The
// shared provider keeps reporting its hierarchy status and customization
// metrics under Plateaus alone.
func NewDissimilarityFor(p *Plateaus) *Dissimilarity {
	return newDissimilarity(p.g, p.opts, p.prov)
}

func newDissimilarity(g *graph.Graph, opts Options, prov *provider) *Dissimilarity {
	d := &Dissimilarity{g: g, opts: opts, prov: prov, segOf: segmentIDs(g)}
	d.scratch.New = func() any { return new(dissimilarityScratch) }
	return d
}

// segmentIDs resolves every edge's canonical segment id by scanning the
// two endpoints' adjacency for parallel and reverse edges.
func segmentIDs(g *graph.Graph) []graph.EdgeID {
	seg := make([]graph.EdgeID, g.NumEdges())
	for e := range seg {
		ed := g.Edge(graph.EdgeID(e))
		id := graph.EdgeID(e)
		for _, o := range g.OutEdges(ed.From) {
			if o < id && g.Edge(o).To == ed.To {
				id = o
			}
		}
		for _, o := range g.InEdges(ed.From) {
			if o < id && g.Edge(o).From == ed.To {
				id = o
			}
		}
		seg[e] = id
	}
	return seg
}

// Name implements Planner.
func (d *Dissimilarity) Name() string { return "Dissimilarity" }

// WeightsVersion implements VersionedPlanner.
func (d *Dissimilarity) WeightsVersion() weights.Version { return d.prov.weightsVersion() }

func (d *Dissimilarity) refreshAsync() { d.prov.refreshAsync() }
func (d *Dissimilarity) refreshSync()  { d.prov.refreshSync() }

func (d *Dissimilarity) servingVersion() weights.Version { return d.prov.servingVersion() }

func (d *Dissimilarity) weightsSource() weights.Source { return d.prov.src }

// Alternatives implements Planner.
func (d *Dissimilarity) Alternatives(s, t graph.NodeID) ([]path.Path, error) {
	routes, _, err := d.AlternativesVersioned(s, t)
	return routes, err
}

// viaCand is one candidate via-node with its via-path cost.
type viaCand struct {
	node graph.NodeID
	cost float64
}

// AlternativesVersioned implements VersionedPlanner. Trees, costs and
// reported times all come from the single view the query resolved.
func (d *Dissimilarity) AlternativesVersioned(s, t graph.NodeID) ([]path.Path, weights.Version, error) {
	if err := validateQuery(d.g, s, t); err != nil {
		return nil, 0, err
	}
	v := d.prov.view()
	base := v.snap.Weights()
	ver := v.snap.Version()
	if s == t {
		return trivialQuery(d.g, base, s), ver, nil
	}
	ws := sp.GetWorkspace()
	defer ws.Release()
	fwd, bwd, ok := v.trees.BuildTrees(ws, s, t)
	if !ok {
		return nil, ver, ErrNoRoute
	}
	fastest := fwd.Dist[t]
	bound := d.opts.UpperBound * fastest

	sc := d.scratch.Get().(*dissimilarityScratch)
	defer d.scratch.Put(sc)
	sc.begin(d.g)

	// Candidate via-nodes: every node whose via-path meets the upper
	// bound, in ascending via-path cost order. The target itself yields
	// the fastest path and sorts first (cost == fastest).
	cands := sc.cands[:0]
	for v := graph.NodeID(0); int(v) < d.g.NumNodes(); v++ {
		if !fwd.Reached(v) || !bwd.Reached(v) {
			continue
		}
		c := fwd.Dist[v] + bwd.Dist[v]
		if c <= bound+1e-9 {
			cands = append(cands, viaCand{v, c})
		}
	}
	slices.SortFunc(cands, func(a, b viaCand) int {
		if c := cmp.Compare(a.cost, b.cost); c != 0 {
			return c
		}
		return cmp.Compare(a.node, b.node)
	})
	sc.cands = cands

	var routes []path.Path
	buf := ws.PathBuf()
	for _, c := range cands {
		if len(routes) >= d.opts.K {
			break
		}
		// Via-nodes on a selected route regenerate (a superpath of) that
		// route, so they are skipped cheaply — the "+" pruning of SSVP-D+.
		if sc.selected[c.node] == sc.query {
			continue
		}
		if buf, ok = viaEdges(buf, d.g, fwd, bwd, c.node); !ok {
			continue
		}
		if !sc.simple(d.g, s, buf) {
			continue
		}
		// Admission: dis(p, P) > θ, with dis = 1 − (fraction of p running
		// on roads already used by P). Equivalently the candidate must be
		// more than θ new road. This also bounds every pairwise Eq. (1)
		// similarity below θ.
		if sc.unionShare(d.g, d.segOf, buf, len(routes)) >= 1-d.opts.Theta {
			continue
		}
		cand, err := path.New(d.g, base, s, buf)
		if err != nil {
			continue
		}
		if !admit(d.g, cand, routes, d.opts.SimilarityCutoff) {
			continue
		}
		if !admitLocalOpt(d.g, base, cand, fastest, d.opts) {
			continue
		}
		cand.Edges = slices.Clone(buf)
		routes = append(routes, cand)
		sc.markSelected(d.segOf, cand)
	}
	ws.KeepPathBuf(buf)
	if len(routes) == 0 {
		return nil, ver, ErrNoRoute
	}
	return routes, ver, nil
}

// viaEdges assembles sp(s,u) + sp(u,t) from the two trees into buf.
func viaEdges(buf []graph.EdgeID, g *graph.Graph, fwd, bwd *sp.Tree, u graph.NodeID) ([]graph.EdgeID, bool) {
	buf = buf[:0]
	var ok bool
	if buf, ok = fwd.PathInto(buf, g, u); !ok {
		return buf, false
	}
	return bwd.PathInto(buf, g, u)
}

// dissimilarityScratch is the reusable state of one candidate scan. The
// marks are epoch-stamped so no query clears an O(n) array: selected and
// used hold the query epoch on the nodes and segments of admitted routes,
// visited holds the candidate epoch on the nodes of the via-path under
// test.
type dissimilarityScratch struct {
	cands    []viaCand
	selected []uint32 // by node
	used     []uint32 // by canonical segment id
	visited  []uint32 // by node
	query    uint32
	cand     uint32
}

// begin sizes the marks to g and opens a new query epoch.
func (sc *dissimilarityScratch) begin(g *graph.Graph) {
	if len(sc.selected) != g.NumNodes() || len(sc.used) != g.NumEdges() {
		sc.selected = make([]uint32, g.NumNodes())
		sc.visited = make([]uint32, g.NumNodes())
		sc.used = make([]uint32, g.NumEdges())
		sc.query, sc.cand = 0, 0
	}
	if sc.query++; sc.query == 0 {
		clear(sc.selected)
		clear(sc.used)
		sc.query = 1
	}
}

// simple reports whether edges form a contiguous path from s that visits
// no node twice — SSVP's simple-path requirement, rejecting via-paths
// whose two halves overlap.
func (sc *dissimilarityScratch) simple(g *graph.Graph, s graph.NodeID, edges []graph.EdgeID) bool {
	if sc.cand++; sc.cand == 0 {
		clear(sc.visited)
		sc.cand = 1
	}
	sc.visited[s] = sc.cand
	cur := s
	for _, e := range edges {
		ed := g.Edge(e)
		if ed.From != cur || sc.visited[ed.To] == sc.cand {
			return false
		}
		cur = ed.To
		sc.visited[cur] = sc.cand
	}
	return true
}

// unionShare is path.UnionShare of edges against the admitted routes,
// read off the used-segment mark: the same length sums in the same order,
// so the admission decision is bit-identical.
func (sc *dissimilarityScratch) unionShare(g *graph.Graph, segOf, edges []graph.EdgeID, admitted int) float64 {
	if admitted == 0 || len(edges) == 0 {
		return 0
	}
	var shared, total float64
	for _, e := range edges {
		l := g.Edge(e).LengthM
		total += l
		if sc.used[segOf[e]] == sc.query {
			shared += l
		}
	}
	if total == 0 {
		return 0
	}
	return shared / total
}

// markSelected records an admitted route's nodes and segments.
func (sc *dissimilarityScratch) markSelected(segOf []graph.EdgeID, p path.Path) {
	for _, v := range p.Nodes {
		sc.selected[v] = sc.query
	}
	for _, e := range p.Edges {
		sc.used[segOf[e]] = sc.query
	}
}
