package core

import (
	"math"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/sp"
	"repro/internal/weights"
)

// Plateaus implements Cotares' Choice Routing technique (Jones, US patent
// 8,249,810; Abraham et al. 2013): build a forward shortest-path tree from
// the source and a backward tree from the target, join them, and extract
// "plateaus" — maximal chains of edges used by *both* trees. Every plateau
// spawns a candidate route: shortest path from s to the plateau's start,
// the plateau itself, then the shortest path from its end to t. Plateaus
// are ranked by the Cotares goodness score C − R (plateau cost minus
// generated route cost; 0 is best and is achieved exactly by the fastest
// path, which is itself a plateau).
//
// The planner resolves its weights per query from Options.Weights (a
// live-traffic store or a pinned snapshot; nil pins the graph's base
// weights), and how the two trees are built is pluggable (TreeSource):
// full Dijkstra searches by default, or PHAST sweeps over a contraction
// hierarchy with Options.TreeBackend == TreeCH — the §II-B optimisation
// that makes tree construction near-linear after a one-off preprocessing.
// Under TreeCH a new weight version re-customizes the hierarchy in the
// background while the old one keeps serving (see provider).
type Plateaus struct {
	g    *graph.Graph
	opts Options
	prov *provider
}

// NewPlateaus returns a Plateaus planner over g. With Options.TreeBackend
// == TreeCH the constructor contracts the current snapshot's hierarchy (a
// few ms per city network) so every query can build its trees with
// downward sweeps.
func NewPlateaus(g *graph.Graph, opts Options) *Plateaus {
	return newPlateaus(g, opts, false, nil)
}

// newPlateaus is the shared constructor: pruned selects elliptic tree
// pruning (ignored under TreeCH), wrap decorates each version's tree
// source (PrunedPlateaus' counting instrumentation).
func newPlateaus(g *graph.Graph, opts Options, pruned bool, wrap func(TreeSource) TreeSource) *Plateaus {
	opts = opts.withDefaults()
	return &Plateaus{
		g:    g,
		opts: opts,
		prov: newProvider(g, opts.Weights, true, pruned, wrap, opts),
	}
}

// Name implements Planner.
func (p *Plateaus) Name() string { return "Plateaus" }

// WeightsVersion implements VersionedPlanner.
func (p *Plateaus) WeightsVersion() weights.Version { return p.prov.weightsVersion() }

func (p *Plateaus) refreshAsync() { p.prov.refreshAsync() }
func (p *Plateaus) refreshSync()  { p.prov.refreshSync() }

func (p *Plateaus) servingVersion() weights.Version { return p.prov.servingVersion() }

func (p *Plateaus) weightsSource() weights.Source { return p.prov.src }

// HierarchyStatus reports the hierarchy serving this planner and
// its last customization latency (zero off the TreeCH backend).
func (p *Plateaus) HierarchyStatus() HierarchyStatus { return p.prov.hierarchyStatus() }

// setMetrics sinks the bundle's customization and selection observers
// into the planner's weight provider (Router.SetMetrics fan-out).
func (p *Plateaus) setMetrics(m *Metrics) {
	p.prov.setMetrics(m.customizeObserver(p.Name()), m.selectionObserver())
}

// Plateau is a maximal chain of edges that appears in both the forward and
// the backward shortest-path tree. Exposed for visualization (Fig. 1 of
// the paper) and tests.
type Plateau struct {
	Edges []graph.EdgeID
	Start graph.NodeID // end closer to the source
	End   graph.NodeID // end closer to the target
	CostS float64      // summed weight of the chain ("length" in the paper)
	// RouteCostS is the travel time of the route this plateau generates:
	// distF(Start) + CostS + distB(End).
	RouteCostS float64
}

// Score is the Cotares ranking quantity C − R: plateau cost minus route
// cost. It is ≤ 0; closer to 0 is better.
func (pl Plateau) Score() float64 { return pl.CostS - pl.RouteCostS }

// sortPlateaus ranks by score descending (closest to zero first); ties by
// route cost.
func sortPlateaus(plateaus []Plateau) {
	slices.SortFunc(plateaus, func(a, b Plateau) int {
		sa, sb := a.Score(), b.Score()
		switch {
		case sa > sb:
			return -1
		case sa < sb:
			return 1
		case a.RouteCostS < b.RouteCostS:
			return -1
		case a.RouteCostS > b.RouteCostS:
			return 1
		}
		return 0
	})
}

// Alternatives implements Planner.
func (p *Plateaus) Alternatives(s, t graph.NodeID) ([]path.Path, error) {
	routes, _, err := p.AlternativesVersioned(s, t)
	return routes, err
}

// AlternativesVersioned implements VersionedPlanner. The whole query —
// trees, plateau costs, bounds, reported times — runs under the single
// snapshot its view resolved, so answers stay internally consistent while
// publishes race.
func (p *Plateaus) AlternativesVersioned(s, t graph.NodeID) ([]path.Path, weights.Version, error) {
	if err := validateQuery(p.g, s, t); err != nil {
		return nil, 0, err
	}
	v := p.prov.view()
	base := v.snap.Weights()
	ver := v.snap.Version()
	if s == t {
		return trivialQuery(p.g, base, s), ver, nil
	}
	ws := sp.GetWorkspace()
	defer ws.Release()
	fwd, bwd, ok := v.trees.BuildTrees(ws, s, t)
	if !ok {
		return nil, ver, ErrNoRoute
	}
	fastest := fwd.Dist[t]

	sc := getPlateauScratch()
	defer putPlateauScratch(sc)
	plateaus := findPlateausInto(sc, p.g, base, fwd, bwd)
	sortPlateaus(plateaus)

	var routes []path.Path
	buf := ws.PathBuf()
	for _, pl := range plateaus {
		if len(routes) >= p.opts.K {
			break
		}
		if pl.RouteCostS > p.opts.UpperBound*fastest+1e-9 {
			continue
		}
		var cand path.Path
		buf, cand, ok = assemblePlateauRoute(buf, p.g, base, fwd, bwd, pl)
		if !ok {
			continue
		}
		if admit(p.g, cand, routes, p.opts.SimilarityCutoff) {
			cand.Edges = append([]graph.EdgeID(nil), cand.Edges...)
			routes = append(routes, cand)
		}
	}
	ws.KeepPathBuf(buf)
	if len(routes) == 0 {
		return nil, ver, ErrNoRoute
	}
	return routes, ver, nil
}

// FindPlateaus joins a forward and a backward shortest-path tree and
// returns all maximal plateau chains, unranked, with chain costs taken
// from the planner's current weight snapshot — callers on a live store
// should pin a snapshot (Options.Weights = weights.Pin(...)) and build
// their trees under it, or a publish between the tree builds and this
// call can mix metrics in the reported costs. Exposed for the Fig. 1
// walkthrough example and for tests of the plateau invariants; the
// returned plateaus own their storage. (The query path uses the pooled
// scratch variant findPlateausInto instead, under a single resolved
// view.)
func (p *Plateaus) FindPlateaus(fwd, bwd *sp.Tree) []Plateau {
	sc := getPlateauScratch()
	defer putPlateauScratch(sc)
	pls := findPlateausInto(sc, p.g, p.prov.view().snap.Weights(), fwd, bwd)
	if len(pls) == 0 {
		return nil
	}
	out := make([]Plateau, len(pls))
	copy(out, pls)
	backing := make([]graph.EdgeID, 0, len(sc.edges))
	for i := range out {
		mark := len(backing)
		backing = append(backing, out[i].Edges...)
		out[i].Edges = backing[mark:len(backing):len(backing)]
	}
	return out
}

// plateauScratch is the reusable storage of one plateau join: the chains,
// one shared edge backing, and the per-chain edge counts the single-pass
// walk records before the backing stops growing. Pooled so a warmed-up
// serving process joins trees with zero allocations.
type plateauScratch struct {
	plateaus []Plateau
	edges    []graph.EdgeID
	counts   []int32
}

var plateauPool = sync.Pool{New: func() any { return new(plateauScratch) }}

func getPlateauScratch() *plateauScratch { return plateauPool.Get().(*plateauScratch) }
func putPlateauScratch(sc *plateauScratch) {
	sc.plateaus = sc.plateaus[:0]
	sc.edges = sc.edges[:0]
	sc.counts = sc.counts[:0]
	plateauPool.Put(sc)
}

// findPlateausInto joins the trees in a single pass over the node set,
// writing into sc and returning its plateau slice (valid until the
// scratch is released). An edge e = (u,v) is a plateau edge iff it is the
// forward-tree edge into v and the backward-tree edge out of u. Each node
// therefore has at most one incoming plateau edge (its fwd parent) and
// one outgoing plateau edge (its bwd parent), so chains are simple paths
// walkable along bwd.Parent pointers — no maps, and each chain is walked
// exactly once: edges append to the shared scratch backing and the Edges
// views are fixed up after the walk, when the backing is final.
func findPlateausInto(sc *plateauScratch, g *graph.Graph, base []float64, fwd, bwd *sp.Tree) []Plateau {
	sc.plateaus = sc.plateaus[:0]
	sc.edges = sc.edges[:0]
	sc.counts = sc.counts[:0]
	isPlateau := func(e graph.EdgeID) bool {
		if e < 0 {
			return false
		}
		ed := g.Edge(e)
		return fwd.Parent[ed.To] == e && bwd.Parent[ed.From] == e
	}
	isHead := func(v graph.NodeID) bool {
		return isPlateau(bwd.Parent[v]) && !isPlateau(fwd.Parent[v])
	}
	for start := graph.NodeID(0); int(start) < g.NumNodes(); start++ {
		if !isHead(start) {
			continue // no chain leaving here, or interior/tail of one
		}
		pl := Plateau{Start: start}
		mark := len(sc.edges)
		cur := start
		for e := bwd.Parent[cur]; isPlateau(e); e = bwd.Parent[cur] {
			sc.edges = append(sc.edges, e)
			pl.CostS += base[e]
			cur = g.Edge(e).To
		}
		pl.End = cur
		if math.IsInf(fwd.Dist[pl.Start], 1) || math.IsInf(bwd.Dist[pl.End], 1) {
			sc.edges = sc.edges[:mark] // defensive; tree edges imply reachability
			continue
		}
		pl.RouteCostS = fwd.Dist[pl.Start] + pl.CostS + bwd.Dist[pl.End]
		sc.plateaus = append(sc.plateaus, pl)
		sc.counts = append(sc.counts, int32(len(sc.edges)-mark))
	}
	// Chains landed in the backing in discovery order, so the spans are
	// contiguous; materialize the Edges views now that appends are done.
	off := 0
	for i := range sc.plateaus {
		n := int(sc.counts[i])
		sc.plateaus[i].Edges = sc.edges[off : off+n : off+n]
		off += n
	}
	return sc.plateaus
}

// assemblePlateauRoute builds the full route for a plateau on buf: s
// →(fwd tree) Start, plateau chain, End →(bwd tree) t, evaluated under
// base. The returned Path's Edges alias buf — callers keeping the route
// beyond the next call must copy them — so rejected candidates cost no
// edge-slice allocations.
func assemblePlateauRoute(buf []graph.EdgeID, g *graph.Graph, base []float64, fwd, bwd *sp.Tree, pl Plateau) ([]graph.EdgeID, path.Path, bool) {
	buf = buf[:0]
	var ok bool
	if buf, ok = fwd.PathInto(buf, g, pl.Start); !ok {
		return buf, path.Path{}, false
	}
	buf = append(buf, pl.Edges...)
	if buf, ok = bwd.PathInto(buf, g, pl.End); !ok {
		return buf, path.Path{}, false
	}
	cand, err := path.New(g, base, fwd.Root, buf)
	if err != nil {
		return buf, path.Path{}, false
	}
	return buf, cand, true
}
