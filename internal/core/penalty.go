package core

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/sp"
	"repro/internal/weights"
)

// Penalty implements the penalty-based alternative-route technique
// (Akgün et al. 2000; Chen et al. 2007): iteratively compute the shortest
// path, then multiply the weight of every edge on it by the penalty factor
// so the next iteration is steered onto different roads. The iteration
// stops once K distinct routes are collected or the iteration budget is
// exhausted.
//
// Following the paper's configuration, routes are reported with travel
// times under the *original* weights and no upper-bound filter is applied
// unless Options.ApplyUpperBoundToPenalty is set. Each query resolves the
// current weight snapshot from Options.Weights and penalizes a private
// working copy of it (pooled, so warm queries do not allocate one), so
// the planner follows live traffic without any per-version state of its
// own. Penalty always searches with Dijkstra and ignores
// Options.TreeBackend: every iteration plans on different weights.
type Penalty struct {
	g    *graph.Graph
	src  weights.Source
	opts Options
	// maxIterations bounds the search when penalised reroutes keep
	// rediscovering known paths; 4·K+4 is generous for road networks.
	maxIterations int
	// work pools the per-query penalized weight copies (*[]float64, one
	// weight per edge).
	work sync.Pool
}

// NewPenalty returns a Penalty planner over g planning on Options.Weights
// (nil pins the graph's base travel-time weights).
func NewPenalty(g *graph.Graph, opts Options) *Penalty {
	o := opts.withDefaults()
	p := &Penalty{
		g:             g,
		src:           resolveSource(g, o.Weights),
		opts:          o,
		maxIterations: 4*o.K + 4,
	}
	p.work.New = func() any {
		w := make([]float64, g.NumEdges())
		return &w
	}
	return p
}

// Name implements Planner.
func (p *Penalty) Name() string { return "Penalty" }

// WeightsVersion implements VersionedPlanner.
func (p *Penalty) WeightsVersion() weights.Version { return p.src.Snapshot().Version() }

func (p *Penalty) weightsSource() weights.Source { return p.src }

// Alternatives implements Planner.
func (p *Penalty) Alternatives(s, t graph.NodeID) ([]path.Path, error) {
	routes, _, err := p.AlternativesVersioned(s, t)
	return routes, err
}

// AlternativesVersioned implements VersionedPlanner.
func (p *Penalty) AlternativesVersioned(s, t graph.NodeID) ([]path.Path, weights.Version, error) {
	if err := validateQuery(p.g, s, t); err != nil {
		return nil, 0, err
	}
	snap := p.src.Snapshot()
	base := snap.Weights()
	ver := snap.Version()
	if s == t {
		return trivialQuery(p.g, base, s), ver, nil
	}
	wp := p.work.Get().(*[]float64)
	defer p.work.Put(wp)
	work := *wp
	copy(work, base)
	ws := sp.GetWorkspace()
	defer ws.Release()

	var routes []path.Path
	var fastest float64
	for iter := 0; iter < p.maxIterations && len(routes) < p.opts.K; iter++ {
		// The returned edge slice aliases the workspace and stays valid
		// until the next search; admitted routes copy it below.
		edges, _ := sp.ShortestPathInto(ws, p.g, work, s, t)
		if edges == nil {
			break
		}
		// Evaluate and report the route under the original weights.
		cand := path.MustNew(p.g, base, s, edges)
		if iter == 0 {
			fastest = cand.TimeS
		}
		ok := admit(p.g, cand, routes, p.opts.SimilarityCutoff)
		if ok && p.opts.ApplyUpperBoundToPenalty && fastest > 0 &&
			cand.TimeS > p.opts.UpperBound*fastest {
			ok = false
		}
		if ok && !admitLocalOpt(p.g, base, cand, fastest, p.opts) {
			ok = false
		}
		if ok {
			cand.Edges = append([]graph.EdgeID(nil), edges...)
			routes = append(routes, cand)
		}
		// Penalize the found path's edges (both directions of each road
		// segment) so the next iteration prefers different streets.
		p.penalize(work, edges)
	}
	if len(routes) == 0 {
		return nil, ver, ErrNoRoute
	}
	return routes, ver, nil
}

func (p *Penalty) penalize(work []float64, edges []graph.EdgeID) {
	for _, e := range edges {
		work[e] *= p.opts.PenaltyFactor
		ed := p.g.Edge(e)
		if rev := p.g.FindEdge(ed.To, ed.From); rev >= 0 {
			work[rev] *= p.opts.PenaltyFactor
		}
	}
}
