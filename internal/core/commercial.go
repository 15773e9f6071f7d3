package core

import (
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/sp"
	"repro/internal/weights"
)

// Commercial simulates the commercial navigation provider of the study
// (Google Maps). The real provider could not be reproduced: its routing
// data is proprietary real-time/historical traffic, and it cannot be
// forced to run on OpenStreetMap data (paper footnote 1). This stand-in
// preserves the two properties the study identifies as the provider's
// distinguishing behaviour:
//
//  1. It plans on *different underlying data* — a private traffic-aware
//     weight metric (see the traffic package) rather than the public
//     OSM-derived weights. Its routes are optimal under its own data but
//     may look like detours when judged under OSM data, recreating the
//     Fig. 4 confound. Under live serving that private metric is a
//     versioned store: every query resolves the provider's current
//     traffic snapshot, exactly the "route rankings flip as traffic
//     changes" behaviour the paper could only observe from outside.
//  2. It applies extra ranking criteria beyond travel time — fewer turns
//     and wider roads — the refinements §IV-C speculates a commercial
//     product would have engineered.
//
// Internally it generates a large candidate pool with the plateau method
// on its private weights, scores candidates by private travel time
// inflated by turn-count and narrow-road penalties, greedily picks a
// diverse top-K, and finally reports travel times under the public
// weights, exactly as the paper's query processor timed Google's routes
// with OSM data.
//
// Like a real engine it also applies the §II-B tree optimisations: by
// default its plateau trees are elliptically pruned to the UpperBound
// reachable region (sp.BuildPrunedTree) — disable with
// Options.DisablePrunedTrees — and Options.TreeBackend == TreeCH switches
// to full PHAST trees swept out of a contraction hierarchy over the
// private weights (re-customized in the background as traffic versions
// are published).
type Commercial struct {
	g      *graph.Graph
	public []float64 // OSM-derived weights used for reported travel times
	opts   Options
	prov   *provider // private-metric snapshots + per-version trees
	// ranking criteria weights
	turnPenalty   float64 // fractional cost increase per significant turn
	narrowPenalty float64 // fractional cost increase for single-lane average
	maxPairwise   float64 // candidate diversity cutoff
	diversityBias float64 // score inflation per unit of overlap with picks
	poolSize      int     // plateau candidates considered before ranking
}

// NewCommercial returns the simulated commercial provider. The private
// metric it plans on comes from Options.Weights (a live store or pinned
// snapshot); when that is nil, private must hold one weight per edge (the
// provider's own view of travel times, typically produced by
// traffic.Apply) and is pinned.
func NewCommercial(g *graph.Graph, private []float64, opts Options) *Commercial {
	opts = opts.withDefaults()
	src := opts.Weights
	if src == nil {
		src = weights.Pin(private)
	}
	c := &Commercial{
		g:             g,
		public:        g.BaseWeights(),
		opts:          opts,
		turnPenalty:   0.015,
		narrowPenalty: 0.10,
		maxPairwise:   0.80,
		diversityBias: 0.45,
		poolSize:      16,
	}
	pruned := !opts.TreeBackend.usesHierarchy() && !opts.DisablePrunedTrees
	c.prov = newProvider(g, src, true, pruned, nil, opts)
	return c
}

// Name implements Planner.
func (c *Commercial) Name() string { return "GMaps" }

// WeightsVersion implements VersionedPlanner: the version of the
// *private* traffic metric, the one that changes under live serving.
func (c *Commercial) WeightsVersion() weights.Version { return c.prov.weightsVersion() }

func (c *Commercial) refreshAsync() { c.prov.refreshAsync() }
func (c *Commercial) refreshSync()  { c.prov.refreshSync() }

func (c *Commercial) servingVersion() weights.Version { return c.prov.servingVersion() }

func (c *Commercial) weightsSource() weights.Source { return c.prov.src }

// HierarchyStatus reports the hierarchy serving this planner and
// its last customization latency (zero off the TreeCH backend).
func (c *Commercial) HierarchyStatus() HierarchyStatus { return c.prov.hierarchyStatus() }

// setMetrics sinks the bundle's customization and selection observers
// into the private-metric provider (Router.SetMetrics fan-out).
func (c *Commercial) setMetrics(m *Metrics) {
	c.prov.setMetrics(m.customizeObserver(c.Name()), m.selectionObserver())
}

// Alternatives implements Planner.
func (c *Commercial) Alternatives(s, t graph.NodeID) ([]path.Path, error) {
	routes, _, err := c.AlternativesVersioned(s, t)
	return routes, err
}

// AlternativesVersioned implements VersionedPlanner.
func (c *Commercial) AlternativesVersioned(s, t graph.NodeID) ([]path.Path, weights.Version, error) {
	if err := validateQuery(c.g, s, t); err != nil {
		return nil, 0, err
	}
	v := c.prov.view()
	private := v.snap.Weights()
	ver := v.snap.Version()
	if s == t {
		return trivialQuery(c.g, c.public, s), ver, nil
	}
	ws := sp.GetWorkspace()
	defer ws.Release()
	fwd, bwd, ok := v.trees.BuildTrees(ws, s, t)
	if !ok {
		return nil, ver, ErrNoRoute
	}
	fastestPrivate := fwd.Dist[t]

	// Candidate pool: plateau routes under the provider's private data.
	sc := getPlateauScratch()
	defer putPlateauScratch(sc)
	plateaus := findPlateausInto(sc, c.g, private, fwd, bwd)
	sortPlateaus(plateaus)

	type scored struct {
		p     path.Path // timed under private weights during selection
		score float64
	}
	var pool []scored
	buf := ws.PathBuf()
	for _, pl := range plateaus {
		if len(pool) >= c.poolSize {
			break
		}
		if pl.RouteCostS > c.opts.UpperBound*fastestPrivate+1e-9 {
			continue
		}
		var cand path.Path
		buf, cand, ok = assemblePlateauRoute(buf, c.g, private, fwd, bwd, pl)
		if !ok {
			continue
		}
		dup := false
		for i := range pool {
			if path.Equal(cand, pool[i].p) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		// The pool outlives the assembly buffer; own the edges.
		cand.Edges = append([]graph.EdgeID(nil), cand.Edges...)
		pool = append(pool, scored{p: cand, score: c.score(cand)})
	}
	ws.KeepPathBuf(buf)
	if len(pool) == 0 {
		return nil, ver, ErrNoRoute
	}
	// The provider's best route (its fastest) always comes first; the rest
	// of the pool is re-ranked by the engineered goodness score.
	sort.SliceStable(pool[1:], func(i, j int) bool {
		return pool[1+i].score < pool[1+j].score
	})

	// Greedy diverse selection: the provider's fastest route first, then
	// repeatedly the candidate with the best similarity-inflated score —
	// overlap with already-picked routes makes a candidate less
	// attractive, and near-duplicates (above the pairwise cutoff) are
	// excluded outright.
	selected := []path.Path{pool[0].p}
	remaining := pool[1:]
	for len(selected) < c.opts.K {
		bestIdx := -1
		bestEff := math.Inf(1)
		for i := range remaining {
			if remaining[i].p.Edges == nil {
				continue
			}
			sim := path.MaxSimilarityTo(c.g, remaining[i].p, selected)
			if sim > c.maxPairwise {
				continue
			}
			if eff := remaining[i].score * (1 + c.diversityBias*sim); eff < bestEff {
				bestEff, bestIdx = eff, i
			}
		}
		if bestIdx < 0 {
			break
		}
		selected = append(selected, remaining[bestIdx].p)
		remaining[bestIdx].p.Edges = nil // consumed
	}
	// Report with public (OSM) travel times, as the study's query
	// processor does for every approach.
	out := make([]path.Path, len(selected))
	for i, p := range selected {
		out[i] = path.MustNew(c.g, c.public, s, p.Edges)
	}
	return out, ver, nil
}

// score is the provider's goodness function: private travel time inflated
// by zig-zag and narrow-road penalties.
func (c *Commercial) score(p path.Path) float64 {
	turns := float64(path.TurnCount(c.g, p, 45))
	lanes := path.MeanLanes(c.g, p)
	narrow := 0.0
	if lanes > 0 {
		narrow = c.narrowPenalty / lanes
	}
	return p.TimeS * (1 + c.turnPenalty*turns) * (1 + narrow)
}
