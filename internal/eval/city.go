// Package eval is the experiment harness: it assembles the per-city study
// setup (network, planners, traffic data), samples query workloads
// stratified by the paper's route-length bands, replays the 520-response
// study schedule through the simulated raters, and formats Table I
// (ratings + ANOVA) and Table II (route similarity) in the paper's layout.
package eval

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/citygen"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/simstudy"
	"repro/internal/sp"
	"repro/internal/spatial"
	"repro/internal/telemetry"
	"repro/internal/traffic"
	"repro/internal/weights"
)

// NumApproaches is the number of compared techniques (Table I columns).
const NumApproaches = 4

// City bundles everything needed to answer study queries for one city:
// the network, the versioned weight stores, the planner set, and the
// Router that serves them under live traffic.
type City struct {
	Profile citygen.Profile
	Graph   *graph.Graph
	Index   *spatial.Index
	// Public is the OSM-derived weight vector (displayed travel times),
	// as initially published to PublicStore.
	Public []float64
	// Traffic is the initial real-traffic weight vector (rush-hour step
	// 0): the commercial provider plans on the TrafficStore this vector
	// seeds, and resident raters partially judge by the store's current
	// snapshot (TrafficNow).
	Traffic []float64
	// PublicStore versions the public OSM metric (road closures publish
	// here); Plateaus, Dissimilarity and Penalty plan on it.
	PublicStore *weights.Store
	// TrafficStore versions the provider's private traffic metric; the
	// Commercial planner plans on it and Seq publishes into it.
	TrafficStore *weights.Store
	// Seq is the deterministic rush-hour producer feeding TrafficStore.
	Seq *traffic.Sequence
	// Planners in Table I column order: GMaps, Plateaus, Dissimilarity,
	// Penalty.
	Planners [NumApproaches]core.Planner
	// Router is the serving layer: it owns the engine (with its versioned
	// result cache), subscribes to both stores, and swaps planner weight
	// versions atomically on publish. A nil Router falls back to a shared
	// process-wide engine, so hand-assembled Cities keep working.
	Router *core.Router
	// Matrix is the many-to-many engine behind POST /api/matrix and the
	// matrix ablations. It shares the Plateaus planner's weight provider
	// (same hierarchy, same versions, same selection cache), so matrix
	// responses and point-to-point answers can never disagree on the
	// serving snapshot. Nil on hand-assembled Cities.
	Matrix *core.MatrixEngine
	// Ingest is the telemetry ingest path behind POST /api/observations:
	// streamed per-edge observations (observed speeds, incident closures)
	// publish into TrafficStore and decay back to the step-0 baseline.
	// It shares the store with Seq — the store's Update serialization
	// keeps the two producers' versions gapless. Nil on hand-assembled
	// Cities.
	Ingest *telemetry.Ingestor
}

// defaultEngine serves Cities assembled without NewCity.
var defaultEngine = core.NewEngine(0)

// SetEngine installs a shared engine (a multi-city deployment pools its
// workers this way) while keeping the Router's publish subscriptions.
// The matrix engine follows, so its sweep fan-out draws from the same
// worker pool as the planners.
func (c *City) SetEngine(e *core.Engine) {
	if c.Router != nil {
		c.Router.SetEngine(e)
	}
	if c.Matrix != nil {
		if pl, ok := c.Planners[1].(*core.Plateaus); ok {
			c.Matrix = core.NewMatrixEngineFor(pl, e)
		}
	}
}

// NewCity generates the city network and constructs the four planners
// with the paper's default options. seed controls both the synthetic
// network and the traffic field.
func NewCity(profile citygen.Profile, seed int64) (*City, error) {
	return NewCityOpts(profile, seed, core.Options{})
}

// NewCityOpts is NewCity with explicit planner options — the hook for
// deployment knobs like Options.TreeBackend (Dijkstra vs CH trees in the
// tree-based planners). Options.Weights is overridden per planner:
// the public store for the three OSM-metric approaches, the traffic
// store for the commercial stand-in. Dissimilarity and the matrix engine
// share the Plateaus planner's weight provider, so one customization per
// public publish serves all three.
func NewCityOpts(profile citygen.Profile, seed int64, opts core.Options) (*City, error) {
	g, err := profile.Generate(seed)
	if err != nil {
		return nil, err
	}
	seq := traffic.NewSequence(g, traffic.DefaultModel(uint64(seed)*2654435761+1), 0)
	tw := seq.WeightsAt(0)
	c := &City{
		Profile:      profile,
		Graph:        g,
		Index:        spatial.NewIndex(g, 16),
		Public:       g.BaseWeights(),
		Traffic:      tw,
		PublicStore:  weights.NewStore(g.BaseWeights()),
		TrafficStore: weights.NewStore(tw),
		Seq:          seq,
	}
	popts := opts
	popts.Weights = c.PublicStore
	topts := opts
	topts.Weights = c.TrafficStore
	plateaus := core.NewPlateaus(g, popts)
	c.Planners = [NumApproaches]core.Planner{
		core.NewCommercial(g, nil, topts),
		plateaus,
		core.NewDissimilarityFor(plateaus),
		core.NewPenalty(g, popts),
	}
	c.Router = core.NewRouter(core.NewEngine(0), c.Planners[:], c.PublicStore, c.TrafficStore)
	c.Matrix = core.NewMatrixEngineFor(plateaus, c.Router.Engine())
	c.Ingest = telemetry.NewIngestor(c.TrafficStore, tw, telemetry.Config{})
	return c, nil
}

// TrafficNow returns the provider's current private weight snapshot —
// what resident raters judge against under live traffic. It falls back
// to the initial Traffic vector for hand-assembled Cities.
func (c *City) TrafficNow() []float64 {
	if c.TrafficStore != nil {
		return c.TrafficStore.Latest().Weights()
	}
	return c.Traffic
}

// AdvanceTraffic produces the next rush-hour step and publishes it to the
// traffic store: the engine cache is invalidated, the commercial
// planner's hierarchy re-customizes in the background, and subsequent
// queries plan on the new snapshot.
func (c *City) AdvanceTraffic() *weights.Snapshot {
	return c.Seq.Advance(c.TrafficStore)
}

// Query is one s–t study query with its fastest (public) travel time and
// the route-length band it belongs to.
type Query struct {
	S, T       graph.NodeID
	FastestS   float64 // seconds, public weights
	FastestMin float64
	Band       simstudy.Band
}

// SampleQuery draws a uniform query whose fastest travel time falls in the
// given band for this city. It returns ok=false if no such pair was found
// within the attempt budget (which indicates a band unreachable on this
// network).
func (c *City) SampleQuery(rng *rand.Rand, band simstudy.Band) (Query, bool) {
	lo, hi := simstudy.BandBounds(c.Profile.Name, band)
	const maxAttempts = 40
	ws := sp.GetWorkspace()
	defer ws.Release()
	for attempt := 0; attempt < maxAttempts; attempt++ {
		s := graph.NodeID(rng.Intn(c.Graph.NumNodes()))
		tree := sp.BuildTreeInto(ws, c.Graph, c.Public, s, sp.Forward)
		var candidates []graph.NodeID
		for v := graph.NodeID(0); int(v) < c.Graph.NumNodes(); v++ {
			if v == s || !tree.Reached(v) {
				continue
			}
			min := tree.Dist[v] / 60
			if min > lo && min <= hi {
				candidates = append(candidates, v)
			}
		}
		if len(candidates) == 0 {
			continue
		}
		t := candidates[rng.Intn(len(candidates))]
		return Query{
			S:          s,
			T:          t,
			FastestS:   tree.Dist[t],
			FastestMin: tree.Dist[t] / 60,
			Band:       band,
		}, true
	}
	return Query{}, false
}

// RouteSets holds the four approaches' answers to one query, plus the
// weight snapshot version each answer was computed under (0 for planners
// without version tracking).
type RouteSets struct {
	Query
	Sets     [NumApproaches][]path.Path
	Versions [NumApproaches]weights.Version
}

// RunPlanners answers q with all four approaches, fanned out concurrently
// over the city's Router (see RunPlannersBatch).
func (c *City) RunPlanners(q Query) (RouteSets, error) {
	out, err := c.RunPlannersBatch([]Query{q})
	if err != nil {
		return RouteSets{}, err
	}
	return out[0], nil
}

// RunPlannersBatch answers many queries through the Router at once,
// keeping every worker busy across query boundaries — the shape of a
// heavily loaded deployment. The approaches planning on one weight store
// answer under one snapshot version even while publishes race. A planner
// error other than "no route" is returned; an empty set is recorded if a
// planner finds nothing (which cannot happen for queries sampled from the
// public weights, but is tolerated defensively). Results are in query
// order.
func (c *City) RunPlannersBatch(qs []Query) ([]RouteSets, error) {
	jobs := make([]core.Job, 0, len(qs)*NumApproaches)
	for _, q := range qs {
		for _, pl := range c.Planners {
			jobs = append(jobs, core.Job{Planner: pl, S: q.S, T: q.T})
		}
	}
	// The Router's version-consistency retry is what keeps approaches on
	// one store at one snapshot version while publishes race.
	var results []core.Result
	if c.Router != nil {
		results = c.Router.AlternativesBatch(jobs)
	} else {
		results = defaultEngine.AlternativesBatch(jobs)
	}
	out := make([]RouteSets, len(qs))
	for qi := range qs {
		out[qi].Query = qs[qi]
		for i := 0; i < NumApproaches; i++ {
			r := results[qi*NumApproaches+i]
			out[qi].Versions[i] = r.Version
			if r.Err == core.ErrNoRoute {
				continue
			}
			if r.Err != nil {
				return nil, fmt.Errorf("eval: %s on %d->%d: %w", c.Planners[i].Name(), qs[qi].S, qs[qi].T, r.Err)
			}
			out[qi].Sets[i] = r.Routes
		}
	}
	return out, nil
}

// FastestPrivate returns the fastest s–t travel time under the traffic
// weights, for feature extraction.
func (c *City) FastestPrivate(s, t graph.NodeID) float64 {
	ws := sp.GetWorkspace()
	defer ws.Release()
	_, d := sp.BidirectionalShortestPathInto(ws, c.Graph, c.TrafficNow(), s, t)
	return d
}

// Record is one study response with the objective measurements Table II
// needs alongside the ratings.
type Record struct {
	simstudy.Response
	// Sim is Eq. (1) Sim(T) per approach for this query's route sets.
	Sim [NumApproaches]float64
	// NumRoutes is the number of routes each approach reported.
	NumRoutes [NumApproaches]int
}

// RunCell generates n responses for one schedule cell on this city.
func (c *City) RunCell(cell simstudy.Cell, n int, params simstudy.RaterParams, rng *rand.Rand) ([]Record, error) {
	out := make([]Record, 0, n)
	for len(out) < n {
		q, ok := c.SampleQuery(rng, cell.Band)
		if !ok {
			return nil, fmt.Errorf("eval: %s: no %s-band queries exist on this network", c.Profile.Name, cell.Band)
		}
		rs, err := c.RunPlanners(q)
		if err != nil {
			return nil, err
		}
		fastPriv := c.FastestPrivate(q.S, q.T)
		if math.IsInf(fastPriv, 1) {
			continue // not mutually reachable under traffic weights; resample
		}
		rater := simstudy.NewRater(rng, cell.Resident, params)
		rec := Record{
			Response: simstudy.Response{
				Cell:       cell,
				FastestMin: q.FastestMin,
			},
		}
		var feats [NumApproaches]simstudy.Features
		for i := 0; i < NumApproaches; i++ {
			feats[i] = simstudy.ExtractFeatures(c.Graph, c.TrafficNow(), rs.Sets[i], q.FastestS, fastPriv)
			rec.Ratings[i] = rater.Rate(feats[i])
			rec.Sim[i] = path.SimT(c.Graph, rs.Sets[i])
			rec.NumRoutes[i] = len(rs.Sets[i])
		}
		rec.Comment = simstudy.Comment(rng, feats)
		out = append(out, rec)
	}
	return out, nil
}
