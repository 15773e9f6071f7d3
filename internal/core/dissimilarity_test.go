package core

import (
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/sp"
)

// uniformGrid builds a rows×cols grid of two-way residential streets on
// 150 m blocks. Uniform speeds make the admissible geometric bound tight,
// so short queries get small elliptic selections.
func uniformGrid(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(rows*cols, 0)
	o := geo.Point{Lat: -37.81, Lon: 144.96}
	id := func(r, c int) graph.NodeID { return graph.NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddNode(geo.Offset(o, float64(r)*150, float64(c)*150))
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(graph.EdgeSpec{From: id(r, c), To: id(r, c+1), Class: graph.Residential, TwoWay: true})
			}
			if r+1 < rows {
				b.AddEdge(graph.EdgeSpec{From: id(r, c), To: id(r+1, c), Class: graph.Residential, TwoWay: true})
			}
		}
	}
	return b.Build()
}

// TestDissimilarityWarmAllocs pins the candidate scan's allocation
// profile: on a warm TreeCH query (full PHAST trees into the pooled
// workspace, pooled marks and candidate list) the only allocations left
// are the returned routes' own node and edge slices plus the result
// slice.
func TestDissimilarityWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := uniformGrid(40, 40)
	pl := NewPlateaus(g, Options{TreeBackend: TreeCH})
	d := NewDissimilarityFor(pl)
	s, dst := graph.NodeID(15*40+15), graph.NodeID(19*40+20)
	routes, err := d.Alternatives(s, dst)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := d.Alternatives(s, dst); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(2*len(routes) + 4); allocs > limit {
		t.Fatalf("warm Dissimilarity query allocates %v times for %d routes, want ≤ %v", allocs, len(routes), limit)
	}
}

// referenceDissimilarity is the map-based SSVP-D+ scan the pooled one
// replaced: every candidate materialized as a path.Path, simplicity by a
// seen map, the union share by path.UnionShare. The candidate scan must
// keep returning its route sets exactly.
type referenceDissimilarity struct {
	g    *graph.Graph
	w    []float64
	opts Options
}

func (r referenceDissimilarity) Name() string { return "reference Dissimilarity" }

func (r referenceDissimilarity) Alternatives(s, t graph.NodeID) ([]path.Path, error) {
	fwd := sp.BuildTree(r.g, r.w, s, sp.Forward)
	if !fwd.Reached(t) {
		return nil, ErrNoRoute
	}
	bwd := sp.BuildTree(r.g, r.w, t, sp.Backward)
	fastest := fwd.Dist[t]
	var cands []viaCand
	for v := graph.NodeID(0); int(v) < r.g.NumNodes(); v++ {
		if c := fwd.Dist[v] + bwd.Dist[v]; fwd.Reached(v) && bwd.Reached(v) && c <= r.opts.UpperBound*fastest+1e-9 {
			cands = append(cands, viaCand{v, c})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		return cands[i].node < cands[j].node
	})
	onSelected := make(map[graph.NodeID]bool)
	var routes []path.Path
	for _, c := range cands {
		if len(routes) >= r.opts.K {
			break
		}
		if onSelected[c.node] {
			continue
		}
		cand, err := path.New(r.g, r.w, s, append(fwd.PathTo(r.g, c.node), bwd.PathTo(r.g, c.node)...))
		if err != nil {
			continue
		}
		seen := make(map[graph.NodeID]bool)
		simple := true
		for _, v := range cand.Nodes {
			simple = simple && !seen[v]
			seen[v] = true
		}
		if !simple || path.UnionShare(r.g, cand, routes) >= 1-r.opts.Theta ||
			!admit(r.g, cand, routes, r.opts.SimilarityCutoff) ||
			!admitLocalOpt(r.g, r.w, cand, fastest, r.opts) {
			continue
		}
		routes = append(routes, cand)
		for _, v := range cand.Nodes {
			onSelected[v] = true
		}
	}
	if len(routes) == 0 {
		return nil, ErrNoRoute
	}
	return routes, nil
}

// TestDissimilarityMatchesReference pins the pooled candidate scan to
// the reference scan across thresholds, K and the optional refinements,
// on tie-free networks under closure snapshots.
func TestDissimilarityMatchesReference(t *testing.T) {
	variants := []Options{
		{},
		{Theta: 0.2},
		{Theta: 0.8, K: 5},
		{SimilarityCutoff: 0.4, LocalOptimalityWindow: 0.3},
	}
	for seed := int64(0); seed < 3; seed++ {
		g := randomRoadNetwork(seed+700, 150)
		snap := closureSnapshot(g, seed+800)
		for i, o := range variants {
			o.Weights = snap
			ref := referenceDissimilarity{g: g, w: snap.Weights(), opts: o.withDefaults()}
			comparePlannersExact(t, ref, NewDissimilarity(g, o), g, 12, seed*10+int64(i))
		}
	}
}

// TestSegmentIDsMatchSegmentKey checks the canonical segment ids against
// the unordered-node-pair equivalence path.UnionShare keys on: both
// directions and parallel edges of one road share an id, distinct roads
// never do.
func TestSegmentIDsMatchSegmentKey(t *testing.T) {
	g := randomRoadNetwork(9, 200)
	seg := segmentIDs(g)
	byPair := make(map[[2]graph.NodeID]graph.EdgeID)
	pairOf := make(map[graph.EdgeID][2]graph.NodeID)
	for e := range seg {
		ed := g.Edge(graph.EdgeID(e))
		k := [2]graph.NodeID{min(ed.From, ed.To), max(ed.From, ed.To)}
		if id, ok := byPair[k]; ok && id != seg[e] {
			t.Fatalf("edge %d on road %v has segment %d, another edge on it has %d", e, k, seg[e], id)
		}
		if other, ok := pairOf[seg[e]]; ok && other != k {
			t.Fatalf("segment %d joins roads %v and %v", seg[e], other, k)
		}
		byPair[k], pairOf[seg[e]] = seg[e], k
	}
}
