package spatial

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/graph"
)

func randomGraph(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, 0)
	for i := 0; i < n; i++ {
		b.AddNode(geo.Point{
			Lat: -37.9 + rng.Float64()*0.2,
			Lon: 144.9 + rng.Float64()*0.3,
		})
	}
	return b.Build()
}

// bruteNearest is the O(n) reference implementation.
func bruteNearest(g *graph.Graph, p geo.Point) (graph.NodeID, float64) {
	best := graph.InvalidNode
	bestD := math.Inf(1)
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if d := geo.Haversine(p, g.Point(v)); d < bestD {
			best, bestD = v, d
		}
	}
	return best, bestD
}

func TestNearestMatchesBruteForce(t *testing.T) {
	g := randomGraph(500, 42)
	idx := NewIndex(g, 16)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		p := geo.Point{
			Lat: -37.95 + rng.Float64()*0.3,
			Lon: 144.85 + rng.Float64()*0.4,
		}
		gotV, gotD := idx.Nearest(p)
		_, wantD := bruteNearest(g, p)
		// Ties in distance may resolve to different vertices; distances must match.
		if math.Abs(gotD-wantD) > 1e-6 {
			t.Fatalf("query %d at %v: grid dist %f, brute dist %f (node %d)", i, p, gotD, wantD, gotV)
		}
	}
}

func TestNearestExactHit(t *testing.T) {
	g := randomGraph(100, 1)
	idx := NewIndex(g, 8)
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		got, d := idx.Nearest(g.Point(v))
		if d > 1e-6 {
			t.Fatalf("querying node %d's own position returned node %d at %f m", v, got, d)
		}
	}
}

func TestNearestFarOutsideBBox(t *testing.T) {
	g := randomGraph(50, 3)
	idx := NewIndex(g, 8)
	// Query from Dhaka against a Melbourne graph: must still return something.
	v, d := idx.Nearest(geo.Point{Lat: 23.8, Lon: 90.4})
	if v == graph.InvalidNode {
		t.Fatal("Nearest must always succeed on a non-empty graph")
	}
	if d < 1000_000 {
		t.Errorf("distance to Melbourne should exceed 1000 km, got %f m", d)
	}
}

func TestNearestWithin(t *testing.T) {
	g := randomGraph(50, 5)
	idx := NewIndex(g, 8)
	p := g.Point(0)
	if v, _ := idx.NearestWithin(p, 10); v == graph.InvalidNode {
		t.Error("vertex at distance 0 should be within 10 m")
	}
	if v, _ := idx.NearestWithin(geo.Point{Lat: 23.8, Lon: 90.4}, 1000); v != graph.InvalidNode {
		t.Error("nothing should be within 1 km of Dhaka")
	}
}

func TestSingleNodeGraph(t *testing.T) {
	b := graph.NewBuilder(1, 0)
	b.AddNode(geo.Point{Lat: -37.8, Lon: 144.9})
	g := b.Build()
	idx := NewIndex(g, 16)
	v, d := idx.Nearest(geo.Point{Lat: -37.0, Lon: 144.0})
	if v != 0 {
		t.Errorf("single-node graph must return node 0, got %d", v)
	}
	if d <= 0 {
		t.Errorf("distance should be positive, got %f", d)
	}
}

func TestDegenerateColinearGraph(t *testing.T) {
	// All nodes on one meridian: the bbox has zero width.
	b := graph.NewBuilder(10, 0)
	for i := 0; i < 10; i++ {
		b.AddNode(geo.Point{Lat: -37.8 + float64(i)*0.01, Lon: 144.9})
	}
	g := b.Build()
	idx := NewIndex(g, 4)
	v, _ := idx.Nearest(geo.Point{Lat: -37.75, Lon: 144.95})
	want, _ := bruteNearest(g, geo.Point{Lat: -37.75, Lon: 144.95})
	if v != want {
		t.Errorf("colinear graph: got node %d, want %d", v, want)
	}
}

func TestNewIndexPanicsOnEmptyGraph(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewIndex on empty graph should panic")
		}
	}()
	NewIndex(graph.NewBuilder(0, 0).Build(), 16)
}

func TestTargetPerCellDefaults(t *testing.T) {
	g := randomGraph(100, 9)
	idx := NewIndex(g, 0) // should fall back to a sane default
	v, _ := idx.Nearest(g.Point(5))
	if v == graph.InvalidNode {
		t.Error("index with default cell size must work")
	}
}

func BenchmarkNearest(b *testing.B) {
	g := randomGraph(20000, 11)
	idx := NewIndex(g, 16)
	rng := rand.New(rand.NewSource(13))
	pts := make([]geo.Point, 1024)
	for i := range pts {
		pts[i] = geo.Point{
			Lat: -37.9 + rng.Float64()*0.2,
			Lon: 144.9 + rng.Float64()*0.3,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Nearest(pts[i%len(pts)])
	}
}

// TestCellNodesPartition: every vertex appears in exactly one cell, and
// CellOf agrees with the cell it was stored in.
func TestCellNodesPartition(t *testing.T) {
	g := randomGraph(300, 3)
	idx := NewIndex(g, 16)
	seen := make(map[graph.NodeID]int)
	for c := 0; c < idx.NumCells(); c++ {
		for _, v := range idx.CellNodes(c) {
			if prev, dup := seen[v]; dup {
				t.Fatalf("vertex %d in cells %d and %d", v, prev, c)
			}
			seen[v] = c
			if idx.CellOf(g.Point(v)) != c {
				t.Fatalf("vertex %d stored in cell %d but CellOf says %d", v, c, idx.CellOf(g.Point(v)))
			}
		}
	}
	if len(seen) != g.NumNodes() {
		t.Fatalf("cells hold %d vertices, graph has %d", len(seen), g.NumNodes())
	}
}
