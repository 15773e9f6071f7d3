// Command analyze applies the paper's §IV-A statistical analysis to the
// ratings collected by the demo server: per-approach mean and standard
// deviation (overall, residents, non-residents, per city) and the one-way
// ANOVA testing whether the four approaches differ.
//
// With -orders it instead compares the two CCH contraction-order
// pipelines (geometric bisection vs inertial-flow separator refinement)
// side by side — order build time, separator-size profile per recursion
// depth, the size of the metric-independent contraction (pairs,
// triangles, arcs), the dependency-level profile that bounds
// customization parallelism, the elimination-tree shape (height and mean
// leaf depth — the root-path lengths point-to-point ascents walk), and
// the inert fraction a perfect customization retires from the sweeps —
// for the Melbourne profile and a 50×50 grid reference network.
//
// Usage:
//
//	analyze -in ratings.json
//	analyze -orders
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/cch"
	"repro/internal/citygen"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/server"
)

func main() {
	in := flag.String("in", "ratings.json", "ratings file written by demoserver")
	orders := flag.Bool("orders", false, "report CCH order quality instead of ratings")
	flag.Parse()

	if *orders {
		reportOrders()
		return
	}

	subs, err := server.LoadRatings(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
	fmt.Print(server.AnalyzeRatings(subs))
}

func reportOrders() {
	mel, err := citygen.Melbourne().Generate(2022)
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
	for _, net := range []struct {
		name string
		g    *graph.Graph
	}{
		{"Melbourne", mel},
		{"grid50", grid(50, 50)},
	} {
		orderReport(net.name, net.g)
	}
}

// orderColumn is one pipeline's measurements of orderReport's
// comparison: order build time, the separator profile of the dissection,
// the contraction size the order induced, the dependency-level shape
// (depth is the serial critical path; width is available parallelism),
// and how many arcs a perfect customization of the base metric proves
// strictly dominated.
type orderColumn struct {
	build       time.Duration
	stats       cch.OrderStats
	pairs       int
	triangles   int
	levels      int
	maxWidth    int
	medWidth    int
	widePct     float64
	inertPct    float64
	etHeight    int
	etLeafDepth float64
}

func measureOrder(g *graph.Graph, kind cch.OrderKind) orderColumn {
	cfg := cch.OrderConfig{Kind: kind}
	start := time.Now()
	_, stats := cch.OrderWithStats(g, cfg)
	col := orderColumn{build: time.Since(start), stats: stats}

	pre := cch.PreprocessWith(g, cfg)
	col.pairs, col.triangles = pre.NumPairs(), pre.NumTriangles()
	// Elimination-tree shape: height bounds the worst-case point-to-point
	// ascent, mean leaf depth the typical one — the query-side quality an
	// order buys beyond customization size.
	et := pre.ElimTree()
	col.etHeight, col.etLeafDepth = et.Height(), et.AvgLeafDepth()
	widths := pre.LevelWidths()
	wide := 0
	for _, w := range widths {
		if w > col.maxWidth {
			col.maxWidth = w
		}
		if w >= 512 {
			wide += w
		}
	}
	med := append([]int(nil), widths...)
	sort.Ints(med)
	col.levels = pre.NumLevels()
	col.medWidth = med[len(med)/2]
	col.widePct = 100 * float64(wide) / float64(col.pairs)

	h := pre.CustomizeWith(g.CopyWeights(), cch.Config{Perfect: true})
	col.inertPct = 100 * float64(h.InertCount()) / float64(2*col.pairs)
	return col
}

// orderReport prints one network's geometric-vs-flow comparison. The
// delta column is flow relative to geometric; separator sizes per depth
// are the dissection's top splits — the ones that dominate fill-in.
func orderReport(name string, g *graph.Graph) {
	geo := measureOrder(g, cch.OrderGeometric)
	flow := measureOrder(g, cch.OrderFlow)

	pct := func(f, g int) string {
		if g == 0 {
			return "-"
		}
		return fmt.Sprintf("%+.1f%%", 100*(float64(f)/float64(g)-1))
	}
	fmt.Printf("%s: %d nodes, %d edges\n", name, g.NumNodes(), g.NumEdges())
	fmt.Printf("  %-14s %14s %14s %10s\n", "", "geometric", "flow", "delta")
	fmt.Printf("  %-14s %14v %14v %9.1fx\n", "order build", geo.build.Round(time.Millisecond), flow.build.Round(time.Millisecond),
		float64(flow.build)/float64(geo.build))
	fmt.Printf("  %-14s %14d %14d %10s\n", "pairs", geo.pairs, flow.pairs, pct(flow.pairs, geo.pairs))
	fmt.Printf("  %-14s %14d %14d %10s\n", "arcs", 2*geo.pairs, 2*flow.pairs, pct(flow.pairs, geo.pairs))
	fmt.Printf("  %-14s %14d %14d %10s\n", "triangles", geo.triangles, flow.triangles, pct(flow.triangles, geo.triangles))
	fmt.Printf("  %-14s %14d %14d %10s\n", "sep nodes", geo.stats.SepNodes, flow.stats.SepNodes, pct(flow.stats.SepNodes, geo.stats.SepNodes))
	fmt.Printf("  %-14s %14d %14d %10s\n", "max sep", geo.stats.MaxSep, flow.stats.MaxSep, pct(flow.stats.MaxSep, geo.stats.MaxSep))
	fmt.Printf("  %-14s %14d %14d %10s\n", "levels", geo.levels, flow.levels, pct(flow.levels, geo.levels))
	fmt.Printf("  %-14s %14d %14d %10s\n", "elim height", geo.etHeight, flow.etHeight, pct(flow.etHeight, geo.etHeight))
	fmt.Printf("  %-14s %14.1f %14.1f %10s\n", "avg leaf depth", geo.etLeafDepth, flow.etLeafDepth,
		pct(int(flow.etLeafDepth*10), int(geo.etLeafDepth*10)))
	fmt.Printf("  %-14s %13.1f%% %13.1f%%\n", "inert", geo.inertPct, flow.inertPct)
	fmt.Printf("  levels: geometric max width %d, median %d, %.1f%% of pairs in levels >= 512 wide\n",
		geo.maxWidth, geo.medWidth, geo.widePct)
	fmt.Printf("  levels: flow      max width %d, median %d, %.1f%% of pairs in levels >= 512 wide\n",
		flow.maxWidth, flow.medWidth, flow.widePct)
	depths := len(geo.stats.SepByDepth)
	if len(flow.stats.SepByDepth) > depths {
		depths = len(flow.stats.SepByDepth)
	}
	if depths > 8 {
		depths = 8
	}
	fmt.Printf("  separator nodes per depth (splits in parens):\n")
	for d := 0; d < depths; d++ {
		gs, gn := depthStat(geo.stats, d)
		fs, fn := depthStat(flow.stats, d)
		fmt.Printf("    depth %d: geometric %6d (%4d)   flow %6d (%4d)\n", d, gs, gn, fs, fn)
	}
	fmt.Println()
}

func depthStat(st cch.OrderStats, d int) (sepNodes, splits int) {
	if d < len(st.SepByDepth) {
		return st.SepByDepth[d], st.SplitsByDepth[d]
	}
	return 0, 0
}

// grid builds the reference rows×cols two-way grid (every fifth row a
// primary arterial), mirroring the package tests' reference network.
func grid(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(rows*cols, rows*cols*4)
	o := geo.Point{Lat: -37.81, Lon: 144.96}
	id := func(r, c int) graph.NodeID { return graph.NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddNode(geo.Offset(o, float64(r)*150, float64(c)*150))
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			class := graph.Residential
			if r%5 == 0 {
				class = graph.Primary
			}
			if c+1 < cols {
				b.AddEdge(graph.EdgeSpec{From: id(r, c), To: id(r, c+1), Class: class, TwoWay: true})
			}
			if r+1 < rows {
				b.AddEdge(graph.EdgeSpec{From: id(r, c), To: id(r+1, c), Class: graph.Residential, TwoWay: true})
			}
		}
	}
	return b.Build()
}
