// Command matrix computes a many-to-many travel-time table on a synthetic
// city (or a binary road-network file) and compares it against the k²
// independent point-to-point baseline — the amortization the shared
// RPHAST selection buys.
//
// Usage:
//
//	matrix -city Melbourne -k 16
//	matrix -graph net.bin -k 64 -trees ch -hierarchy cch
//	matrix -city Dhaka -sources "23.78,90.38;23.80,90.40" -targets "23.85,90.48"
//
// Endpoints are either sampled uniformly (-k of each) or given explicitly
// as semicolon-separated lat,lon lists.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/backendflag"
	"repro/internal/citygen"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/spatial"
)

func main() {
	city := flag.String("city", "Melbourne", "synthetic city profile (Melbourne, Dhaka, Copenhagen)")
	graphPath := flag.String("graph", "", "binary road-network file (overrides -city)")
	seed := flag.Int64("seed", 2022, "generation seed for -city and endpoint sampling")
	k := flag.Int("k", 16, "number of sampled sources and targets (ignored when -sources/-targets are given)")
	sourcesArg := flag.String("sources", "", "explicit sources as semicolon-separated lat,lon pairs")
	targetsArg := flag.String("targets", "", "explicit targets as semicolon-separated lat,lon pairs")
	backend := backendflag.Register(flag.CommandLine, "ch")
	reps := flag.Int("reps", 5, "warm repetitions timed per configuration")
	baseline := flag.Bool("baseline", true, "also time the k² point-to-point baseline")
	printTable := flag.Bool("print", false, "print the full table (minutes; '-' = unreachable)")
	flag.Parse()

	opts, err := backend.Options()
	if err == nil {
		err = run(*city, *graphPath, *seed, *k, *sourcesArg, *targetsArg, opts, *reps, *baseline, *printTable)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "matrix:", err)
		os.Exit(1)
	}
}

func run(city, graphPath string, seed int64, k int, sourcesArg, targetsArg string, opts core.Options, reps int, baseline, printTable bool) error {
	var g *graph.Graph
	var err error
	if graphPath != "" {
		g, err = graph.LoadFile(graphPath)
	} else {
		var profile citygen.Profile
		profile, err = citygen.ProfileByName(city)
		if err == nil {
			g, err = profile.Generate(seed)
		}
	}
	if err != nil {
		return err
	}
	fmt.Printf("Network: %d nodes, %d edges (%s trees, %s hierarchy, %s order)\n", g.NumNodes(), g.NumEdges(), opts.TreeBackend, opts.Hierarchy, opts.Order)

	rng := rand.New(rand.NewSource(seed + 1))
	sources, err := resolveEndpoints(g, sourcesArg, k, rng)
	if err != nil {
		return fmt.Errorf("sources: %w", err)
	}
	targets, err := resolveEndpoints(g, targetsArg, k, rng)
	if err != nil {
		return fmt.Errorf("targets: %w", err)
	}

	buildStart := time.Now()
	m := core.NewMatrixEngine(g, opts, core.NewEngine(0))
	var tab core.Table
	if err := m.MatrixInto(&tab, sources, targets); err != nil {
		return err
	}
	fmt.Printf("First %dx%d table (hierarchy build + cold selection): %s\n",
		len(sources), len(targets), time.Since(buildStart).Round(time.Millisecond))
	if tab.Restricted {
		fmt.Printf("Shared selection: %d targets (%s)\n", tab.SelectionTargets, hitOrMiss(tab.SelectionHit))
	} else {
		fmt.Println("Sweeps: full (selection not restricted on this backend/batch)")
	}

	warmStart := time.Now()
	for i := 0; i < reps; i++ {
		if err := m.MatrixInto(&tab, sources, targets); err != nil {
			return err
		}
	}
	warm := time.Since(warmStart) / time.Duration(reps)
	fmt.Printf("Warm matrix: %s per table (%s per cell)\n",
		warm.Round(time.Microsecond), (warm / time.Duration(len(sources)*len(targets))).Round(time.Nanosecond))

	if baseline {
		var pw core.Table
		pwStart := time.Now()
		if err := m.MatrixPairwise(&pw, sources, targets); err != nil {
			return err
		}
		pwTime := time.Since(pwStart)
		fmt.Printf("Pairwise baseline (k² point-to-point): %s  ->  %.1fx speedup\n",
			pwTime.Round(time.Microsecond), float64(pwTime)/float64(warm))
	}

	st := m.HierarchyStatus()
	if total := st.SelectionHits + st.SelectionMisses; total > 0 {
		fmt.Printf("Selection cache: %d hits / %d misses, %d evictions\n",
			st.SelectionHits, st.SelectionMisses, st.SelectionEvictions)
	}

	if printTable {
		fmt.Print(formatTable(&tab))
	}
	return nil
}

// resolveEndpoints parses "lat,lon;lat,lon;..." (snapping each to the
// nearest vertex) or samples count distinct nodes when arg is empty.
func resolveEndpoints(g *graph.Graph, arg string, count int, rng *rand.Rand) ([]graph.NodeID, error) {
	if arg == "" {
		if count <= 0 || count > g.NumNodes() {
			return nil, fmt.Errorf("bad endpoint count %d", count)
		}
		seen := make(map[graph.NodeID]bool, count)
		out := make([]graph.NodeID, 0, count)
		for len(out) < count {
			v := graph.NodeID(rng.Intn(g.NumNodes()))
			if seen[v] {
				continue
			}
			seen[v] = true
			out = append(out, v)
		}
		return out, nil
	}
	idx := spatial.NewIndex(g, 16)
	var out []graph.NodeID
	for _, f := range strings.Split(arg, ";") {
		var p geo.Point
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%f,%f", &p.Lat, &p.Lon); err != nil {
			return nil, fmt.Errorf("bad coordinate %q (want lat,lon)", f)
		}
		if !p.Valid() {
			return nil, fmt.Errorf("coordinate %q out of range", f)
		}
		v, _ := idx.Nearest(p)
		out = append(out, v)
	}
	return out, nil
}

func formatTable(tab *core.Table) string {
	var sb strings.Builder
	sb.WriteString("\n        ")
	for _, t := range tab.Targets {
		fmt.Fprintf(&sb, "%8d", t)
	}
	sb.WriteString("\n")
	for i, s := range tab.Sources {
		fmt.Fprintf(&sb, "%8d", s)
		for j := range tab.Targets {
			v := tab.At(i, j)
			if math.IsInf(v, 1) {
				sb.WriteString("       -")
			} else {
				fmt.Fprintf(&sb, "%8.1f", v/60)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func hitOrMiss(hit bool) string {
	if hit {
		return "cache hit"
	}
	return "cache miss"
}
