// Package backendflag declares the serving-backend flags every command
// shares — -trees, -hierarchy, -order and -query — and parses them into
// core.Options, so the commands accept the same spellings under the same
// help texts. Only the -trees default differs per command; the others
// default to cch, flow and elimtree everywhere.
package backendflag

import (
	"flag"

	"repro/internal/core"
)

// Set holds one command's backend flag values until they are parsed.
type Set struct {
	trees, hierarchy, order, query *string
}

// Register declares the four backend flags on fs, with -trees defaulting
// to defaultTrees.
func Register(fs *flag.FlagSet, defaultTrees string) *Set {
	return &Set{
		trees:     fs.String("trees", defaultTrees, "tree backend for the tree-based planners (Plateaus, Commercial, Dissimilarity): dijkstra (full Dijkstra trees, as the paper describes) or ch (full PHAST sweeps over a customizable contraction hierarchy; /api/matrix tables on it run RPHAST restricted sweeps). The retired spellings ch-restricted, rphast, ch-auto and auto mean ch"),
		hierarchy: fs.String("hierarchy", "cch", "customization of the contraction hierarchy behind the ch backend: cch (exact for every published snapshot, closures included) or cch-perfect (cch plus dominated-arc pruning on every publish)"),
		order:     fs.String("order", "flow", "CCH contraction-order pipeline: flow (inertial-flow separators: smaller hierarchy, faster publishes, slower one-off order build at startup) or geometric (coordinate bisection: faster one-off preprocessing)"),
		query:     fs.String("query", "elimtree", "point-to-point query engine on the hierarchy: elimtree (heap-free elimination-tree ascents) or bidij (bidirectional upward Dijkstra); distances are bit-identical either way, and no serving path issues point-to-point queries"),
	}
}

// Options parses the registered flags (after fs.Parse) into the
// TreeBackend, Hierarchy, Order and Query fields of core.Options.
func (s *Set) Options() (core.Options, error) {
	var opts core.Options
	var err error
	if opts.TreeBackend, err = core.ParseTreeBackend(*s.trees); err != nil {
		return opts, err
	}
	if opts.Hierarchy, err = core.ParseHierarchyKind(*s.hierarchy); err != nil {
		return opts, err
	}
	if opts.Order, err = core.ParseOrderKind(*s.order); err != nil {
		return opts, err
	}
	opts.Query, err = core.ParseQueryEngine(*s.query)
	return opts, err
}
