package backendflag

import (
	"flag"
	"io"
	"testing"

	"repro/internal/core"
)

func parse(t *testing.T, defaultTrees string, args ...string) (core.Options, error) {
	t.Helper()
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	set := Register(fs, defaultTrees)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return set.Options()
}

// TestDefaults pins the shared defaults: only -trees comes from the
// command; every command serves cch, flow and elimtree unless told
// otherwise.
func TestDefaults(t *testing.T) {
	for _, trees := range []string{"dijkstra", "ch"} {
		opts, err := parse(t, trees)
		if err != nil {
			t.Fatal(err)
		}
		if opts.TreeBackend.String() != trees || opts.Hierarchy != core.HierarchyCCH ||
			opts.Order != core.OrderFlow || opts.Query != core.QueryElimTree {
			t.Fatalf("defaults with -trees %s: %+v", trees, opts)
		}
	}
}

// TestRetiredTreeSpellings pins the spellings of the tree backends folded
// into ch: scripts and benchmarks still pass them, and they must select
// the one hierarchy backend.
func TestRetiredTreeSpellings(t *testing.T) {
	for _, trees := range []string{"ch-restricted", "rphast", "ch-auto", "auto"} {
		opts, err := parse(t, "dijkstra", "-trees", trees)
		if err != nil {
			t.Fatalf("-trees %s: %v", trees, err)
		}
		if opts.TreeBackend != core.TreeCH || opts.TreeBackend.String() != "ch" {
			t.Fatalf("-trees %s parsed to %v", trees, opts.TreeBackend)
		}
	}
}

func TestExplicitSpellings(t *testing.T) {
	opts, err := parse(t, "dijkstra", "-trees", "ch", "-hierarchy", "cch-perfect", "-order", "geometric", "-query", "bidij")
	if err != nil {
		t.Fatal(err)
	}
	if opts.TreeBackend != core.TreeCH || opts.Hierarchy != core.HierarchyCCHPerfect ||
		opts.Order != core.OrderGeometric || opts.Query != core.QueryBidij {
		t.Fatalf("explicit flags parsed to %+v", opts)
	}
}

func TestRejectsUnknownSpellings(t *testing.T) {
	for _, args := range [][]string{
		{"-trees", "phast"},
		{"-hierarchy", "witness"},
		{"-order", "metis"},
		{"-query", "dijkstra"},
	} {
		if _, err := parse(t, "ch", args...); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
}
