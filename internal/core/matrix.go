package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ch"
	"repro/internal/graph"
	"repro/internal/sp"
	"repro/internal/weights"
)

// Table is a |Sources| × |Targets| travel-time matrix computed under one
// weight snapshot. Seconds is row-major (Seconds[i*len(Targets)+j] is
// sources[i] → targets[j]); unreachable pairs carry +Inf. Every cell of
// one Table is computed under the single Version reported — the matrix
// engine resolves exactly one weight view per call, so publishes racing
// the computation can never mix metrics inside a response.
type Table struct {
	Sources []graph.NodeID
	Targets []graph.NodeID
	Seconds []float64
	Version weights.Version
	// SelectionTargets is the size of the shared target selection the
	// sweeps ran on (0 on TreeDijkstra); SelectionHit reports whether it
	// came out of the selection cache; Restricted reports whether the
	// sweeps actually ran restricted (false: full sweeps, past the
	// RestrictedAutoFraction cutover or on TreeDijkstra).
	SelectionTargets int
	SelectionHit     bool
	Restricted       bool
}

// At returns the travel time from Sources[i] to Targets[j] in seconds.
func (t *Table) At(i, j int) float64 { return t.Seconds[i*len(t.Targets)+j] }

// MatrixEngine computes many-to-many travel-time tables. On TreeCH it is
// the RPHAST batch scheme the selection phase exists for: ONE shared
// selection covering the target set (cached by cell signature per weight
// version), then one restricted forward sweep per source fanned over the
// serving Engine's worker pool — k sweeps and at most one Select instead
// of the k×k tree pairs of independent point-to-point queries. Target
// sets spread over more than RestrictedAutoFraction of the graph run full
// PHAST sweeps instead. Distances are exact (equal to per-pair Dijkstra
// within the hierarchy's last-ulp tolerance); on TreeDijkstra the engine
// runs one full Dijkstra tree per source.
//
// A MatrixEngine is safe for concurrent use; per-call state lives in
// pooled scratch, so a warm engine computes tables with zero steady-state
// allocations through MatrixInto on a single-worker Engine.
type MatrixEngine struct {
	g    *graph.Graph
	eng  *Engine
	prov *provider
	// metrics is the optional instrument bundle (nil: record nothing).
	metrics atomic.Pointer[Metrics]
}

// NewMatrixEngine builds a standalone matrix engine over g. Options are
// interpreted as for NewPlateaus (weights source, tree backend,
// hierarchy customization and order); eng bounds the sweep fan-out and
// may be nil for unbounded inline execution.
func NewMatrixEngine(g *graph.Graph, opts Options, eng *Engine) *MatrixEngine {
	opts = opts.withDefaults()
	return &MatrixEngine{
		g:    g,
		eng:  eng,
		prov: newProvider(g, opts.Weights, true, false, nil, opts),
	}
}

// NewMatrixEngineFor builds a matrix engine sharing an existing Plateaus
// planner's weight provider: same hierarchy, same weight views, same
// selection cache — the server wiring, where point-to-point queries and
// matrix requests must serve identical versions without contracting the
// hierarchy twice.
func NewMatrixEngineFor(p *Plateaus, eng *Engine) *MatrixEngine {
	return &MatrixEngine{g: p.g, eng: eng, prov: p.prov}
}

// WeightsVersion reports the version the next table would be computed
// under (nudging a background refresh along, like the planners do).
func (m *MatrixEngine) WeightsVersion() weights.Version { return m.prov.weightsVersion() }

// HierarchyStatus reports the backing hierarchy's serving state,
// selection-cache counters included.
func (m *MatrixEngine) HierarchyStatus() HierarchyStatus { return m.prov.hierarchyStatus() }

// SetMetrics installs the instrument bundle recording per-table latency
// and size (nil uninstalls). A matrix engine sharing a Plateaus
// planner's provider (NewMatrixEngineFor) inherits that planner's
// customization/selection observers through the shared provider; this
// call only adds the matrix-side histograms.
func (m *MatrixEngine) SetMetrics(b *Metrics) { m.metrics.Store(b) }

// rowBuilder carries the immutable inputs of one matrix computation; it
// is pooled so MatrixInto's fan-out closure captures a single long-lived
// pointer instead of forcing per-call heap state.
type rowBuilder struct {
	g       *graph.Graph
	w       []float64       // Dijkstra weights (nil on TreeCH)
	tb      *ch.TreeBuilder // hierarchy sweeps (nil on TreeDijkstra)
	sel     *ch.Selection   // restricted sweeps (nil: full sweeps)
	sources []graph.NodeID
	targets []graph.NodeID
	seconds []float64
}

var rowBuilderPool = sync.Pool{New: func() any { return new(rowBuilder) }}

// buildRow computes one source's row: a single forward tree (restricted,
// full PHAST, or Dijkstra) read at every target.
func (rb *rowBuilder) buildRow(ws *sp.Workspace, i int) {
	src := rb.sources[i]
	var tree *sp.Tree
	switch {
	case rb.sel != nil:
		tree = rb.tb.BuildTreeRestrictedInto(ws, src, sp.Forward, rb.sel)
	case rb.tb != nil:
		tree = rb.tb.BuildTreeInto(ws, src, sp.Forward)
	default:
		tree = sp.BuildTreeInto(ws, rb.g, rb.w, src, sp.Forward)
	}
	row := rb.seconds[i*len(rb.targets) : (i+1)*len(rb.targets)]
	for j, t := range rb.targets {
		row[j] = tree.Dist[t]
	}
}

// Matrix computes the sources × targets table into fresh storage.
func (m *MatrixEngine) Matrix(sources, targets []graph.NodeID) (*Table, error) {
	tab := &Table{}
	if err := m.MatrixInto(tab, sources, targets); err != nil {
		return nil, err
	}
	return tab, nil
}

// OneToMany computes the 1 × targets table — isochrone-style fan-out
// from a single source on one shared selection and one restricted sweep.
func (m *MatrixEngine) OneToMany(source graph.NodeID, targets []graph.NodeID) (*Table, error) {
	return m.Matrix([]graph.NodeID{source}, targets)
}

// MatrixInto computes the table into tab, reusing its backing slices. On
// a warm engine with a selection-cache hit this is the zero-allocation
// path (single-worker Engine: rows run inline, no fan-out goroutines).
func (m *MatrixEngine) MatrixInto(tab *Table, sources, targets []graph.NodeID) error {
	if b := m.metrics.Load(); b != nil {
		start := time.Now()
		defer func() { b.observeMatrix(time.Since(start), len(sources)*len(targets)) }()
	}
	v, err := m.prepare(tab, sources, targets)
	if err != nil {
		return err
	}

	rb := rowBuilderPool.Get().(*rowBuilder)
	rb.g, rb.sources, rb.targets, rb.seconds = m.g, tab.Sources, tab.Targets, tab.Seconds

	if sels := v.sels; sels != nil {
		e, hit := sels.forTargets(tab.Targets)
		rb.tb, rb.sel = sels.tb, e.sel
		if e.sel != nil && !e.sel.Covers(tab.Targets) {
			// Defensive: a selection that does not cover every target must
			// never produce a table; select the targets directly instead.
			rb.sel = sels.tb.Select(tab.Targets, nil)
		}
		tab.SelectionTargets = e.targets
		tab.SelectionHit = hit
		tab.Restricted = rb.sel != nil
	} else {
		rb.w = v.snap.Weights()
	}

	if m.eng == nil || m.eng.Workers() == 1 || len(rb.sources) == 1 {
		// Inline: one workspace serves every row, and no fan-out closure is
		// created — the zero-allocation path on a one-worker engine.
		ws := sp.GetWorkspace()
		for i := range rb.sources {
			if m.eng != nil {
				m.eng.acquire()
			}
			rb.buildRow(ws, i)
			if m.eng != nil {
				m.eng.release()
			}
		}
		ws.Release()
	} else {
		err = m.eng.Run(len(rb.sources), func(i int) {
			ws := sp.GetWorkspace()
			defer ws.Release()
			rb.buildRow(ws, i)
		})
	}

	*rb = rowBuilder{}
	rowBuilderPool.Put(rb)
	return err
}

// MatrixPairwise fills tab with len(sources) × len(targets) independent
// point-to-point tree-pair queries through the planner's own tree source
// — the k² baseline the matrix engine amortizes away. Exposed for the
// eval ablations and benchmarks that quantify the amortization.
func (m *MatrixEngine) MatrixPairwise(tab *Table, sources, targets []graph.NodeID) error {
	v, err := m.prepare(tab, sources, targets)
	if err != nil {
		return err
	}
	ws := sp.GetWorkspace()
	defer ws.Release()
	inf := math.Inf(1)
	for i, s := range tab.Sources {
		row := tab.Seconds[i*len(tab.Targets) : (i+1)*len(tab.Targets)]
		for j, t := range tab.Targets {
			if s == t {
				row[j] = 0
				continue
			}
			fwd, _, ok := v.trees.BuildTrees(ws, s, t)
			if !ok {
				row[j] = inf
				continue
			}
			row[j] = fwd.Dist[t]
		}
	}
	return nil
}

// prepare validates the endpoints, resolves the single weight view of the
// computation and sizes tab's backing storage.
func (m *MatrixEngine) prepare(tab *Table, sources, targets []graph.NodeID) (*view, error) {
	if len(sources) == 0 || len(targets) == 0 {
		return nil, errors.New("core: matrix needs at least one source and one target")
	}
	n := graph.NodeID(m.g.NumNodes())
	for _, s := range sources {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("core: matrix source %d out of range [0,%d)", s, n)
		}
	}
	for _, t := range targets {
		if t < 0 || t >= n {
			return nil, fmt.Errorf("core: matrix target %d out of range [0,%d)", t, n)
		}
	}
	v := m.prov.view()
	tab.Sources = append(tab.Sources[:0], sources...)
	tab.Targets = append(tab.Targets[:0], targets...)
	k := len(sources) * len(targets)
	if cap(tab.Seconds) < k {
		tab.Seconds = make([]float64, k)
	} else {
		tab.Seconds = tab.Seconds[:k]
	}
	tab.Version = v.snap.Version()
	tab.SelectionTargets, tab.SelectionHit, tab.Restricted = 0, false, false
	return v, nil
}
