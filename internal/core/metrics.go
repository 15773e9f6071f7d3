package core

import (
	"time"

	"repro/internal/metrics"
)

// customizeBuckets spans hierarchy (re)customization latencies: sub-ms
// CCH re-customizations of town networks up to multi-second from-scratch
// contractions of country graphs.
var customizeBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Metrics is the serving-layer instrument bundle: one per city, all
// families registered on a shared metrics.Registry (re-registration is
// idempotent, so every city binds the same families under its own city
// label). Wire it in with Router.SetMetrics / MatrixEngine.SetMetrics —
// a nil *Metrics is valid everywhere and records nothing, so the serving
// path carries no instrumentation cost unless observability is switched
// on.
//
// The bundle covers the *event-driven* signals: latencies and sizes that
// must be observed at the moment they happen (histograms cannot be
// reconstructed at scrape time). Counters whose source of truth already
// lives in serving-layer atomics — versions served, publish counts,
// elimination-tree query counters, selection-cache hit rates — are
// exported by scrape-time collectors over Router/HierarchyStatus instead
// (see the server's /metrics wiring), so they are never double-counted.
type Metrics struct {
	city string

	querySeconds     *metrics.HistogramVec // city, planner
	queryErrors      *metrics.CounterVec   // city, planner
	cacheHits        *metrics.Counter      // city
	cacheMisses      *metrics.Counter      // city
	customizeSeconds *metrics.HistogramVec // city, planner
	selectionNodes   *metrics.Histogram    // city
	matrixSeconds    *metrics.Histogram    // city
	matrixCells      *metrics.Histogram    // city
}

// NewMetrics registers (or re-binds) the serving-metric families on reg
// for one city.
func NewMetrics(reg *metrics.Registry, city string) *Metrics {
	return &Metrics{
		city: city,
		querySeconds: reg.HistogramVec("routing_query_seconds",
			"Latency of one planner Alternatives call, result-cache hits included.",
			nil, "city", "planner"),
		queryErrors: reg.CounterVec("routing_query_errors_total",
			"Planner calls that returned an error (no-route answers included).",
			"city", "planner"),
		cacheHits: reg.CounterVec("routing_result_cache_hits_total",
			"Versioned result-cache hits.", "city").With(city),
		cacheMisses: reg.CounterVec("routing_result_cache_misses_total",
			"Versioned result-cache misses.", "city").With(city),
		customizeSeconds: reg.HistogramVec("routing_customize_seconds",
			"Hierarchy build or re-customization latency per publish swap.",
			customizeBuckets, "city", "planner"),
		selectionNodes: reg.HistogramVec("routing_selection_nodes",
			"Size (selected nodes) of each RPHAST selection resolved for a matrix table.",
			metrics.SizeBuckets, "city").With(city),
		matrixSeconds: reg.HistogramVec("routing_matrix_seconds",
			"Latency of one many-to-many table computation.",
			nil, "city").With(city),
		matrixCells: reg.HistogramVec("routing_matrix_cells",
			"Cells (sources × targets) per many-to-many table.",
			metrics.SizeBuckets, "city").With(city),
	}
}

// observeQuery records one planner call. Nil-safe.
func (m *Metrics) observeQuery(planner string, d time.Duration, err error) {
	if m == nil {
		return
	}
	m.querySeconds.With(m.city, planner).Observe(d.Seconds())
	if err != nil {
		m.queryErrors.With(m.city, planner).Inc()
	}
}

// observeCache records one result-cache lookup. Nil-safe.
func (m *Metrics) observeCache(hit bool) {
	if m == nil {
		return
	}
	if hit {
		m.cacheHits.Inc()
	} else {
		m.cacheMisses.Inc()
	}
}

// observeMatrix records one table computation. Nil-safe.
func (m *Metrics) observeMatrix(d time.Duration, cells int) {
	if m == nil {
		return
	}
	m.matrixSeconds.Observe(d.Seconds())
	m.matrixCells.Observe(float64(cells))
}

// customizeObserver returns the per-planner customization histogram (nil
// receiver: nil observer).
func (m *Metrics) customizeObserver(planner string) *metrics.Histogram {
	if m == nil {
		return nil
	}
	return m.customizeSeconds.With(m.city, planner)
}

// selectionObserver returns the selection-size histogram (nil receiver:
// nil observer).
func (m *Metrics) selectionObserver() *metrics.Histogram {
	if m == nil {
		return nil
	}
	return m.selectionNodes
}

// metricsSetter is implemented by planners that can sink the bundle's
// per-planner observers (the provider-backed ones, except Dissimilarity:
// the provider it shares with Plateaus must be observed once).
type metricsSetter interface {
	setMetrics(*Metrics)
}
