// Command perfbench is the repository's benchmark. It builds the demo
// server's serving stack in process, wired exactly as cmd/demoserver's
// run() wires it (ch-auto trees on a flow-ordered CCH with the
// elimination-tree query engine, one shared engine with the default
// result cache, metrics and ingest on, verbose off), and drives it only
// through server.Server.ServeHTTP with one of three seeded workloads:
//
//   - study-routes: the paper's query processor. Distinct /api/routes
//     pairs over all three cities, drawn with Table I's (city, band)
//     weights, from a closed loop of one client per CPU. The planners do
//     the work; the result cache and the publish path are idle.
//   - matrix-fleet: POST /api/matrix fleet tables (k = 4, 16, 64) of
//     clustered points, half of them on fixed depot target sets, from a
//     closed loop. The only user of core.MatrixEngine and the selection
//     cache; Dissimilarity, Penalty and the result cache are idle.
//   - live-traffic: writes beside reads. An open loop of Poisson
//     /api/routes arrivals over a Zipf-weighted hot set, timed from each
//     request's due time, while one publisher on a fixed clock sends
//     rush-hour steps, ingest ticks, closures and GET /metrics. It is
//     not among BENCHMARK.json's workloads: its tail and publish
//     metrics did not hold steady across runs (see README.md).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload study-routes --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics; with --trace 1
// it runs half the time untraced and half traced, then probes each layer
// serially, and reports the per-layer metrics. Every run checks the
// serving stack's answers against a paper-faithful oracle stack
// (Dijkstra trees) or against Dijkstra distances. The last line of
// standard output is the result object; the line before it is the full
// report (machine facts, configuration, every metric under its
// request-specific name with sample counts, the gate's outcome), which is
// also written with the spans and the server log under
// .bench_build/perfbench/.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// processStart is taken as the process initializes; the first set-up is
// timed from it.
var processStart = time.Now()

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	// setups is how many times the serving stack is built; limit caps the
	// requests of one window (0: none). The self-test lowers both.
	setups, limit int
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a percentile or ratio (report only).
	N int `json:"n,omitempty"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything a run knows about itself.
type report struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Seconds  float64              `json:"seconds"`
	Trace    bool                 `json:"trace"`
	Machine  map[string]any       `json:"machine"`
	Source   map[string]string    `json:"source"`
	Config   map[string]any       `json:"config"`
	SetupS   []float64            `json:"setup_s_each"`
	Named    map[string]metric    `json:"named"`
	Gate     gateResult           `json:"gate"`
	Result   result               `json:"result"`
	Phases   []map[string]float64 `json:"phases"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "study-routes", "study-routes, matrix-fleet or live-traffic")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same requests")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.root, "root", ".", "repository root; output goes under <root>/.bench_build/perfbench")
	flag.Parse()
	cfg.trace = *trace == 1
	cfg.setups = 3
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// outDir is where one run's report, spans and server log go.
func outDir(cfg config) string {
	return filepath.Join(cfg.root, ".bench_build", "perfbench",
		fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.trace]))
}

func run(cfg config) (*result, *report, error) {
	if cfg.seconds <= 0 {
		return nil, nil, errors.New("--seconds must be positive")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	clients := runtime.GOMAXPROCS(0)
	dir := outDir(cfg)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	logFile, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, nil, err
	}
	defer logFile.Close()
	log.SetOutput(logFile) // /api/publish logs every call

	st, setupS, setupEach, err := setUpMedian(cfg.setups, processStart)
	if err != nil {
		return nil, nil, err
	}
	var w workload
	switch cfg.workload {
	case "study-routes":
		w = newStudyRoutes(st, cfg.seed, clients, cfg.limit)
	case "matrix-fleet":
		w = newMatrixFleet(st, cfg.seed, clients, cfg.limit)
	case "live-traffic":
		if w, err = newLiveTraffic(st, cfg.seed, clients, cfg.limit); err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("unknown workload %q (want study-routes, matrix-fleet or live-traffic)", cfg.workload)
	}
	if err := w.warmUp(); err != nil {
		return nil, nil, err
	}
	// Measure from a compact heap: the earlier set-ups' garbage is not
	// the workload's.
	runtime.GC()
	debug.FreeOSMemory()

	d := time.Duration(cfg.seconds * float64(time.Second))
	rep := &report{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Machine: machine(), Source: source(cfg.root), SetupS: setupEach, Named: map[string]metric{}}
	rep.Config = map[string]any{
		"city_seed": citySeed, "trees": servingFlags.trees, "hierarchy": servingFlags.hierarchy,
		"order": servingFlags.order, "query": servingFlags.query, "engine_workers": st.engine.Workers(),
		"cache": core.DefaultCacheSize, "metrics": true, "ingest": true, "verbose": false,
		"clients": clients, "setups": cfg.setups,
	}
	if cfg.workload == "live-traffic" {
		rep.Config["rate_per_s"] = liveRate
		rep.Config["publish_period_ms"] = livePeriod.Milliseconds()
	}

	var tr *tracer
	var untraced, traced *phase
	var peakRSS float64
	if !cfg.trace {
		rss := sampleRSS()
		untraced, err = w.window(d, nil)
		peakRSS = rss.stop()
		if err != nil {
			return nil, nil, err
		}
	} else {
		if untraced, err = w.window(d/2, nil); err != nil {
			return nil, nil, err
		}
		tr = newTracer()
		if traced, err = w.window(d/2, tr); err != nil {
			return nil, nil, err
		}
	}
	// The oracle is built only now, so its memory is not in the windows'
	// heap.
	oracle, err := newOracle()
	if err != nil {
		return nil, nil, err
	}
	rep.Gate = w.gate(oracle)

	res := &result{Metrics: map[string]metric{}}
	attempted, failed := untraced.attempted, untraced.failed
	rep.Phases = append(rep.Phases, untraced.summary())
	if traced != nil {
		attempted += traced.attempted
		failed += traced.failed
		rep.Phases = append(rep.Phases, traced.summary())
	}
	if cfg.workload == "live-traffic" {
		attempted += rep.Gate.Checked
	}
	failed += rep.Gate.Mismatched

	if !cfg.trace {
		endToEnd(res.Metrics, rep.Named, cfg.workload, untraced, setupS, peakRSS)
	} else {
		routes, rl, tables, tl := w.probeInputs(traced)
		pr, err := probe(st, tr, cfg.seed, routes, rl, cfg.workload == "live-traffic", tables, tl)
		if err != nil {
			return nil, nil, err
		}
		attempted += pr.attempted
		failed += pr.failed
		perLayer(res.Metrics, cfg.workload, untraced, traced, tr, pr)
		if err := tr.writeFile(filepath.Join(dir, "spans.jsonl")); err != nil {
			return nil, nil, err
		}
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, nil, fmt.Errorf("metric %s has no value (%v): too few samples", name, m.Value)
		}
	}
	res.Attempted, res.Failed = attempted, failed
	res.Correct = failed == 0 && rep.Gate.Checked > 0
	rep.Named["fail_ratio"] = metric{Value: ratio(float64(failed), float64(attempted)), Unit: "ratio", N: attempted}
	rep.Result = *res
	if err := writeJSON(filepath.Join(dir, "report.json"), rep); err != nil {
		return nil, nil, err
	}
	return res, rep, nil
}

// endToEnd fills the end-to-end metrics of an untraced window. The
// latency and throughput metrics are the workload's own request:
// /api/routes on study-routes and live-traffic, /api/matrix tables on
// matrix-fleet. named gets the same numbers under the request-specific
// names, with sample counts.
func endToEnd(out, named map[string]metric, workload string, p *phase, setupS, peakRSS float64) {
	lat := distOf(ms(p.lats))
	rps := float64(len(p.lats)) / p.elapsed.Seconds()
	out["setup_s"] = metric{Value: setupS, Unit: "s"}
	out["latency_p50_ms"] = metric{Value: lat.P50, Unit: "ms"}
	out["latency_p99_ms"] = metric{Value: lat.P99, Unit: "ms"}
	out["throughput_rps"] = metric{Value: rps, Unit: "1/s"}
	out["peak_rss_mb"] = metric{Value: peakRSS, Unit: "MB"}

	prefix := "routes"
	if workload == "matrix-fleet" {
		prefix = "matrix"
		named["matrix_cells_per_s"] = metric{Value: float64(p.cells) / p.elapsed.Seconds(), Unit: "1/s", N: p.tables}
	}
	named[prefix+"_p50_ms"] = metric{Value: lat.P50, Unit: "ms", N: lat.N}
	named[prefix+"_p99_ms"] = metric{Value: lat.P99, Unit: "ms", N: lat.N}
	named[prefix+"_rps"] = metric{Value: rps, Unit: "1/s", N: lat.N}
	named["peak_rss_mb"] = out["peak_rss_mb"]
	named["setup_s"] = out["setup_s"]
	if workload == "live-traffic" {
		var serve []time.Duration
		for _, s := range p.pubs {
			serve = append(serve, s.serve)
		}
		pts := distOf(ms(serve))
		named["publish_to_serve_p50_ms"] = metric{Value: pts.P50, Unit: "ms", N: pts.N}
		named["publish_to_serve_p90_ms"] = metric{Value: pts.P90, Unit: "ms", N: pts.N}
		named["mixed_version_ratio"] = metric{Value: ratio(float64(p.mixed), float64(p.routes)), Unit: "ratio", N: p.routes}
		late := distOf(ms(p.lates))
		named["generator_late_p99_ms"] = metric{Value: late.P99, Unit: "ms", N: late.N}
	}
}

// perLayer fills the per-layer metrics from a traced run: span
// durations of the probes and the traced window, counter deltas over the
// traced window, and memory statistics of the untraced window.
func perLayer(out map[string]metric, workload string, untraced, traced *phase, tr *tracer, pr *probeResult) {
	med := func(name string) float64 { return median(tr.durations(name)) }
	set := func(name, unit string, v float64) { out[name] = metric{Value: v, Unit: unit} }

	set("server.hit_request_ms", "ms", med("server.ServeHTTP /api/routes hit"))
	set("server.matrix_overhead_ms", "ms", median(pr.matrixOverhead))
	set("spatial.nearest_us", "us", 1000*med("spatial.Index.Nearest k=64"))
	set("core.engine_fanout_ms", "ms", med("core.Engine.Alternatives"))
	set("core.engine_wait_ms", "ms", median(pr.waits))
	b, a := traced.before, traced.after
	set("core.result_cache_hit_ratio", "ratio", ratio(float64(a.cacheHits-b.cacheHits), float64(a.cacheHits-b.cacheHits+a.cacheMisses-b.cacheMisses)))
	for _, k := range plannerKeys {
		d := distOf(tr.durations("core." + k + ".AlternativesVersioned"))
		set("core."+k+"_p50_ms", "ms", d.P50)
		set("core."+k+"_p99_ms", "ms", d.P99)
		set("core."+k+"_allocs", "count", median(tr.counts("core."+k+".AlternativesVersioned")))
	}
	set("sp.tree_ms", "ms", med("sp.BuildTreeInto"))
	set("ch.selection_hit_ratio", "ratio", ratio(float64(a.selHits-b.selHits), float64(a.selHits-b.selHits+a.selMisses-b.selMisses)))
	set("ch.elim_ascent_nodes_per_query", "count", ratio(float64(a.elimNodes-b.elimNodes), float64(a.elimQueries-b.elimQueries)))
	set("ch.elim_truncated_ratio", "ratio", ratio(float64(a.elimTruncated-b.elimTruncated), float64(a.elimQueries-b.elimQueries)))
	set("ch.repack_ms", "ms", med("ch.Hierarchy.NewTreeBuilder"))
	set("cch.customize_ms", "ms", med("cch.Preprocessed.CustomizeWith"))
	cust := append([]time.Duration(nil), pr.customize...)
	for _, p := range []*phase{untraced, traced} {
		for _, s := range p.pubs {
			if s.customize > 0 {
				cust = append(cust, s.customize)
			}
		}
	}
	set("core.customize_total_ms", "ms", median(ms(cust)))
	for _, k := range matrixSizes {
		set(fmt.Sprintf("core.matrix_table_ms_k%d", k), "ms", med(fmt.Sprintf("core.MatrixEngine.Matrix k=%d", k)))
	}
	tables, hits, restricted := pr.tables, pr.selHits, pr.restricted
	if workload == "matrix-fleet" {
		tables, hits, restricted = traced.tables, traced.selHits, traced.restricted
	}
	set("core.matrix_selection_hit_ratio", "ratio", ratio(float64(hits), float64(tables)))
	set("core.matrix_restricted_ratio", "ratio", ratio(float64(restricted), float64(tables)))
	set("weights.publish_us", "us", 1000*med("weights.Store.Publish"))
	set("traffic.advance_ms", "ms", med("traffic.Sequence.Advance"))
	set("telemetry.advance_us", "us", 1000*med("telemetry.Ingestor.Advance"))
	set("metrics.scrape_ms", "ms", med("metrics.scrape"))
	m0, m1 := untraced.memBefore, untraced.memAfter
	set("alloc_mb_per_req", "MB", ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/1e6, float64(len(untraced.lats))))
	set("gc_pause_ms_per_s", "ms/s", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6/untraced.elapsed.Seconds())
	set("mixed_version_ratio", "ratio", ratio(float64(untraced.mixed+traced.mixed), float64(untraced.routes+traced.routes)))
	set("trace_overhead_ms", "ms", median(ms(traced.lats))-median(ms(untraced.lats)))
}

// summary is a phase's headline numbers for the report.
func (p *phase) summary() map[string]float64 {
	lat := distOf(ms(p.lats))
	out := map[string]float64{
		"elapsed_s": p.elapsed.Seconds(), "requests": float64(len(p.lats)), "attempted": float64(p.attempted),
		"failed": float64(p.failed), "p50_ms": lat.P50, "p99_ms": lat.P99, "publishes": float64(len(p.pubs)),
		"scrapes": float64(len(p.scrapes)), "mixed": float64(p.mixed),
		"cache_hits":   float64(p.after.cacheHits - p.before.cacheHits),
		"cache_misses": float64(p.after.cacheMisses - p.before.cacheMisses),
	}
	return out
}

// rssSampler records the largest resident set size of the process while
// it runs, read from /proc/self/statm.
type rssSampler struct {
	stopc, done chan struct{}
	peak        float64
}

// rssEvery is the sampling period of rssSampler.
const rssEvery = 10 * time.Millisecond

func sampleRSS() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			s.peak = max(s.peak, residentMB())
			select {
			case <-s.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the peak in MB.
func (s *rssSampler) stop() float64 {
	close(s.stopc)
	<-s.done
	return max(s.peak, residentMB())
}

// residentMB is the current resident set size (NaN where /proc is
// missing, which makes the run fail rather than report a wrong number).
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return math.NaN()
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return math.NaN()
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return math.NaN()
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// machine records the facts a number depends on.
func machine() map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{"cpu_model": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH}
}

// source identifies the code measured: the git commit when the tree is a
// git checkout, and always a digest of every file outside dot-directories.
func source(root string) map[string]string {
	out := map[string]string{"git_commit": "unknown"}
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(root, ".git", r)); err == nil {
				ref = strings.TrimSpace(string(b))
			}
		}
		out["git_commit"] = ref
	}
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	out["tree_sha256"] = hex.EncodeToString(h.Sum(nil))
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
