// Command demoserver runs the paper's web-based demonstration system
// (§III, Figs. 2-3): an interactive map where anyone can pick source and
// target locations in Melbourne, Dhaka or Copenhagen, view the alternative
// routes of the four blinded approaches (A: Google Maps stand-in,
// B: Plateaus, C: Dissimilarity, D: Penalty) and submit 1-5 ratings.
//
// Unlike the paper's frozen demo, this one serves *live traffic*: each
// city's private weights live in a versioned store, the POST /api/publish
// endpoint (or the -traffic-step auto-advance) publishes the next
// rush-hour snapshot, and the serving layer swaps planner weight versions
// atomically — CH hierarchies re-customize in the background while the
// old version keeps answering.
//
// Usage:
//
//	demoserver [-addr :8080] [-seed N] [-ratings ratings.json] [-workers N]
//	           [-trees dijkstra|ch] [-hierarchy cch|cch-perfect]
//	           [-order flow|geometric] [-query elimtree|bidij]
//	           [-traffic-step 30s] [-cache 4096]
//	           [-metrics] [-ingest] [-verbose]
//
// -metrics (default on) serves the Prometheus text exposition on GET
// /metrics; -ingest opens the POST /api/observations telemetry path
// (observed speeds, incident closures, deterministic scenario replay);
// -verbose restores the per-query log lines the hot handlers no longer
// emit by default. The listener bounds every connection with fixed read,
// write and idle timeouts (see newHTTPServer).
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"repro/internal/backendflag"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	seed := flag.Int64("seed", 2022, "city generation seed")
	ratingsPath := flag.String("ratings", "ratings.json", "file the submitted ratings are stored in (empty disables)")
	workers := flag.Int("workers", 0, "concurrent planner calls per city (0 = number of CPUs)")
	backend := backendflag.Register(flag.CommandLine, "ch")
	trafficStep := flag.Duration("traffic-step", 0, "auto-advance the rush-hour traffic sequence at this interval (0 disables; publishes also arrive via POST /api/publish)")
	cacheSize := flag.Int("cache", core.DefaultCacheSize, "versioned result-cache capacity of the serving engine (0 disables)")
	metricsOn := flag.Bool("metrics", true, "serve the Prometheus scrape endpoint on GET /metrics (query/customization latency, cache hit rates, store versions, ingest state)")
	ingest := flag.Bool("ingest", false, "accept live telemetry on POST /api/observations (observed speeds and incident closures publish into the traffic store)")
	verbose := flag.Bool("verbose", false, "log a line per /api/routes and /api/matrix request; off by default because a per-query Printf serializes the hot path under load")
	flag.Parse()

	opts, err := backend.Options()
	if err == nil {
		err = run(*addr, *seed, *ratingsPath, *workers, opts, *trafficStep, *cacheSize, *metricsOn, *ingest, *verbose)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "demoserver:", err)
		os.Exit(1)
	}
}

func run(addr string, seed int64, ratingsPath string, workers int, opts core.Options, trafficStep time.Duration, cacheSize int, metricsOn, ingest, verbose bool) error {
	fmt.Printf("Generating the three city networks (seed %d, %s trees, %s hierarchy, %s order)...\n", seed, opts.TreeBackend, opts.Hierarchy, opts.Order)
	study, err := eval.NewStudyOpts(seed, opts)
	if err != nil {
		return err
	}
	// One shared engine bounds planner concurrency server-wide, so a
	// burst of requests cannot oversubscribe the machine. Its result
	// cache is keyed by (planner, weight version, s, t) and invalidated
	// on every publish.
	engine := core.NewEngine(workers)
	engine.SetCache(cacheSize)
	for _, name := range study.CityNames() {
		c := study.Cities[name]
		c.SetEngine(engine)
		log.Printf("demoserver: %-11s %5d nodes, %5d edges, trees=%s, hierarchy=%s, public weights v%d, traffic weights v%d",
			name, c.Graph.NumNodes(), c.Graph.NumEdges(), opts.TreeBackend, opts.Hierarchy,
			c.PublicStore.Version(), c.TrafficStore.Version())
	}
	if trafficStep > 0 {
		go autoAdvance(study, trafficStep)
	}
	var sopts []server.Option
	if metricsOn {
		sopts = append(sopts, server.WithMetrics())
	}
	if ingest {
		sopts = append(sopts, server.WithIngest())
	}
	sopts = append(sopts, server.WithVerbose(verbose))
	srv := server.New(study.Cities, ratingsPath, sopts...)
	log.Printf("demoserver: listening on http://localhost%s (%d planner workers, cache %d, traffic-step %v, metrics %v, ingest %v, verbose %v)",
		addr, engine.Workers(), cacheSize, trafficStep, metricsOn, ingest, verbose)
	return newHTTPServer(addr, srv).ListenAndServe()
}

// Connection bounds of the listener. A slow or stalled client holds a
// connection (and, mid-request, an engine slot) for at most these.
const (
	// readHeaderTimeout bounds reading the request line and headers.
	readHeaderTimeout = 5 * time.Second
	// readTimeout bounds reading the whole request, body included; the
	// largest body accepted is 1 MiB.
	readTimeout = 15 * time.Second
	// writeTimeout bounds the time from the end of the request headers to
	// the end of the response write, so it must clear the slowest
	// legitimate response — a 128×128 /api/matrix table on Dijkstra
	// trees, queued behind a full engine — with a wide margin. Computed
	// alone, that table takes ~0.1 s on Melbourne (2-CPU container).
	writeTimeout = 60 * time.Second
	// idleTimeout bounds how long a keep-alive connection may wait for
	// its next request.
	idleTimeout = 120 * time.Second
)

// newHTTPServer returns the listener serving h on addr with the
// connection bounds above.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// autoAdvance publishes the next rush-hour snapshot of every city at a
// fixed cadence — the "shifting traffic" mode of the live demo.
func autoAdvance(study *eval.Study, step time.Duration) {
	ticker := time.NewTicker(step)
	defer ticker.Stop()
	for range ticker.C {
		for _, name := range study.CityNames() {
			c := study.Cities[name]
			snap := c.AdvanceTraffic()
			log.Printf("demoserver: %s traffic advanced to step %d (weights v%d)", name, c.Seq.Step(), snap.Version())
		}
	}
}
