// Package server implements the web-based demonstration system of §III:
// a browser UI where a user picks source and target on a city map, sees up
// to three routes from each of the four (blinded) approaches, and submits
// a 1–5 rating per approach plus a residency flag (Figs. 2 and 3 of the
// paper).
//
// The paper's demo plots routes on Google Maps; offline, the UI renders
// the road network and routes on an SVG canvas instead. The query
// processor is the same three-step pipeline: geo-coordinate matching to
// the nearest vertices, alternative-route computation by every approach,
// and travel-time display using the public OSM-derived weights.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/path"
)

// Blinded display labels, fixed as in the paper: "The approaches are named
// A-D (A: Google Maps, B: Plateaus, C: Dissimilarity and D: Penalty)."
var displayLabels = [eval.NumApproaches]string{"A", "B", "C", "D"}

// Server serves the demo UI and API for one or more cities.
type Server struct {
	mux    *http.ServeMux
	cities map[string]*eval.City

	// registry backs GET /metrics when WithMetrics was given; nil
	// otherwise.
	registry *metrics.Registry
	// verbose turns on the per-query log lines of the hot handlers
	// (WithVerbose); errors are logged regardless.
	verbose bool
	// ingest registers POST /api/observations (WithIngest).
	ingest bool

	mu        sync.Mutex
	ratings   []RatingSubmission
	storePath string // optional JSON file the ratings are appended to
}

// RatingSubmission is one submitted feedback form (Fig. 3).
type RatingSubmission struct {
	City     string    `json:"city"`
	Resident bool      `json:"resident"`
	Ratings  [4]int    `json:"ratings"` // A-D display order
	Comment  string    `json:"comment,omitempty"`
	Time     time.Time `json:"time"`
}

// New creates a demo server over the given cities. storePath, if
// non-empty, is a JSON file ratings are persisted to. Options add the
// observability surfaces (WithMetrics, WithIngest, WithVerbose).
func New(cities map[string]*eval.City, storePath string, opts ...Option) *Server {
	s := &Server{
		mux:       http.NewServeMux(),
		cities:    cities,
		storePath: storePath,
	}
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("GET /", s.handleIndex)
	s.mux.HandleFunc("GET /api/cities", s.handleCities)
	s.mux.HandleFunc("GET /api/network", s.handleNetwork)
	s.mux.HandleFunc("GET /api/routes", s.handleRoutes)
	s.mux.HandleFunc("POST /api/matrix", s.handleMatrix)
	s.mux.HandleFunc("POST /api/rating", s.handleRating)
	s.mux.HandleFunc("POST /api/publish", s.handlePublish)
	s.mux.HandleFunc("GET /api/traffic", s.handleTraffic)
	if s.registry != nil {
		s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	}
	if s.ingest {
		s.mux.HandleFunc("POST /api/observations", s.handleObservations)
	}
	return s
}

// handleMetrics serves the Prometheus text exposition of everything the
// serving stack measures: per-query latency histograms per planner,
// cache hit rates, customization latency, selection sizes, matrix table
// shapes, plus the scrape-time counters (store versions, publish
// counts, elimination-tree query totals, ingest state).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	if _, err := s.registry.WriteTo(w); err != nil {
		log.Printf("server: writing metrics: %v", err)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Ratings returns a copy of the submissions received so far.
func (s *Server) Ratings() []RatingSubmission {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]RatingSubmission(nil), s.ratings...)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, indexHTML)
}

func (s *Server) handleCities(w http.ResponseWriter, _ *http.Request) {
	type cityInfo struct {
		Name   string  `json:"name"`
		MinLat float64 `json:"minLat"`
		MinLon float64 `json:"minLon"`
		MaxLat float64 `json:"maxLat"`
		MaxLon float64 `json:"maxLon"`
	}
	var out []cityInfo
	for _, name := range []string{"Melbourne", "Dhaka", "Copenhagen"} {
		c, ok := s.cities[name]
		if !ok {
			continue
		}
		bb := c.Graph.BBox()
		out = append(out, cityInfo{name, bb.MinLat, bb.MinLon, bb.MaxLat, bb.MaxLon})
	}
	writeJSON(w, out)
}

// handleNetwork returns a decimated line sample of the road network for
// background rendering.
func (s *Server) handleNetwork(w http.ResponseWriter, r *http.Request) {
	c, ok := s.cities[r.URL.Query().Get("city")]
	if !ok {
		httpError(w, http.StatusNotFound, "unknown city")
		return
	}
	type seg struct {
		A [2]float64 `json:"a"`
		B [2]float64 `json:"b"`
		C int        `json:"c"` // 0 street, 1 arterial, 2 motorway
	}
	var segs []seg
	step := 1
	if c.Graph.NumEdges() > 30000 {
		step = c.Graph.NumEdges() / 30000
	}
	for e := 0; e < c.Graph.NumEdges(); e += step {
		ed := c.Graph.Edge(graph.EdgeID(e))
		a := c.Graph.Point(ed.From)
		b := c.Graph.Point(ed.To)
		cls := 0
		switch ed.Class {
		case graph.Motorway, graph.MotorwayLink:
			cls = 2
		case graph.Trunk, graph.Primary, graph.Secondary:
			cls = 1
		}
		segs = append(segs, seg{A: [2]float64{a.Lat, a.Lon}, B: [2]float64{b.Lat, b.Lon}, C: cls})
	}
	writeJSON(w, segs)
}

// routeJSON is one displayed route.
type routeJSON struct {
	Points  [][2]float64 `json:"points"`
	Minutes float64      `json:"minutes"`
	KM      float64      `json:"km"`
}

// handleRoutes is the query processor endpoint: it matches the clicked
// coordinates to graph vertices, runs all four approaches and returns
// their routes with OSM travel times, blinded as approaches A–D.
func (s *Server) handleRoutes(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	c, ok := s.cities[q.Get("city")]
	if !ok {
		httpError(w, http.StatusNotFound, "unknown city")
		return
	}
	sp, ok := parseLatLon(q.Get("s"))
	if !ok {
		httpError(w, http.StatusBadRequest, "bad s coordinate (want lat,lon)")
		return
	}
	tp, ok := parseLatLon(q.Get("t"))
	if !ok {
		httpError(w, http.StatusBadRequest, "bad t coordinate (want lat,lon)")
		return
	}
	if !sp.Valid() || !tp.Valid() {
		httpError(w, http.StatusBadRequest, "coordinates out of range")
		return
	}
	// Geo-coordinate matching (query processor step 1).
	sv, _ := c.Index.Nearest(sp)
	tv, _ := c.Index.Nearest(tp)
	if sv == tv {
		httpError(w, http.StatusBadRequest, "source and target map to the same intersection")
		return
	}
	type approachJSON struct {
		Label string `json:"label"`
		// WeightVersion is the weight snapshot this approach's answer was
		// computed under — the observable half of a live swap.
		WeightVersion uint64      `json:"weightVersion"`
		Routes        []routeJSON `json:"routes"`
	}
	out := struct {
		SNode      [2]float64     `json:"sNode"`
		TNode      [2]float64     `json:"tNode"`
		Approaches []approachJSON `json:"approaches"`
	}{
		SNode: [2]float64{c.Graph.Point(sv).Lat, c.Graph.Point(sv).Lon},
		TNode: [2]float64{c.Graph.Point(tv).Lat, c.Graph.Point(tv).Lon},
	}
	// Alternative-route computation (query processor step 2): all four
	// approaches fan out concurrently over the city's engine.
	rs, err := c.RunPlanners(eval.Query{S: sv, T: tv})
	if err != nil {
		httpError(w, http.StatusInternalServerError, "route computation failed")
		log.Printf("server: planners on %s %d->%d: %v", q.Get("city"), sv, tv, err)
		return
	}
	for i := range c.Planners {
		aj := approachJSON{Label: displayLabels[i], WeightVersion: uint64(rs.Versions[i])}
		for _, rt := range rs.Sets[i] {
			aj.Routes = append(aj.Routes, toRouteJSON(c, rt))
		}
		out.Approaches = append(out.Approaches, aj)
	}
	// Live-swap observability: which snapshot each approach answered
	// under, which hierarchy served it (and how long its last
	// customization took), plus the serving cache's cumulative hit rate.
	// Verbose-only: this Printf (and the status formatting feeding it)
	// once ran per query, pushing every concurrent request through the
	// logger's mutex — under load the serving path serialized on it. The
	// same numbers are on GET /metrics without touching the hot path.
	if s.verbose && c.Router != nil {
		hits, misses := c.Router.Engine().CacheStats()
		log.Printf("server: %s %d->%d answered at weight versions A=%d B=%d C=%d D=%d%s (cache %d hits / %d misses)",
			q.Get("city"), sv, tv, rs.Versions[0], rs.Versions[1], rs.Versions[2], rs.Versions[3],
			formatHierarchies(c.Router.HierarchyStatuses()), hits, misses)
	}
	writeJSON(w, out)
}

// matrixLimit caps the endpoint set sizes of one /api/matrix request: a
// 128×128 table is ~2800 restricted sweeps' worth of work on the largest
// city, about the most a synchronous HTTP response should carry.
const matrixLimit = 128

// handleMatrix is the many-to-many endpoint: it snaps every source and
// target coordinate to the nearest vertex and computes the full
// travel-time table through the city's matrix engine — one shared RPHAST
// selection over the target set, one restricted sweep per source —
// under a single weight snapshot (the reported weightVersion).
// Unreachable cells are null (JSON has no +Inf).
func (s *Server) handleMatrix(w http.ResponseWriter, r *http.Request) {
	var req struct {
		City    string       `json:"city"`
		Sources [][2]float64 `json:"sources"` // [lat,lon] each
		Targets [][2]float64 `json:"targets"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	c, ok := s.cities[req.City]
	if !ok {
		httpError(w, http.StatusNotFound, "unknown city")
		return
	}
	if c.Matrix == nil {
		httpError(w, http.StatusConflict, "city has no matrix engine")
		return
	}
	if len(req.Sources) == 0 || len(req.Targets) == 0 {
		httpError(w, http.StatusBadRequest, "need at least one source and one target")
		return
	}
	if len(req.Sources) > matrixLimit || len(req.Targets) > matrixLimit {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("at most %d sources and %d targets per request", matrixLimit, matrixLimit))
		return
	}
	snap := func(pts [][2]float64, what string) ([]graph.NodeID, [][2]float64, bool) {
		ids := make([]graph.NodeID, len(pts))
		snapped := make([][2]float64, len(pts))
		for i, pt := range pts {
			p := geo.Point{Lat: pt[0], Lon: pt[1]}
			if !p.Valid() {
				httpError(w, http.StatusBadRequest, fmt.Sprintf("%s %d out of range", what, i))
				return nil, nil, false
			}
			v, _ := c.Index.Nearest(p)
			ids[i] = v
			snapped[i] = [2]float64{c.Graph.Point(v).Lat, c.Graph.Point(v).Lon}
		}
		return ids, snapped, true
	}
	sources, sNodes, ok := snap(req.Sources, "source")
	if !ok {
		return
	}
	targets, tNodes, ok := snap(req.Targets, "target")
	if !ok {
		return
	}
	start := time.Now()
	tab, err := c.Matrix.Matrix(sources, targets)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "matrix computation failed")
		log.Printf("server: matrix on %s %dx%d: %v", req.City, len(sources), len(targets), err)
		return
	}
	// Seconds as pointers so unreachable cells serialize as null.
	seconds := make([][]*float64, len(sources))
	for i := range sources {
		row := make([]*float64, len(targets))
		for j := range targets {
			if v := tab.At(i, j); !math.IsInf(v, 1) {
				row[j] = &tab.Seconds[i*len(targets)+j]
			}
		}
		seconds[i] = row
	}
	if s.verbose { // per-table log line; the histograms cover the silent case
		sel := "full sweeps"
		if tab.Restricted {
			sel = fmt.Sprintf("sel %d (%s)", tab.SelectionTargets, hitMiss(tab.SelectionHit))
		}
		log.Printf("server: %s matrix %dx%d v%d %s in %s",
			req.City, len(sources), len(targets), tab.Version, sel, time.Since(start).Round(10*time.Microsecond))
	}
	writeJSON(w, struct {
		Sources       [][2]float64 `json:"sources"` // snapped coordinates
		Targets       [][2]float64 `json:"targets"`
		Seconds       [][]*float64 `json:"seconds"` // null = unreachable
		WeightVersion uint64       `json:"weightVersion"`
		Selection     int          `json:"selectionTargets,omitempty"`
		SelectionHit  bool         `json:"selectionHit"`
		Restricted    bool         `json:"restricted"`
	}{sNodes, tNodes, seconds, uint64(tab.Version), tab.SelectionTargets, tab.SelectionHit, tab.Restricted})
}

func hitMiss(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// handlePublish is the live-traffic maintenance endpoint: it advances the
// city's rush-hour sequence one step and/or bans edges (road closures) on
// both metrics, then reports the resulting store versions. Bans are
// applied before the traffic step so a single call closes a road and
// publishes the jam that follows.
func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	c, ok := s.cities[q.Get("city")]
	if !ok {
		httpError(w, http.StatusNotFound, "unknown city")
		return
	}
	if c.Seq == nil || c.TrafficStore == nil || c.PublicStore == nil {
		httpError(w, http.StatusConflict, "city has no live-traffic stores")
		return
	}
	if ban := q.Get("ban"); ban != "" {
		var edges []graph.EdgeID
		for _, f := range strings.Split(ban, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || id < 0 || id >= c.Graph.NumEdges() {
				httpError(w, http.StatusBadRequest, "bad ban edge id: "+f)
				return
			}
			edges = append(edges, graph.EdgeID(id))
		}
		// A closure affects both what the provider plans on and what the
		// public metric reports, so it is banned on both stores.
		c.PublicStore.Ban(edges...)
		c.TrafficStore.Ban(edges...)
		log.Printf("server: %s closed %d edges (public v%d, traffic v%d)",
			q.Get("city"), len(edges), c.PublicStore.Version(), c.TrafficStore.Version())
	}
	if q.Get("step") != "0" { // advancing is the default action
		snap := c.AdvanceTraffic()
		log.Printf("server: %s traffic advanced to step %d (weights v%d)",
			q.Get("city"), c.Seq.Step(), snap.Version())
	}
	s.writeTrafficStatus(w, q.Get("city"), c)
}

// handleTraffic reports the live-traffic state of one city.
func (s *Server) handleTraffic(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("city")
	c, ok := s.cities[name]
	if !ok {
		httpError(w, http.StatusNotFound, "unknown city")
		return
	}
	if c.TrafficStore == nil {
		httpError(w, http.StatusConflict, "city has no live-traffic stores")
		return
	}
	s.writeTrafficStatus(w, name, c)
}

func (s *Server) writeTrafficStatus(w http.ResponseWriter, name string, c *eval.City) {
	out := struct {
		City           string   `json:"city"`
		Step           int      `json:"step"`
		PublicVersion  uint64   `json:"publicVersion"`
		TrafficVersion uint64   `json:"trafficVersion"`
		BannedEdges    []int    `json:"bannedEdges,omitempty"`
		Planners       []uint64 `json:"plannerVersions,omitempty"`
	}{
		City:           name,
		Step:           c.Seq.Step(),
		PublicVersion:  uint64(c.PublicStore.Version()),
		TrafficVersion: uint64(c.TrafficStore.Version()),
	}
	for _, e := range c.TrafficStore.Banned() {
		out.BannedEdges = append(out.BannedEdges, int(e))
	}
	sort.Ints(out.BannedEdges)
	if c.Router != nil {
		for _, v := range c.Router.Versions() {
			out.Planners = append(out.Planners, uint64(v))
		}
	}
	writeJSON(w, out)
}

// parseLatLon parses a "lat,lon" query value: exactly two decimal numbers
// around one comma (surrounding spaces allowed), nothing else — trailing
// input or a third component is an error, not silently dropped.
func parseLatLon(v string) (geo.Point, bool) {
	latS, lonS, ok := strings.Cut(v, ",")
	if !ok {
		return geo.Point{}, false
	}
	lat, err1 := strconv.ParseFloat(strings.TrimSpace(latS), 64)
	lon, err2 := strconv.ParseFloat(strings.TrimSpace(lonS), 64)
	if err1 != nil || err2 != nil {
		return geo.Point{}, false
	}
	return geo.Point{Lat: lat, Lon: lon}, true
}

// formatHierarchies renders the hierarchy observability suffix of the
// per-query log line: hierarchy kind and last customization latency per
// approach running on a hierarchy backend, e.g. " hier A=cch(2.1ms)
// B=cch(2.3ms)"; empty when no approach runs a hierarchy. Runtimes on the
// elimination-tree query engine append a "[q=elimtree asc N trunc P%]"
// block once point-to-point queries have run: the last ascent's
// settled-node count and the cumulative share of ascents the incumbent
// bound truncated early.
func formatHierarchies(statuses []core.HierarchyStatus) string {
	var sb strings.Builder
	for i, st := range statuses {
		if st.Kind == "" || i >= len(displayLabels) {
			continue
		}
		if sb.Len() == 0 {
			sb.WriteString(" hier")
		}
		fmt.Fprintf(&sb, " %s=%s(%s)", displayLabels[i], st.Kind, st.LastCustomize.Round(100*time.Microsecond))
		if st.LastQueryEngine == "elimtree" {
			fmt.Fprintf(&sb, "[q=%s", st.LastQueryEngine)
			if st.ElimQueries > 0 {
				fmt.Fprintf(&sb, " asc %d trunc %.0f%%",
					st.LastAscent, 100*float64(st.ElimTruncated)/float64(st.ElimQueries))
			}
			sb.WriteString("]")
		}
	}
	return sb.String()
}

func toRouteJSON(c *eval.City, p path.Path) routeJSON {
	rj := routeJSON{
		// Travel time rounded to minutes for display, as in the paper.
		Minutes: float64(int(p.TimeS/60 + 0.5)),
		KM:      p.LengthM / 1000,
	}
	for _, pt := range p.Points(c.Graph) {
		rj.Points = append(rj.Points, [2]float64{pt.Lat, pt.Lon})
	}
	return rj
}

// handleRating accepts the feedback form (Fig. 3).
func (s *Server) handleRating(w http.ResponseWriter, r *http.Request) {
	var sub RatingSubmission
	if !decodeBody(w, r, &sub) {
		return
	}
	if _, ok := s.cities[sub.City]; !ok {
		httpError(w, http.StatusBadRequest, "unknown city")
		return
	}
	for _, v := range sub.Ratings {
		if v < 1 || v > 5 {
			httpError(w, http.StatusBadRequest, "ratings must be 1-5")
			return
		}
	}
	if len(sub.Comment) > 4096 {
		httpError(w, http.StatusBadRequest, "comment too long")
		return
	}
	sub.Time = time.Now().UTC()
	s.mu.Lock()
	s.ratings = append(s.ratings, sub)
	all := append([]RatingSubmission(nil), s.ratings...)
	s.mu.Unlock()
	if s.storePath != "" {
		if err := persistRatings(s.storePath, all); err != nil {
			log.Printf("server: persisting ratings: %v", err)
		}
	}
	writeJSON(w, map[string]string{"status": "ok"})
}

func persistRatings(storePath string, all []RatingSubmission) error {
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	tmp := storePath + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, storePath)
}

// maxBodyBytes bounds every JSON request body (matrix, rating,
// observations). The largest legitimate one, a 128×128 matrix request, is
// about 10 KB.
const maxBodyBytes = 1 << 20

// decodeBody decodes the JSON request body into v, reading at most
// maxBodyBytes. It answers 413 on an oversize body and 400 on malformed
// JSON, and reports whether v was decoded.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body over %d bytes", maxBodyBytes))
	default:
		httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
	}
	return false
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("server: encoding response: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
