package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/citygen"
	"repro/internal/core"
	"repro/internal/eval"
)

// testCities builds one small city for fast handler tests.
func testCities(t testing.TB) map[string]*eval.City {
	t.Helper()
	p := citygen.Copenhagen()
	p.Rows, p.Cols = 20, 20 // shrink for test speed
	p.Motorway.Present = false
	c, err := eval.NewCity(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*eval.City{"Copenhagen": c}
}

func newTestServer(t testing.TB, store string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(testCities(t), store))
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return res
}

func TestIndexServesUI(t *testing.T) {
	ts := newTestServer(t, "")
	res, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(res.Body)
	body := buf.String()
	for _, want := range []string{"<svg", "Approach", "Submit Rating", "I live (or have lived)"} {
		if !strings.Contains(body, want) {
			t.Errorf("index page missing %q", want)
		}
	}
	// Unknown paths are 404, not the index.
	res2, _ := http.Get(ts.URL + "/nonsense")
	res2.Body.Close()
	if res2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d, want 404", res2.StatusCode)
	}
}

func TestCitiesEndpoint(t *testing.T) {
	ts := newTestServer(t, "")
	var cities []struct {
		Name   string  `json:"name"`
		MinLat float64 `json:"minLat"`
		MaxLat float64 `json:"maxLat"`
	}
	getJSON(t, ts.URL+"/api/cities", &cities)
	if len(cities) != 1 || cities[0].Name != "Copenhagen" {
		t.Fatalf("cities = %+v", cities)
	}
	if cities[0].MinLat >= cities[0].MaxLat {
		t.Error("bbox degenerate")
	}
}

func TestNetworkEndpoint(t *testing.T) {
	ts := newTestServer(t, "")
	var segs []struct {
		A [2]float64 `json:"a"`
		B [2]float64 `json:"b"`
		C int        `json:"c"`
	}
	getJSON(t, ts.URL+"/api/network?city=Copenhagen", &segs)
	if len(segs) < 100 {
		t.Fatalf("network returned only %d segments", len(segs))
	}
	res := getJSON(t, ts.URL+"/api/network?city=Nowhere", nil)
	if res.StatusCode != http.StatusNotFound {
		t.Errorf("unknown city status = %d, want 404", res.StatusCode)
	}
}

func TestRoutesEndpoint(t *testing.T) {
	ts := newTestServer(t, "")
	// Click two opposite corners of the network.
	cs := testCities(t)["Copenhagen"]
	bb := cs.Graph.BBox()
	u := ts.URL + fmt.Sprintf("/api/routes?city=Copenhagen&s=%f,%f&t=%f,%f",
		bb.MinLat, bb.MinLon, bb.MaxLat, bb.MaxLon)
	var out struct {
		SNode      [2]float64 `json:"sNode"`
		Approaches []struct {
			Label  string `json:"label"`
			Routes []struct {
				Points  [][2]float64 `json:"points"`
				Minutes float64      `json:"minutes"`
				KM      float64      `json:"km"`
			} `json:"routes"`
		} `json:"approaches"`
	}
	res := getJSON(t, u, &out)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("routes status = %d", res.StatusCode)
	}
	if len(out.Approaches) != 4 {
		t.Fatalf("approaches = %d, want 4", len(out.Approaches))
	}
	wantLabels := []string{"A", "B", "C", "D"}
	for i, ap := range out.Approaches {
		if ap.Label != wantLabels[i] {
			t.Errorf("approach %d label %s, want %s (blinded order)", i, ap.Label, wantLabels[i])
		}
		if len(ap.Routes) == 0 {
			t.Errorf("approach %s returned no routes", ap.Label)
		}
		for _, r := range ap.Routes {
			if len(r.Points) < 2 || r.Minutes <= 0 || r.KM <= 0 {
				t.Errorf("approach %s has malformed route: %d points, %f min, %f km",
					ap.Label, len(r.Points), r.Minutes, r.KM)
			}
		}
	}
}

func TestRoutesEndpointErrors(t *testing.T) {
	ts := newTestServer(t, "")
	bb := testCities(t)["Copenhagen"].Graph.BBox()
	// A far corner of the network: with it as t, a malformed s is the
	// only thing wrong with the request.
	far := fmt.Sprintf("%f,%f", bb.MaxLat, bb.MaxLon)
	cases := []struct {
		query string
		want  int
	}{
		{"city=Nowhere&s=55,12&t=55.1,12.1", http.StatusNotFound},
		{"city=Copenhagen&s=bogus&t=55.1,12.1", http.StatusBadRequest},
		{"city=Copenhagen&s=55.67,12.56&t=junk", http.StatusBadRequest},
		{"city=Copenhagen&s=999,12&t=55.1,12.1", http.StatusBadRequest},
		{"city=Copenhagen&s=55.676,12.568&t=55.676,12.568", http.StatusBadRequest}, // same vertex
		// Trailing input and a third component used to be dropped
		// silently, serving a route for a coordinate never asked for.
		{fmt.Sprintf("city=Copenhagen&s=%f,%fjunk&t=%s", bb.MinLat, bb.MinLon, far), http.StatusBadRequest},
		{fmt.Sprintf("city=Copenhagen&s=%f,%f,5&t=%s", bb.MinLat, bb.MinLon, far), http.StatusBadRequest},
	}
	for _, c := range cases {
		res := getJSON(t, ts.URL+"/api/routes?"+c.query, nil)
		if res.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.query, res.StatusCode, c.want)
		}
	}
}

func TestRatingSubmission(t *testing.T) {
	store := t.TempDir() + "/ratings.json"
	ts := newTestServer(t, store)
	body := `{"city":"Copenhagen","resident":true,"ratings":[4,3,5,2],"comment":"no route using Blackburn rd"}`
	res, err := http.Post(ts.URL+"/api/rating", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("rating status = %d", res.StatusCode)
	}
	// Persisted to disk.
	data, err := os.ReadFile(store)
	if err != nil {
		t.Fatalf("ratings store not written: %v", err)
	}
	var subs []RatingSubmission
	if err := json.Unmarshal(data, &subs); err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].Ratings != [4]int{4, 3, 5, 2} || !subs[0].Resident {
		t.Errorf("persisted = %+v", subs)
	}
	if subs[0].City != "Copenhagen" || subs[0].Comment == "" {
		t.Errorf("persisted fields wrong: %+v", subs[0])
	}
}

func TestRatingValidation(t *testing.T) {
	ts := newTestServer(t, "")
	bad := []string{
		`{"city":"Nowhere","ratings":[3,3,3,3]}`,
		`{"city":"Copenhagen","ratings":[0,3,3,3]}`,
		`{"city":"Copenhagen","ratings":[3,3,3,6]}`,
		`not json`,
		`{"city":"Copenhagen","ratings":[3,3,3,3],"comment":"` + strings.Repeat("x", 5000) + `"}`,
	}
	for i, body := range bad {
		res, err := http.Post(ts.URL+"/api/rating", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, res.StatusCode)
		}
	}
}

func TestRatingsAccessor(t *testing.T) {
	cities := testCities(t)
	s := New(cities, "")
	ts := httptest.NewServer(s)
	defer ts.Close()
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"city":"Copenhagen","ratings":[%d,3,3,3]}`, i+1)
		res, err := http.Post(ts.URL+"/api/rating", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
	}
	got := s.Ratings()
	if len(got) != 3 {
		t.Fatalf("Ratings() = %d entries, want 3", len(got))
	}
	// The returned slice is a copy.
	got[0].Ratings[0] = 99
	if s.Ratings()[0].Ratings[0] == 99 {
		t.Error("Ratings() must return a copy")
	}
}

// restrictedTestCities builds the test city on the hierarchy backend, so
// the matrix endpoint exercises the shared-selection path.
func restrictedTestCities(t testing.TB) map[string]*eval.City {
	t.Helper()
	p := citygen.Copenhagen()
	p.Rows, p.Cols = 20, 20
	p.Motorway.Present = false
	c, err := eval.NewCityOpts(p, 7, core.Options{TreeBackend: core.TreeCH, Hierarchy: core.HierarchyCCH})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*eval.City{"Copenhagen": c}
}

func postBodyJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return res
}

type matrixRequest struct {
	City    string       `json:"city"`
	Sources [][2]float64 `json:"sources"`
	Targets [][2]float64 `json:"targets"`
}

type matrixResponse struct {
	Sources       [][2]float64 `json:"sources"`
	Targets       [][2]float64 `json:"targets"`
	Seconds       [][]*float64 `json:"seconds"`
	WeightVersion uint64       `json:"weightVersion"`
	Selection     int          `json:"selectionTargets"`
	SelectionHit  bool         `json:"selectionHit"`
	Restricted    bool         `json:"restricted"`
}

func TestMatrixEndpoint(t *testing.T) {
	cities := restrictedTestCities(t)
	ts := httptest.NewServer(New(cities, ""))
	t.Cleanup(ts.Close)

	bb := cities["Copenhagen"].Graph.BBox()
	at := func(fLat, fLon float64) [2]float64 {
		return [2]float64{
			bb.MinLat + fLat*(bb.MaxLat-bb.MinLat),
			bb.MinLon + fLon*(bb.MaxLon-bb.MinLon),
		}
	}
	req := matrixRequest{
		City:    "Copenhagen",
		Sources: [][2]float64{at(0.2, 0.2), at(0.8, 0.3)},
		Targets: [][2]float64{at(0.7, 0.7), at(0.3, 0.8), at(0.5, 0.5)},
	}
	var out matrixResponse
	if res := postBodyJSON(t, ts.URL+"/api/matrix", req, &out); res.StatusCode != http.StatusOK {
		t.Fatalf("matrix status = %d", res.StatusCode)
	}
	if len(out.Seconds) != 2 || len(out.Seconds[0]) != 3 {
		t.Fatalf("seconds dims = %dx%d, want 2x3", len(out.Seconds), len(out.Seconds[0]))
	}
	if len(out.Sources) != 2 || len(out.Targets) != 3 {
		t.Fatalf("snapped endpoint counts = %d/%d", len(out.Sources), len(out.Targets))
	}
	reachable := 0
	for _, row := range out.Seconds {
		for _, cell := range row {
			if cell != nil {
				if *cell < 0 {
					t.Fatalf("negative travel time %v", *cell)
				}
				reachable++
			}
		}
	}
	if reachable == 0 {
		t.Fatal("no reachable cells on a connected test city")
	}
	if !out.Restricted || out.Selection == 0 {
		t.Fatalf("restricted backend served restricted=%v selectionTargets=%d", out.Restricted, out.Selection)
	}

	// The same request again must hit the selection cache and return the
	// same table.
	var out2 matrixResponse
	postBodyJSON(t, ts.URL+"/api/matrix", req, &out2)
	if !out2.SelectionHit {
		t.Error("repeat request missed the selection cache")
	}
	for i := range out.Seconds {
		for j := range out.Seconds[i] {
			a, b := out.Seconds[i][j], out2.Seconds[i][j]
			if (a == nil) != (b == nil) || (a != nil && *a != *b) {
				t.Fatalf("repeat request changed cell %d,%d", i, j)
			}
		}
	}
}

func TestMatrixEndpointErrors(t *testing.T) {
	ts := newTestServer(t, "")
	ok := [][2]float64{{55.68, 12.55}}
	cases := []struct {
		name string
		req  matrixRequest
		want int
	}{
		{"unknown-city", matrixRequest{City: "Atlantis", Sources: ok, Targets: ok}, http.StatusNotFound},
		{"no-sources", matrixRequest{City: "Copenhagen", Targets: ok}, http.StatusBadRequest},
		{"no-targets", matrixRequest{City: "Copenhagen", Sources: ok}, http.StatusBadRequest},
		{"bad-coord", matrixRequest{City: "Copenhagen", Sources: [][2]float64{{360, 12}}, Targets: ok}, http.StatusBadRequest},
		{"oversize", matrixRequest{City: "Copenhagen", Sources: make([][2]float64, matrixLimit+1), Targets: ok}, http.StatusBadRequest},
	}
	for _, c := range cases {
		if res := postBodyJSON(t, ts.URL+"/api/matrix", c.req, nil); res.StatusCode != c.want {
			t.Errorf("%s: status = %d, want %d", c.name, res.StatusCode, c.want)
		}
	}
	res, err := http.Post(ts.URL+"/api/matrix", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status = %d, want 400", res.StatusCode)
	}
}

// TestJSONBodyLimit: every JSON endpoint stops reading at maxBodyBytes
// and answers 413, before any of the body is acted on.
func TestJSONBodyLimit(t *testing.T) {
	cities := testCities(t)
	srv := New(cities, "", WithIngest())
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	oversize := `{"city":"Copenhagen","comment":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, endpoint := range []string{"/api/matrix", "/api/rating", "/api/observations"} {
		t.Run(endpoint, func(t *testing.T) {
			res, err := http.Post(ts.URL+endpoint, "application/json", strings.NewReader(oversize))
			if err != nil {
				t.Fatal(err)
			}
			res.Body.Close()
			if res.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("status = %d, want 413", res.StatusCode)
			}
		})
	}
	if n := len(srv.Ratings()); n != 0 {
		t.Fatalf("%d ratings stored from rejected bodies", n)
	}
	if v := cities["Copenhagen"].TrafficStore.Version(); v != 1 {
		t.Fatalf("traffic store at version %d after rejected observations, want 1", v)
	}
}
