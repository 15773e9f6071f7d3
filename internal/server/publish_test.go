package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/citygen"
	"repro/internal/core"
	"repro/internal/eval"
)

type trafficStatus struct {
	City           string   `json:"city"`
	Step           int      `json:"step"`
	PublicVersion  uint64   `json:"publicVersion"`
	TrafficVersion uint64   `json:"trafficVersion"`
	BannedEdges    []int    `json:"bannedEdges"`
	Planners       []uint64 `json:"plannerVersions"`
}

func postJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	res, err := http.Post(url, "application/json", nil)
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

func TestTrafficStatusEndpoint(t *testing.T) {
	ts := newTestServer(t, "")
	var st trafficStatus
	res := getJSON(t, ts.URL+"/api/traffic?city=Copenhagen", &st)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if st.Step != 0 || st.PublicVersion != 1 || st.TrafficVersion != 1 {
		t.Fatalf("initial state = %+v, want step 0, versions 1/1", st)
	}
	if len(st.Planners) != 4 {
		t.Fatalf("planner versions = %v, want 4 entries", st.Planners)
	}
}

func TestPublishAdvancesTrafficAndBans(t *testing.T) {
	ts := newTestServer(t, "")

	var st trafficStatus
	res := postJSON(t, ts.URL+"/api/publish?city=Copenhagen", &st)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("publish status = %d", res.StatusCode)
	}
	if st.Step != 1 || st.TrafficVersion != 2 {
		t.Fatalf("after publish: %+v, want step 1, traffic v2", st)
	}
	if st.PublicVersion != 1 {
		t.Fatalf("publish moved the public metric to v%d", st.PublicVersion)
	}

	// A closure bans on both stores and then steps traffic again.
	res = postJSON(t, ts.URL+"/api/publish?city=Copenhagen&ban=0,1", &st)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("ban status = %d", res.StatusCode)
	}
	if len(st.BannedEdges) != 2 || st.BannedEdges[0] != 0 || st.BannedEdges[1] != 1 {
		t.Fatalf("banned edges = %v, want [0 1]", st.BannedEdges)
	}
	if st.PublicVersion != 2 || st.TrafficVersion != 4 {
		// public: v1 + ban republish = 2; traffic: v2 + ban + step = 4.
		t.Fatalf("after ban+step: %+v, want public v2, traffic v4", st)
	}

	// Routes still answer after the swaps, and report their versions.
	var rr struct {
		Approaches []struct {
			Label         string `json:"label"`
			WeightVersion uint64 `json:"weightVersion"`
		} `json:"approaches"`
	}
	bb := testCities(t)["Copenhagen"].Graph.BBox()
	res = getJSON(t, ts.URL+fmt.Sprintf("/api/routes?city=Copenhagen&s=%f,%f&t=%f,%f",
		bb.MinLat, bb.MinLon, bb.MaxLat, bb.MaxLon), &rr)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("routes after publish: status %d", res.StatusCode)
	}
	if len(rr.Approaches) != 4 {
		t.Fatalf("approaches = %d, want 4", len(rr.Approaches))
	}
	for _, a := range rr.Approaches {
		if a.WeightVersion == 0 {
			t.Errorf("approach %s reports no weight version", a.Label)
		}
	}

	res = postJSON(t, ts.URL+"/api/publish?city=Nowhere", nil)
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown city publish: status %d", res.StatusCode)
	}
	res = postJSON(t, ts.URL+"/api/publish?city=Copenhagen&ban=notanedge", nil)
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad ban id: status %d", res.StatusCode)
	}
}

// TestRoutesVersionConsistentUnderClosureStorm: approaches B, C and D
// plan on the public store, so every /api/routes response must report
// one weightVersion for the three of them even while closure publishes
// land mid-request. The city runs the demo server's ch backend:
// Plateaus and Dissimilarity share a double-buffered hierarchy that
// trails each publish until its background customization swaps, while
// Penalty resolves the store directly — the mix the Router's
// version-consistency retry exists to reconcile.
func TestRoutesVersionConsistentUnderClosureStorm(t *testing.T) {
	p := citygen.Copenhagen()
	p.Rows, p.Cols = 20, 20
	p.Motorway.Present = false
	c, err := eval.NewCityOpts(p, 7, core.Options{TreeBackend: core.TreeCH})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(map[string]*eval.City{"Copenhagen": c}, ""))
	t.Cleanup(ts.Close)
	bb := c.Graph.BBox()
	routesURL := ts.URL + fmt.Sprintf("/api/routes?city=Copenhagen&s=%f,%f&t=%f,%f",
		bb.MinLat, bb.MinLon, bb.MaxLat, bb.MaxLon)

	// Publishes are paced so that a request's retries (a Sync barrier plus
	// a re-run) fit between two of them; back-to-back publishes could
	// outlast the bounded retry loop by design.
	const publishes = 16
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < publishes; i++ {
			url := fmt.Sprintf("%s/api/publish?city=Copenhagen&step=0&ban=%d", ts.URL, (i*97)%c.Graph.NumEdges())
			res, err := http.Post(url, "application/json", nil)
			if err != nil {
				t.Error(err)
				return
			}
			res.Body.Close()
			time.Sleep(20 * time.Millisecond)
		}
	}()
	responses := 0
	for running := true; running; responses++ {
		select {
		case <-done:
			running = false
		default:
		}
		var out struct {
			Approaches []struct {
				WeightVersion uint64 `json:"weightVersion"`
			} `json:"approaches"`
		}
		if res := getJSON(t, routesURL, &out); res.StatusCode != http.StatusOK {
			t.Fatalf("routes status = %d", res.StatusCode)
		}
		if len(out.Approaches) != 4 {
			t.Fatalf("%d approaches, want 4", len(out.Approaches))
		}
		b, cv, d := out.Approaches[1].WeightVersion, out.Approaches[2].WeightVersion, out.Approaches[3].WeightVersion
		if b != cv || b != d {
			t.Fatalf("response %d mixes public weight versions: B=%d C=%d D=%d", responses, b, cv, d)
		}
	}
	if v := c.PublicStore.Version(); v != 1+publishes {
		t.Fatalf("public store at version %d, want %d", v, 1+publishes)
	}
}
