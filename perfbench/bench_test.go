package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestEveryMetricEmitted runs each workload for a handful of requests,
// untraced and traced, and checks that the result carries exactly the
// metrics BENCHMARK.json declares, with their units, and that the
// correctness gate checked answers and found them correct. live-traffic
// is not in BENCHMARK.json (see README.md) but is checked the same way.
func TestEveryMetricEmitted(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		t.Fatal(err)
	}
	units := func(trace bool) map[string]string {
		out := map[string]string{}
		list := sp.EndToEnd
		if trace {
			list = sp.PerLayer
		}
		for _, m := range list {
			out[m.Name] = m.Unit
		}
		return out
	}
	names := []string{"live-traffic"}
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			res, rep, err := run(config{workload: name, seed: 1, seconds: 1, trace: trace, root: "..", setups: 1, limit: 6})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			want := units(trace)
			var got []string
			for metric, m := range res.Metrics {
				got = append(got, metric)
				if want[metric] != m.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", name, trace, metric, m.Unit, want[metric])
				}
			}
			for metric := range want {
				if _, ok := res.Metrics[metric]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, metric)
				}
			}
			sort.Strings(got)
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics %v, BENCHMARK.json declares %d", name, trace, len(got), got, len(want))
			}
			if rep.Gate.Checked == 0 || !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: gate checked %d answers, correct=%v, attempted %d, failed %d: %v",
					name, trace, rep.Gate.Checked, res.Correct, res.Attempted, res.Failed, rep.Gate.Notes)
			}
		}
	}
}
