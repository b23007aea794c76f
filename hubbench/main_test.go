package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the benchmark must agree with.
type spec struct {
	Command   []string `json:"command"`
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

// TestBenchmarkJSONAgrees keeps BENCHMARK.json and the benchmark's own
// workload and metric tables identical, names and units in order.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark runs %s", got, want)
	}
	listed := func(ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		return strings.Join(out, ", ")
	}
	defined := func(ms []metric) string {
		var out []string
		for _, m := range ms {
			out = append(out, m.name+" "+m.unit)
		}
		return strings.Join(out, ", ")
	}
	if got, want := listed(s.EndToEnd), defined(endToEnd); got != want {
		t.Errorf("BENCHMARK.json end_to_end:\n%s\nbenchmark reports:\n%s", got, want)
	}
	if got, want := listed(s.PerLayer), defined(perLayer); got != want {
		t.Errorf("BENCHMARK.json per_layer:\n%s\nbenchmark reports:\n%s", got, want)
	}
}

// TestSmoke runs every workload, untraced and traced, at a tiny scale
// and checks that every metric is printed by name with its unit, that
// every answer checked out and that the time metrics are non-zero.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl.name, trace), func(t *testing.T) {
				res, lines, err := run(wl, 7, 300*time.Millisecond, trace, 0.02, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				out := strings.Join(lines, "\n")
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out)
				}
				if !strings.Contains(out, "failed_frac 0 share") {
					t.Errorf("failed_frac not reported as 0:\n%s", out)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
					if !strings.Contains(out, d.name+" ") {
						t.Errorf("metric %s not printed", d.name)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %g, want > 0", d.name, m.Value)
					}
				}
			})
		}
	}
}
