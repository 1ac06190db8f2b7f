package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the benchmark must honour.
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

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyRun(t *testing.T, workload string, traced, corrupt bool) (*result, string) {
	t.Helper()
	cfg := &config{workload: workload, seed: 3, seconds: 0.05, trace: traced, dir: t.TempDir(), tiny: true, corrupt: corrupt}
	var out bytes.Buffer
	res, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	return res, out.String()
}

// TestEveryMetricPrinted runs each workload at a tiny scale, untraced and
// traced, and checks that every metric BENCHMARK.json names comes out with
// its unit, both in the result line and in the readable lines before it.
func TestEveryMetricPrinted(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				want := s.EndToEnd
				if traced {
					want = s.PerLayer
				}
				res, out := tinyRun(t, w.Name, traced, false)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d\n%s", traced, res.Correct, res.Failed, res.Attempted, out)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, BENCHMARK.json names %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("traced=%v: metric %s missing", traced, m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("traced=%v: metric %s has unit %q, want %q", traced, m.Name, got.Unit, m.Unit)
					}
					if !strings.Contains(out, "# metric "+m.Name+" ") {
						t.Errorf("traced=%v: metric %s not printed", traced, m.Name)
					}
				}
				if !traced && !strings.Contains(out, "# failed_ratio 0 ") {
					t.Errorf("failed_ratio not printed as 0:\n%s", out)
				}
			}
		})
	}
}

// TestCorruptReferenceFails checks the correctness gate: with one
// reference deliberately damaged, every workload must report failures.
func TestCorruptReferenceFails(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, out := tinyRun(t, w.name, false, true)
			if res.Correct || res.Failed == 0 {
				t.Fatalf("corrupted reference passed: correct=%v failed=%d\n%s", res.Correct, res.Failed, out)
			}
		})
	}
}

func TestUnknownWorkload(t *testing.T) {
	var out bytes.Buffer
	if _, err := run(&config{workload: "nope", seconds: 1, dir: t.TempDir()}, &out); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
