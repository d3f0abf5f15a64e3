package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json that names the metrics.
type benchmarkFile struct {
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

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// quick shrinks a workload so that a pass over it takes seconds.
func quick(spec workloadSpec) workloadSpec {
	spec.setups = 1
	spec.warmOps = min(spec.warmOps, 20)
	if spec.uris > 0 {
		spec.uris = 3000
	}
	return spec
}

// requireMetrics fails unless got holds exactly the named metrics, each
// with the declared unit.
func requireMetrics(t *testing.T, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("got %d metrics, want %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("metric %s missing", w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		}
	}
}

// TestSelf runs every workload once measured and once traced, and
// requires every declared metric, no failed operation, passing checks
// and a span file whose parents all resolve.
func TestSelf(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		spec, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %s is unknown", w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			spec := quick(spec)
			o := options{workload: w.Name, seed: 7, seconds: 1}
			res, _, err := runMeasured(spec, o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("measured run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			requireMetrics(t, res.Metrics, bf.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}

			o.trace, o.seconds = true, 2
			o.spans = filepath.Join(t.TempDir(), "spans.json")
			res, _, err = runTraced(spec, o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			requireMetrics(t, res.Metrics, bf.PerLayer)
			spans, err := readSpans(o.spans)
			if err != nil {
				t.Fatal(err)
			}
			if _, roots := selfTimes(spans, "op"); roots == 0 {
				t.Fatal("span file holds no traced operation")
			}
		})
	}
}

// TestWrongReplyCounted makes the replicas answer wrong bytes and
// requires every call to count as failed.
func TestWrongReplyCounted(t *testing.T) {
	for _, name := range []string{"svc-small", "svc-bulk"} {
		t.Run(name, func(t *testing.T) {
			spec := quick(workloads[name])
			c, err := startSvc(spec, 3, true)
			if err != nil {
				t.Fatal(err)
			}
			defer c.close()
			if err := warm(c, spec); err == nil {
				t.Fatal("warm-up accepted wrong replies")
			}
			w := measure(c, spec, time.Second, nil)
			if w.attempted == 0 || w.failed != w.attempted {
				t.Fatalf("attempted %d, failed %d: wrong replies must all fail", w.attempted, w.failed)
			}
		})
	}
}

// TestSelfTimes checks the self-time arithmetic on a hand-built tree.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "service", Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: "streammux", Start: 30, End: 90}, // overlaps 2
		{ID: 4, Parent: 3, Layer: "server", Start: 50, End: 60},
	}
	self, roots := selfTimes(spans, "op")
	if roots != 1 {
		t.Fatalf("roots = %d", roots)
	}
	want := map[string]float64{"bench": 0.020, "service": 0.030, "streammux": 0.050, "server": 0.010}
	for l, v := range want {
		if d := self[l] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("self[%s] = %v, want %v", l, self[l], v)
		}
	}
}
