package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// The driver measures in child processes of its own binary; under go test
// that binary is the test binary, so TestMain serves the child mode.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// smokeShorten divides every workload's simulated duration for the smoke
// test, so all three workloads run in well under a minute.
const smokeShorten = 10

func smokeDriver(t *testing.T, name string) *driver {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return &driver{w: w.shortened(smokeShorten), seed: 1, shorten: smokeShorten}
}

// checkReport requires a correct report that carries every declared metric
// with its unit, as a finite number.
func checkReport(t *testing.T, r *report, defs []metric) {
	t.Helper()
	if !r.correct {
		t.Fatalf("%s: report not correct: %v", r.w.name, r.problems)
	}
	res := r.result()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", r.w.name, len(res.Metrics), len(defs))
	}
	for _, m := range defs {
		v, ok := res.Metrics[m.name]
		if !ok {
			t.Errorf("%s: metric %s missing", r.w.name, m.name)
			continue
		}
		if v.Unit != m.unit {
			t.Errorf("%s: metric %s unit %q, want %q", r.w.name, m.name, v.Unit, m.unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: metric %s = %v", r.w.name, m.name, v.Value)
		}
	}
	if res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("%s: attempted %d failed %d", r.w.name, res.Attempted, res.Failed)
	}
}

func TestRunSeed(t *testing.T) {
	for _, seed := range []int64{-3, -1, 0, 1, 424242} {
		for j := 0; j < subRuns; j++ {
			if got := runSeed(subSeed(seed, j)); got != seed {
				t.Errorf("runSeed(subSeed(%d, %d)) = %d", seed, j, got)
			}
		}
	}
}

// virtualMetrics are the end-to-end metrics in the virtual clock, which
// must repeat bit for bit.
var virtualMetrics = []string{"sim_ops_per_s", "sim_p50_us", "sim_p99_us", "sim_goodput_mbps"}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload in child processes")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			d := smokeDriver(t, w.name)
			first, err := d.endToEnd(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, first, endToEndMetrics)

			second, err := d.endToEnd(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range virtualMetrics {
				if a, b := first.metrics[m], second.metrics[m]; a != b {
					t.Errorf("%s not bit-identical across runs: %v vs %v", m, a, b)
				}
			}

			layers, err := d.perLayer(ctx)
			if err != nil {
				t.Fatal(err)
			}
			// perLayer marks the report incorrect unless the host shares
			// sum to 100 +- 1%, so checkReport covers that too.
			checkReport(t, layers, perLayerMetrics)
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics the benchmark emits, with the same units and
// directions.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []decl, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, benchmark %s/%s/%s",
					kind, i, g.Name, g.Unit, g.Better, m.name, m.unit, m.better)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndMetrics)
	same("per_layer", b.PerLayer, perLayerMetrics)
	largest := 0.0
	for _, m := range b.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound must be in (0, 0.25]", m.Name)
		} else if m.Name != "setup_s" && *m.Bound > largest {
			largest = *m.Bound
		}
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Bound != nil && *m.Bound < largest {
			t.Errorf("setup_s bound %v is not the largest (%v)", *m.Bound, largest)
		}
	}
}
