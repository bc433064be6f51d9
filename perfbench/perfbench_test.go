package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/serve/api"
)

// deterministic are the metrics a run computes from counts and exact
// model outputs only; one seed must reproduce them bit for bit.
var deterministic = []string{
	"model_err_pct", "sdaccel_err_pct",
	"dse.evaluated", "dse.prep_computes", "interp.static_share", "artifact.saves",
}

// shortRun runs one workload traced, with the draw cut to a few kernels
// and the minimum number of passes, and returns every metric it set.
func shortRun(t *testing.T, workload string, seed int64) map[string]metric {
	t.Helper()
	r := newRun(options{
		workload: workload, seed: seed, seconds: 0, trace: true,
		workdir: t.TempDir(), maxKernels: 20,
	})
	if err := workloads[workload](r); err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if len(r.failedOps) > 0 {
		t.Fatalf("%s seed %d: %d failed ops, first: %v", workload, seed, len(r.failedOps), r.failMsgs)
	}
	return r.metrics
}

func TestDeterministicMetrics(t *testing.T) {
	if err := os.Chdir(".."); err != nil { // the golden corpus lives at the repository root
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir("perfbench") })
	for _, w := range []string{"dse-cold", "sweep-warm", "serve-mix"} {
		t.Run(w, func(t *testing.T) {
			a, b := shortRun(t, w, 7), shortRun(t, w, 7)
			for _, name := range deterministic {
				if a[name] != b[name] {
					t.Errorf("%s: %v then %v at one seed", name, a[name], b[name])
				}
			}
			if a["model_err_pct"].Value <= 0 {
				t.Errorf("model_err_pct = %v, want a measured error", a["model_err_pct"].Value)
			}
		})
	}
}

func TestSeedChangesDraw(t *testing.T) {
	a, b := makeDraw(1, 0), makeDraw(2, 0)
	if slices.Equal(a.ids(), b.ids()) {
		t.Errorf("seeds 1 and 2 draw the same kernels: %v", a.ids())
	}
	if !slices.Equal(a.ids(), makeDraw(1, 0).ids()) {
		t.Error("one seed drew two different kernel sets")
	}
	r1, r2 := newRun(options{seed: 1}), newRun(options{seed: 2})
	p1, err := newMixPlan(r1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := newMixPlan(r2)
	if err != nil {
		t.Fatal(err)
	}
	if slices.EqualFunc(p1.hot, p2.hot, func(x, y api.PredictRequest) bool { return x.Kernel.ID == y.Kernel.ID }) {
		t.Error("seeds 1 and 2 give the same serve-mix popularity order")
	}
}

// TestBenchmarkJSON checks that the metric lists the program prints are
// the ones BENCHMARK.json declares, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		defs []metricDef
		spec []struct{ Name, Unit string }
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		if len(c.defs) != len(c.spec) {
			t.Errorf("program has %d metrics, BENCHMARK.json %d", len(c.defs), len(c.spec))
			continue
		}
		for i, d := range c.defs {
			if d.name != c.spec[i].Name || d.unit != c.spec[i].Unit {
				t.Errorf("metric %d: program %s [%s], BENCHMARK.json %s [%s]", i, d.name, d.unit, c.spec[i].Name, c.spec[i].Unit)
			}
		}
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no function", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
}
