// Package repro's top-level benchmark harness: one testing.B benchmark
// per table and figure of the paper's evaluation (§4), plus the ablation
// benches of DESIGN.md §5. Each benchmark runs a bounded slice of the
// experiment so `go test -bench=.` terminates in minutes; the complete
// regeneration (all 60 kernels, full design spaces) is
// `go run ./cmd/flexcl-bench -exp all`, recorded in EXPERIMENTS.md.
package repro_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/rtlsim"
)

// quick bounds the per-iteration cost of the heavy suite benchmarks.
var quick = experiments.Config{MaxKernels: 3, SimMaxGroups: 4}

// BenchmarkTable2Rodinia regenerates Table 2 rows (per-kernel FlexCL and
// SDAccel estimation error + exploration time) over a Rodinia slice.
func BenchmarkTable2Rodinia(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, sum, err := experiments.Table2(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sum.AvgFlexCLErr, "flexcl-err-%")
		b.ReportMetric(sum.AvgSDAccelErr, "sdaccel-err-%")
	}
}

// BenchmarkPolybenchAccuracy regenerates the §4.2 PolyBench accuracy
// result (paper: 8.7 % average absolute error).
func BenchmarkPolybenchAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, sum, err := experiments.PolybenchAccuracy(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sum.AvgFlexCLErr, "flexcl-err-%")
	}
}

// BenchmarkFig4Hotspot3D regenerates the hotspot3D panel of Figure 4
// (estimated vs actual performance per design point).
func BenchmarkFig4Hotspot3D(b *testing.B) {
	benchFig4(b, "hotspot3D", "hotspot3D")
}

// BenchmarkFig4NN regenerates the nn panel of Figure 4.
func BenchmarkFig4NN(b *testing.B) {
	benchFig4(b, "nn", "nn")
}

func benchFig4(b *testing.B, benchName, kernel string) {
	b.Helper()
	k := bench.Find(benchName, kernel)
	if k == nil {
		b.Fatalf("kernel %s/%s missing", benchName, kernel)
	}
	for i := 0; i < b.N; i++ {
		r, err := dse.Explore(context.Background(), k, dse.Options{SimMaxGroups: 4, SkipBaseline: true})
		if err != nil {
			b.Fatal(err)
		}
		fe, _ := r.AvgErrors()
		b.ReportMetric(fe, "flexcl-err-%")
		b.ReportMetric(float64(len(r.Points)), "designs")
	}
}

// BenchmarkRobustnessKU060 regenerates the §4.2 robustness experiment
// (HotSpot + pathfinder on the UltraScale platform; paper: 9.7 %/13.6 %).
func BenchmarkRobustnessKU060(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Robustness(experiments.Config{SimMaxGroups: 4})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.AvgErr, r.Kernel+"-err-%")
		}
	}
}

// BenchmarkDSESpeed measures the §4.3 exploration-speed claim: analytical
// evaluation of a full design space vs ground-truth simulation of the
// same space (the paper compares against hours of synthesis per point).
func BenchmarkDSESpeed(b *testing.B) {
	k := bench.Find("pathfinder", "dynproc")
	for i := 0; i < b.N; i++ {
		r, err := dse.Explore(context.Background(), k, dse.Options{SimMaxGroups: 4, SkipBaseline: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.SimTime)/float64(r.ModelTime), "sim/model-x")
	}
}

// BenchmarkExploreParallel measures the sharded exploration engine:
// the same full exploration (model + baseline skipped, ground-truth
// simulation on) at one worker versus all cores. The two sub-benchmarks
// produce byte-identical Points (see dse.TestExploreDeterministic), so
// the wall-ms delta is pure scheduling win; on a single-core runner the
// two converge, on an n-core runner workers=all approaches n× for this
// simulation-dominated space.
func BenchmarkExploreParallel(b *testing.B) {
	k := bench.Find("pathfinder", "dynproc")
	if k == nil {
		b.Fatal("pathfinder/dynproc missing")
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{"workers=all", runtime.GOMAXPROCS(0)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := dse.Explore(context.Background(), k, dse.Options{
					SimMaxGroups: 4, SkipBaseline: true, Workers: bc.workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(r.WallTime.Milliseconds()), "wall-ms")
				b.ReportMetric(float64(len(r.Points)), "designs")
			}
		})
	}
}

// BenchmarkDSEQuality measures the §4.3 selection-quality claims: gap to
// the true optimum (paper: 2.1 %) and speedup over the unoptimized design
// (paper: 273×).
func BenchmarkDSEQuality(b *testing.B) {
	kernels := []*bench.Kernel{
		bench.Find("nn", "nn"),
		bench.Find("kmeans", "swap"),
		bench.Find("pathfinder", "dynproc"),
	}
	for i := 0; i < b.N; i++ {
		r, err := experiments.DSEQuality(experiments.Config{SimMaxGroups: 4}, kernels)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgGap, "gap-%")
		b.ReportMetric(r.AvgSpeedup, "speedup-x")
	}
}

// BenchmarkSearchComparison regenerates the §4.3 exhaustive-vs-heuristic
// comparison over a PolyBench slice (paper: 96 % vs 12 % optimal).
func BenchmarkSearchComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.SearchComparison(experiments.Config{MaxKernels: 6, SimMaxGroups: 4})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.FlexCLOptimal*100, "flexcl-opt-%")
		b.ReportMetric(r.HeuristicOptimal*100, "heuristic-opt-%")
	}
}

// BenchmarkTable1Patterns regenerates Table 1: profiling the eight
// global-memory access-pattern latencies.
func BenchmarkTable1Patterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table1(experiments.Config{})
		if len(t.Rows) != 8 {
			b.Fatalf("pattern rows = %d", len(t.Rows))
		}
	}
}

// BenchmarkAblationMemoryPatterns (A1) measures the accuracy cost of
// replacing the eight-pattern memory model with one flat latency.
func BenchmarkAblationMemoryPatterns(b *testing.B) {
	benchAblation(b, model.Ablations{SingleMemLatency: true}, "A1")
}

// BenchmarkAblationSchedulingOverhead (A2) removes ΔL_schedule.
func BenchmarkAblationSchedulingOverhead(b *testing.B) {
	benchAblation(b, model.Ablations{NoSchedOverhead: true}, "A2")
}

// BenchmarkAblationSMSvsMII (A3) uses raw MII instead of the SMS-refined
// initiation interval.
func BenchmarkAblationSMSvsMII(b *testing.B) {
	benchAblation(b, model.Ablations{IIFromMII: true}, "A3")
}

// BenchmarkAblationCoalescing (A4) disables burst-coalescing modelling.
func BenchmarkAblationCoalescing(b *testing.B) {
	benchAblation(b, model.Ablations{NoCoalescing: true}, "A4")
}

func benchAblation(b *testing.B, ab model.Ablations, label string) {
	b.Helper()
	k := bench.Find("srad", "srad")
	p := device.Virtex7()
	designs := []model.Design{
		{WGSize: 64, WIPipeline: true, PE: 1, CU: 1, Mode: model.ModeBarrier},
		{WGSize: 64, WIPipeline: true, PE: 4, CU: 2, Mode: model.ModeBarrier},
		{WGSize: 256, WIPipeline: true, PE: 2, CU: 2, Mode: model.ModeBarrier},
	}
	for i := 0; i < b.N; i++ {
		var full, ablated float64
		for _, d := range designs {
			f, err := k.Compile(d.WGSize)
			if err != nil {
				b.Fatal(err)
			}
			an, err := model.Analyze(context.Background(), f, p, k.Config(d.WGSize))
			if err != nil {
				b.Fatal(err)
			}
			f2, _ := k.Compile(d.WGSize)
			sim, err := rtlsim.Simulate(f2, p, k.Config(d.WGSize), d, rtlsim.Options{MaxGroups: 4})
			if err != nil {
				b.Fatal(err)
			}
			full += rtlsim.ErrorVs(an.Predict(d).Cycles, sim.Cycles)
			ablated += rtlsim.ErrorVs(an.PredictWith(d, ab).Cycles, sim.Cycles)
		}
		n := float64(len(designs))
		b.ReportMetric(full/n, "full-err-%")
		b.ReportMetric(ablated/n, label+"-err-%")
	}
}
