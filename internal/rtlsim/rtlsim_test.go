package rtlsim_test

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/rtlsim"
)

func simulate(t *testing.T, benchName, kernel string, d model.Design, maxGroups int) *rtlsim.Result {
	t.Helper()
	k := bench.Find(benchName, kernel)
	if k == nil {
		t.Fatalf("kernel %s/%s missing", benchName, kernel)
	}
	f, err := k.Compile(d.WGSize)
	if err != nil {
		t.Fatal(err)
	}
	r, err := rtlsim.Simulate(f, device.Virtex7(), k.Config(d.WGSize), d, rtlsim.Options{MaxGroups: maxGroups})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDeterministic(t *testing.T) {
	d := model.Design{WGSize: 64, WIPipeline: true, PE: 2, CU: 2, Mode: model.ModePipeline}
	a := simulate(t, "nn", "nn", d, 8)
	b := simulate(t, "nn", "nn", d, 8)
	if a.Cycles != b.Cycles {
		t.Fatalf("nondeterministic simulation: %v vs %v", a.Cycles, b.Cycles)
	}
}

func TestPipeliningFasterThanSerial(t *testing.T) {
	serial := simulate(t, "nn", "nn",
		model.Design{WGSize: 64, PE: 1, CU: 1, Mode: model.ModeBarrier}, 8)
	piped := simulate(t, "nn", "nn",
		model.Design{WGSize: 64, WIPipeline: true, PE: 1, CU: 1, Mode: model.ModeBarrier}, 8)
	if piped.Cycles >= serial.Cycles {
		t.Errorf("pipelined (%v) not faster than serial (%v)", piped.Cycles, serial.Cycles)
	}
}

func TestPipelineModeBeatsBarrierForStreaming(t *testing.T) {
	// nn is a pure streaming kernel; overlapping transfers with compute
	// must help (§3.5).
	bar := simulate(t, "nn", "nn",
		model.Design{WGSize: 128, WIPipeline: true, PE: 2, CU: 2, Mode: model.ModeBarrier}, 16)
	pipe := simulate(t, "nn", "nn",
		model.Design{WGSize: 128, WIPipeline: true, PE: 2, CU: 2, Mode: model.ModePipeline}, 16)
	if pipe.Cycles > bar.Cycles {
		t.Errorf("pipeline mode (%v) slower than barrier mode (%v)", pipe.Cycles, bar.Cycles)
	}
}

func TestBarrierKernelUsesBarrierMode(t *testing.T) {
	r := simulate(t, "hotspot", "hotspot",
		model.Design{WGSize: 64, WIPipeline: true, PE: 1, CU: 1, Mode: model.ModePipeline}, 4)
	if r.Mode != model.ModeBarrier {
		t.Errorf("hotspot simulated in %v mode, want barrier", r.Mode)
	}
}

func TestVariantLatenciesDifferAcrossDesigns(t *testing.T) {
	// Different design points hash to different op-latency variants, so
	// the simulated II/depth may differ — the §4.2 error source.
	a := simulate(t, "srad", "srad",
		model.Design{WGSize: 64, WIPipeline: true, PE: 1, CU: 1, Mode: model.ModeBarrier}, 4)
	b := simulate(t, "srad", "srad",
		model.Design{WGSize: 64, WIPipeline: true, PE: 2, CU: 2, Mode: model.ModeBarrier}, 4)
	if a.DepthSim == b.DepthSim && a.Cycles == b.Cycles {
		t.Error("designs indistinguishable; variant selection inactive")
	}
}

func TestExtrapolationScales(t *testing.T) {
	d := model.Design{WGSize: 64, WIPipeline: true, PE: 1, CU: 1, Mode: model.ModePipeline}
	capped := simulate(t, "nn", "nn", d, 8)
	full := simulate(t, "nn", "nn", d, 0)
	// nn has 64 groups; capping at 8 and extrapolating should land within
	// 25 % of the full simulation.
	ratio := capped.Cycles / full.Cycles
	if ratio < 0.75 || ratio > 1.25 {
		t.Errorf("extrapolation off: capped %v vs full %v (ratio %.2f)",
			capped.Cycles, full.Cycles, ratio)
	}
}

func TestMoreCUsHelpComputeBoundKernel(t *testing.T) {
	// kmeans/center is compute-heavy (5 clusters × 8 features per WI).
	one := simulate(t, "kmeans", "center",
		model.Design{WGSize: 64, WIPipeline: true, PE: 1, CU: 1, Mode: model.ModePipeline}, 16)
	four := simulate(t, "kmeans", "center",
		model.Design{WGSize: 64, WIPipeline: true, PE: 1, CU: 4, Mode: model.ModePipeline}, 16)
	if four.Cycles >= one.Cycles {
		t.Errorf("4 CUs (%v) not faster than 1 CU (%v) on compute-bound kernel",
			four.Cycles, one.Cycles)
	}
}

func TestErrorVs(t *testing.T) {
	if got := rtlsim.ErrorVs(110, 100); got != 10 {
		t.Errorf("ErrorVs(110,100) = %v", got)
	}
	if got := rtlsim.ErrorVs(90, 100); got != 10 {
		t.Errorf("ErrorVs(90,100) = %v", got)
	}
	if got := rtlsim.ErrorVs(5, 0); got != 0 {
		t.Errorf("ErrorVs(_,0) = %v", got)
	}
}

func TestSecondsConversion(t *testing.T) {
	p := device.Virtex7()
	if got := rtlsim.Seconds(200e6, p); got != 1.0 {
		t.Errorf("200M cycles at 200MHz = %v s, want 1", got)
	}
}

func TestModelTracksSimulatorAcrossDesigns(t *testing.T) {
	// End-to-end sanity: over a small design sample of a regular kernel,
	// the analytical model must stay within 30 % of the simulator.
	k := bench.Find("kmeans", "swap")
	if k == nil {
		t.Fatal("kmeans/swap missing")
	}
	p := device.Virtex7()
	for _, d := range []model.Design{
		{WGSize: 64, WIPipeline: false, PE: 1, CU: 1, Mode: model.ModeBarrier},
		{WGSize: 64, WIPipeline: true, PE: 1, CU: 1, Mode: model.ModeBarrier},
		{WGSize: 64, WIPipeline: true, PE: 4, CU: 2, Mode: model.ModePipeline},
		{WGSize: 256, WIPipeline: true, PE: 8, CU: 4, Mode: model.ModePipeline},
	} {
		f, err := k.Compile(d.WGSize)
		if err != nil {
			t.Fatal(err)
		}
		an, err := model.Analyze(context.Background(), f, p, k.Config(d.WGSize))
		if err != nil {
			t.Fatal(err)
		}
		est := an.Predict(d)
		f2, _ := k.Compile(d.WGSize)
		sim, err := rtlsim.Simulate(f2, p, k.Config(d.WGSize), d, rtlsim.Options{MaxGroups: 8})
		if err != nil {
			t.Fatal(err)
		}
		if e := rtlsim.ErrorVs(est.Cycles, sim.Cycles); e > 30 {
			t.Errorf("%v: model error %.1f%% (est %v, sim %v)", d, e, est.Cycles, sim.Cycles)
		}
	}
}
