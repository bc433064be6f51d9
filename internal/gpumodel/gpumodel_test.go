package gpumodel

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/model"
)

func analyzeKernel(t *testing.T, benchName, kernel string, wg int64) *model.Analysis {
	t.Helper()
	k := bench.Find(benchName, kernel)
	if k == nil {
		t.Fatalf("kernel %s/%s missing", benchName, kernel)
	}
	f, err := k.Compile(wg)
	if err != nil {
		t.Fatal(err)
	}
	an, err := model.Analyze(context.Background(), f, device.Virtex7(), k.Config(wg))
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func TestStreamingKernelIsMemoryBound(t *testing.T) {
	an := analyzeKernel(t, "nn", "nn", 64)
	e := Predict(an, K20())
	if !e.MemoryBound {
		t.Errorf("nn on a K20 should be memory bound: compute %.2e s vs memory %.2e s",
			e.ComputeSeconds, e.MemorySeconds)
	}
	if e.Seconds <= 0 {
		t.Fatal("non-positive time")
	}
}

func TestComputeKernelLessMemoryBound(t *testing.T) {
	// lavaMD evaluates exp() per particle pair — far more arithmetic per
	// loaded word than the streaming memset.
	anC := analyzeKernel(t, "lavaMD", "lavaMD", 64)
	anM := analyzeKernel(t, "cfd", "memset", 64)
	c := Predict(anC, K20())
	m := Predict(anM, K20())
	ratioC := c.ComputeSeconds / c.MemorySeconds
	ratioM := m.ComputeSeconds / m.MemorySeconds
	if ratioC <= ratioM {
		t.Errorf("lavaMD compute/memory ratio (%v) should exceed memset's (%v)", ratioC, ratioM)
	}
}

func TestEmbeddedSlowerThanDiscrete(t *testing.T) {
	an := analyzeKernel(t, "srad", "srad", 64)
	big := Predict(an, K20())
	small := Predict(an, EmbeddedGPU())
	if small.Seconds < big.Seconds {
		t.Errorf("embedded GPU (%v s) predicted faster than K20 (%v s)",
			small.Seconds, big.Seconds)
	}
}

func TestCompareUsesSeconds(t *testing.T) {
	an := analyzeKernel(t, "pathfinder", "dynproc", 64)
	d := model.Design{WGSize: 64, WIPipeline: true, PE: 4, CU: 4, Mode: model.ModeBarrier}
	fpga := an.Predict(d)
	speedup := Compare(an, fpga, K20())
	if speedup <= 0 {
		t.Fatalf("speedup = %v", speedup)
	}
	gpu := Predict(an, K20())
	want := gpu.Seconds / fpga.Seconds
	if speedup != want {
		t.Errorf("Compare = %v, want %v", speedup, want)
	}
}

func TestLaunchOverheadFloor(t *testing.T) {
	// A tiny kernel cannot beat the launch-overhead floor.
	an := analyzeKernel(t, "cfd", "memset", 64)
	e := Predict(an, K20())
	if e.Seconds < 5e-6 {
		t.Errorf("below launch floor: %v", e.Seconds)
	}
}
