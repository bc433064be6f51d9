package baseline_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/baseline"
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

func TestSDAccelEstimatesSimpleDesign(t *testing.T) {
	an := analyzeKernel(t, "nn", "nn", 64)
	d := model.Design{WGSize: 64, WIPipeline: true, PE: 1, CU: 1, Mode: model.ModeBarrier}
	est, err := baseline.SDAccel(an, d)
	if err != nil {
		t.Fatal(err)
	}
	if est <= 0 {
		t.Fatal("non-positive estimate")
	}
}

func TestSDAccelFailsOnComplexDesigns(t *testing.T) {
	an := analyzeKernel(t, "hotspot", "hotspot", 64)
	cases := []model.Design{
		{WGSize: 64, WIPipeline: true, PE: 16, CU: 1, Mode: model.ModeBarrier},
		{WGSize: 64, WIPipeline: true, PE: 8, CU: 1, Mode: model.ModeBarrier}, // local mem
	}
	for _, d := range cases {
		if _, err := baseline.SDAccel(an, d); !errors.Is(err, baseline.ErrUnsupported) {
			t.Errorf("%v: expected ErrUnsupported, got %v", d, err)
		}
	}
	// Pipeline mode with 4 CUs on a barrier-free kernel fails too.
	an2 := analyzeKernel(t, "nn", "nn", 64)
	d := model.Design{WGSize: 64, WIPipeline: true, PE: 1, CU: 4, Mode: model.ModePipeline}
	if _, err := baseline.SDAccel(an2, d); !errors.Is(err, baseline.ErrUnsupported) {
		t.Errorf("cu4/pipeline: expected ErrUnsupported, got %v", err)
	}
}

func TestSDAccelIgnoresSchedulingOverhead(t *testing.T) {
	// Error source (3): CU counts scale estimates perfectly.
	an := analyzeKernel(t, "kmeans", "center", 64)
	d1 := model.Design{WGSize: 64, WIPipeline: true, PE: 1, CU: 1, Mode: model.ModePipeline}
	d2 := model.Design{WGSize: 64, WIPipeline: true, PE: 1, CU: 2, Mode: model.ModePipeline}
	e1, err1 := baseline.SDAccel(an, d1)
	e2, err2 := baseline.SDAccel(an, d2)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	// Perfect halving of the batch count: e2 ≈ e1/2.
	if e2 < e1*0.4 || e2 > e1*0.6 {
		t.Errorf("2 CUs: %v, want ≈ half of %v (no overhead modeled)", e2, e1)
	}
}

func TestCoarseIgnoresMemoryPatterns(t *testing.T) {
	// The coarse model must rank two designs that differ only in
	// communication mode identically — it cannot see memory behaviour.
	an := analyzeKernel(t, "nn", "nn", 64)
	bar := baseline.Coarse(an, model.Design{WGSize: 64, WIPipeline: true, PE: 2, CU: 1, Mode: model.ModeBarrier})
	pipe := baseline.Coarse(an, model.Design{WGSize: 64, WIPipeline: true, PE: 2, CU: 1, Mode: model.ModePipeline})
	if bar != pipe {
		t.Errorf("coarse model distinguishes modes: %v vs %v", bar, pipe)
	}
}

func TestCoarseRewardsRawParallelism(t *testing.T) {
	an := analyzeKernel(t, "nn", "nn", 64)
	small := baseline.Coarse(an, model.Design{WGSize: 64, WIPipeline: true, PE: 1, CU: 1, Mode: model.ModePipeline})
	big := baseline.Coarse(an, model.Design{WGSize: 64, WIPipeline: true, PE: 16, CU: 4, Mode: model.ModePipeline})
	if big >= small {
		t.Errorf("coarse model does not reward parallelism: %v vs %v", big, small)
	}
}
