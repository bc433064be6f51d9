package model_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/model"
)

func analyzeBench(t *testing.T, benchName, kernel string, wg int64) *model.Analysis {
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

func TestDiagnoseMemoryBound(t *testing.T) {
	// nn in barrier mode is dominated by its global transfers.
	an := analyzeBench(t, "nn", "nn", 64)
	e := an.Predict(model.Design{WGSize: 64, WIPipeline: true, PE: 1, CU: 1, Mode: model.ModeBarrier})
	d := an.Diagnose(e)
	if d.Bottleneck != model.BoundMemory {
		t.Errorf("bottleneck = %v, want memory", d.Bottleneck)
	}
	if len(d.Hints) == 0 {
		t.Error("no hints produced")
	}
}

func TestDiagnoseComputeBound(t *testing.T) {
	// kmeans/center does 40 FLOPs per element fetched.
	an := analyzeBench(t, "kmeans", "center", 64)
	e := an.Predict(model.Design{WGSize: 64, WIPipeline: false, PE: 1, CU: 1, Mode: model.ModePipeline})
	d := an.Diagnose(e)
	if d.Bottleneck != model.BoundCompute {
		t.Errorf("bottleneck = %v, want compute", d.Bottleneck)
	}
	// Non-pipelined design must be told to pipeline.
	joined := strings.Join(d.Hints, " ")
	if !strings.Contains(joined, "pipelining") {
		t.Errorf("hints missing pipelining advice: %v", d.Hints)
	}
}

func TestResourceUsageScalesWithParallelism(t *testing.T) {
	an := analyzeBench(t, "kmeans", "center", 64)
	small := an.ResourceUsage(model.Design{WGSize: 64, WIPipeline: true, PE: 1, CU: 1})
	big := an.ResourceUsage(model.Design{WGSize: 64, WIPipeline: true, PE: 8, CU: 4})
	if big.DSPs != small.DSPs*32 {
		t.Errorf("DSPs should scale ×32: %d vs %d", big.DSPs, small.DSPs)
	}
	if !small.Feasible {
		t.Error("1 PE × 1 CU must fit the part")
	}
}

func TestResourceUsageBRAM(t *testing.T) {
	an := analyzeBench(t, "hotspot", "hotspot", 256)
	one := an.ResourceUsage(model.Design{WGSize: 256, WIPipeline: true, PE: 1, CU: 1})
	four := an.ResourceUsage(model.Design{WGSize: 256, WIPipeline: true, PE: 1, CU: 4})
	if one.BRAMKb <= 0 {
		t.Error("hotspot's local tile not accounted")
	}
	if four.BRAMKb != one.BRAMKb*4 {
		t.Errorf("BRAM should scale with CUs: %d vs %d", four.BRAMKb, one.BRAMKb)
	}
}

func TestBottleneckStrings(t *testing.T) {
	names := map[model.Bottleneck]string{
		model.BoundCompute:    "compute",
		model.BoundMemory:     "memory",
		model.BoundRecurrence: "recurrence",
		model.BoundPorts:      "ports",
		model.BoundScheduler:  "scheduler",
	}
	for b, want := range names {
		if b.String() != want {
			t.Errorf("%d.String() = %q, want %q", b, b.String(), want)
		}
	}
}
