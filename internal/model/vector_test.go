package model_test

import (
	"context"
	"testing"

	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/model"
	"repro/internal/opencl/ast"
)

// TestVectorizationModeled covers footnote 1 of §3.3.2: kernel
// vectorization via OpenCL vector types is modeled through the PE
// datapath — a float4 kernel moves the same data with a quarter of the
// work-items and must not be predicted slower than its scalar twin.
func TestVectorizationModeled(t *testing.T) {
	scalarK := compileKernel(t, `
__kernel void scale1(__global const float* in, __global float* out, int n) {
    int i = get_global_id(0);
    if (i < n) { out[i] = in[i] * 2.0f; }
}`, "scale1")
	vecK := compileKernel(t, `
__kernel void scale4(__global const float4* in, __global float4* out, int n) {
    int i = get_global_id(0);
    if (i < n) { out[i] = in[i] * 2.0f; }
}`, "scale4")

	const elems = 4096
	p := device.Virtex7()

	scalarCfg := &interp.Config{
		Range: interp.NDRange{Global: [3]int64{elems}, Local: [3]int64{64}},
		Buffers: map[string]*interp.Buffer{
			"in":  interp.NewFloatBuffer(ast.KFloat, elems),
			"out": interp.NewFloatBuffer(ast.KFloat, elems),
		},
		Scalars: map[string]interp.Val{"n": interp.IntVal(elems)},
	}
	vecCfg := &interp.Config{
		Range: interp.NDRange{Global: [3]int64{elems / 4}, Local: [3]int64{64}},
		Buffers: map[string]*interp.Buffer{
			"in":  {Elem: ast.Vector(ast.KFloat, 4), F: make([]float64, elems)},
			"out": {Elem: ast.Vector(ast.KFloat, 4), F: make([]float64, elems)},
		},
		Scalars: map[string]interp.Val{"n": interp.IntVal(elems / 4)},
	}

	anS, err := model.Analyze(context.Background(), scalarK, p, scalarCfg)
	if err != nil {
		t.Fatal(err)
	}
	anV, err := model.Analyze(context.Background(), vecK, p, vecCfg)
	if err != nil {
		t.Fatal(err)
	}

	d := model.Design{WGSize: 64, WIPipeline: true, PE: 1, CU: 1, Mode: model.ModePipeline}
	eS := anS.Predict(d)
	eV := anV.Predict(d)
	if eV.Cycles > eS.Cycles {
		t.Errorf("float4 kernel predicted slower (%v) than scalar (%v) for the same data volume",
			eV.Cycles, eS.Cycles)
	}
	// Both move 16 KiB; the vector kernel's per-WI traffic is 4x wider,
	// so its per-WI burst count must be larger while total bursts match.
	totalS := anS.Mem.BurstsPerWI * float64(anS.NWI)
	totalV := anV.Mem.BurstsPerWI * float64(anV.NWI)
	if totalV < totalS*0.8 || totalV > totalS*1.2 {
		t.Errorf("total burst mismatch: scalar %v vs vector %v", totalS, totalV)
	}
}
