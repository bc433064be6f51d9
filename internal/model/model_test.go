package model_test

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/model"
	"repro/internal/opencl/ast"
)

func compileKernel(t *testing.T, src, name string) *ir.Func {
	t.Helper()
	m, err := irgen.Compile("test.cl", []byte(src), nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	k := m.Kernel(name)
	if k == nil {
		t.Fatalf("kernel %s not found", name)
	}
	return k
}

const vadd = `
__kernel void vadd(__global const float* a, __global const float* b,
                   __global float* c, int n) {
    int i = get_global_id(0);
    if (i < n) { c[i] = a[i] + b[i]; }
}`

func vaddLaunch(n, wg int64) *interp.Config {
	mk := func() *interp.Buffer {
		b := interp.NewFloatBuffer(ast.KFloat, int(n))
		for i := range b.F {
			b.F[i] = float64(i % 7)
		}
		return b
	}
	return &interp.Config{
		Range:   interp.NDRange{Global: [3]int64{n}, Local: [3]int64{wg}},
		Buffers: map[string]*interp.Buffer{"a": mk(), "b": mk(), "c": mk()},
		Scalars: map[string]interp.Val{"n": interp.IntVal(n)},
	}
}

func analyze(t *testing.T, src, name string, n, wg int64) *model.Analysis {
	t.Helper()
	k := compileKernel(t, src, name)
	an, err := model.Analyze(context.Background(), k, device.Virtex7(), vaddLaunch(n, wg))
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func TestAnalyzeBasics(t *testing.T) {
	an := analyze(t, vadd, "vadd", 4096, 64)
	if an.NWI != 4096 || an.WGSize != 64 {
		t.Errorf("NWI=%d WGSize=%d", an.NWI, an.WGSize)
	}
	if an.Mem.BurstsPerWI <= 0 {
		t.Error("no memory behaviour classified")
	}
	if len(an.Freq) == 0 {
		t.Error("no block frequencies")
	}
}

func TestPipeliningHelps(t *testing.T) {
	an := analyze(t, vadd, "vadd", 4096, 64)
	off := an.Predict(model.Design{WGSize: 64, PE: 1, CU: 1, Mode: model.ModeBarrier})
	on := an.Predict(model.Design{WGSize: 64, WIPipeline: true, PE: 1, CU: 1, Mode: model.ModeBarrier})
	if on.Cycles >= off.Cycles {
		t.Errorf("pipelining did not help: %v vs %v", on.Cycles, off.Cycles)
	}
	if on.IIComp >= off.IIComp {
		t.Errorf("II with pipeline (%d) should be < without (%d)", on.IIComp, off.IIComp)
	}
}

func TestEquation1Structure(t *testing.T) {
	// For NPE = NCU = 1 in barrier mode, L_comp^CU = II·(Nwg−1) + D.
	an := analyze(t, vadd, "vadd", 4096, 64)
	e := an.Predict(model.Design{WGSize: 64, WIPipeline: true, PE: 1, CU: 1, Mode: model.ModeBarrier})
	want := float64(e.IIComp)*(64-1) + float64(e.Depth)
	if e.LCompCU != want {
		t.Errorf("L_comp^CU = %v, want Eq.1 value %v", e.LCompCU, want)
	}
}

func TestEquation10Structure(t *testing.T) {
	an := analyze(t, vadd, "vadd", 4096, 64)
	e := an.Predict(model.Design{WGSize: 64, WIPipeline: true, PE: 1, CU: 1, Mode: model.ModeBarrier})
	want := e.LMemWI*float64(an.NWI) + e.LCompKernel
	if e.Cycles < want-1 || e.Cycles > want+1 {
		t.Errorf("barrier cycles = %v, want Eq.10 value %v", e.Cycles, want)
	}
}

func TestBarrierKernelForcedMode(t *testing.T) {
	src := `
__kernel void k(__global float* x) {
    __local float t[WG];
    int l = get_local_id(0);
    t[l] = x[l];
    barrier(CLK_LOCAL_MEM_FENCE);
    x[l] = t[0];
}`
	m, err := irgen.Compile("t.cl", []byte(src), map[string]string{"WG": "64"})
	if err != nil {
		t.Fatal(err)
	}
	k := m.Kernels[0]
	d := model.Design{WGSize: 64, WIPipeline: true, PE: 1, CU: 1, Mode: model.ModePipeline}
	if model.EffectiveMode(k, d) != model.ModeBarrier {
		t.Error("barrier kernel not forced to barrier mode")
	}
}

func TestMoreCUsNeverSlower(t *testing.T) {
	an := analyze(t, vadd, "vadd", 4096, 64)
	c1 := an.Predict(model.Design{WGSize: 64, WIPipeline: true, PE: 1, CU: 1, Mode: model.ModePipeline})
	c4 := an.Predict(model.Design{WGSize: 64, WIPipeline: true, PE: 1, CU: 4, Mode: model.ModePipeline})
	if c4.Cycles > c1.Cycles*1.05 {
		t.Errorf("4 CUs (%v) slower than 1 CU (%v)", c4.Cycles, c1.Cycles)
	}
}

func TestNPEBoundedByPorts(t *testing.T) {
	src := `
__kernel void k(__global float* x) {
    __local float t[WG];
    int l = get_local_id(0);
    t[l] = x[l];
    barrier(CLK_LOCAL_MEM_FENCE);
    float s = t[l] + t[(l + 1) % WG] + t[(l + 2) % WG] + t[(l + 3) % WG]
            + t[(l + 4) % WG] + t[(l + 5) % WG] + t[(l + 6) % WG] + t[(l + 7) % WG];
    x[l] = s;
}`
	m, err := irgen.Compile("t.cl", []byte(src), map[string]string{"WG": "64"})
	if err != nil {
		t.Fatal(err)
	}
	k := m.Kernels[0]
	buf := interp.NewFloatBuffer(ast.KFloat, 64)
	cfg := &interp.Config{
		Range:   interp.NDRange{Global: [3]int64{64}, Local: [3]int64{64}},
		Buffers: map[string]*interp.Buffer{"x": buf},
	}
	an, err := model.Analyze(context.Background(), k, device.Virtex7(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := an.Predict(model.Design{WGSize: 64, WIPipeline: true, PE: 16, CU: 1, Mode: model.ModeBarrier})
	// 8 local reads per WI vs 8 read ports: effective PE parallelism 1.
	if e.NPE > 2 {
		t.Errorf("NPE = %d; expected the 8-reads/WI kernel to be port-bound", e.NPE)
	}
}

func TestDefaultSpaceComposition(t *testing.T) {
	ds := model.DefaultSpace(256, 16, 4)
	// 5 wg sizes × (1 non-pipelined PE + 5 pipelined PEs) × 3 CUs × 2 modes.
	if len(ds) != 5*6*3*2 {
		t.Errorf("design space size = %d, want 180", len(ds))
	}
	seen := map[string]bool{}
	for _, d := range ds {
		if seen[d.String()] {
			t.Fatalf("duplicate design %v", d)
		}
		seen[d.String()] = true
		if !d.WIPipeline && d.PE > 1 {
			t.Errorf("non-pipelined multi-PE design generated: %v", d)
		}
	}
	// WGSpaceLen counts what WGSpace lists, empty lattices included.
	for maxPE := 0; maxPE <= 20; maxPE++ {
		for maxCU := 0; maxCU <= 9; maxCU++ {
			if got, want := len(model.WGSpace(nil, 64, maxPE, maxCU)), model.WGSpaceLen(maxPE, maxCU); got != want {
				t.Errorf("maxPE %d maxCU %d: WGSpace lists %d designs, WGSpaceLen says %d", maxPE, maxCU, got, want)
			}
		}
	}
}

func TestAblationsChangeEstimates(t *testing.T) {
	kb := bench.Find("srad", "srad")
	if kb == nil {
		t.Fatal("srad kernel missing")
	}
	f, err := kb.Compile(64)
	if err != nil {
		t.Fatal(err)
	}
	an, err := model.Analyze(context.Background(), f, device.Virtex7(), kb.Config(64))
	if err != nil {
		t.Fatal(err)
	}
	d := model.Design{WGSize: 64, WIPipeline: true, PE: 1, CU: 1, Mode: model.ModeBarrier}
	full := an.Predict(d).Cycles
	mem := an.PredictWith(d, model.Ablations{SingleMemLatency: true}).Cycles
	co := an.PredictWith(d, model.Ablations{NoCoalescing: true}).Cycles
	if mem == full {
		t.Error("A1 (single memory latency) changed nothing")
	}
	if co <= full {
		t.Error("A4 (no coalescing) should inflate the memory term")
	}
}

func TestEstimateSecondsConsistent(t *testing.T) {
	an := analyze(t, vadd, "vadd", 4096, 64)
	e := an.Predict(model.Design{WGSize: 64, WIPipeline: true, PE: 1, CU: 1, Mode: model.ModePipeline})
	want := e.Cycles / (200e6)
	if e.Seconds < want*0.999 || e.Seconds > want*1.001 {
		t.Errorf("seconds = %v, want %v", e.Seconds, want)
	}
}

func TestWGSizeAffectsBatches(t *testing.T) {
	an64 := analyze(t, vadd, "vadd", 4096, 64)
	an256 := analyze(t, vadd, "vadd", 4096, 256)
	d := func(wg int64) model.Design {
		return model.Design{WGSize: wg, WIPipeline: true, PE: 1, CU: 1, Mode: model.ModePipeline}
	}
	e64 := an64.Predict(d(64))
	e256 := an256.Predict(d(256))
	// Fewer work-groups means less dispatch overhead; for this memory-
	// bound kernel both should be within 2x but not equal.
	if e64.Cycles == e256.Cycles {
		t.Error("work-group size had no effect at all")
	}
}
