package irgen

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/opencl/ast"
)

func compile(t *testing.T, src string) *Module {
	t.Helper()
	m, err := Compile("test.cl", []byte(src), nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return m
}

func kernel(t *testing.T, src, name string) *ir.Func {
	t.Helper()
	m := compile(t, src)
	k := m.Kernel(name)
	if k == nil {
		t.Fatalf("kernel %s not found", name)
	}
	return k
}

func countOps(f *ir.Func, op ir.Op) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == op {
				n++
			}
		}
	}
	return n
}

func TestVecAddIR(t *testing.T) {
	k := kernel(t, `
__kernel void vadd(__global const float* a, __global const float* b,
                   __global float* c, int n) {
    int i = get_global_id(0);
    if (i < n) { c[i] = a[i] + b[i]; }
}`, "vadd")
	if got := countOps(k, ir.OpWorkItem); got != 1 {
		t.Errorf("workitem ops = %d, want 1", got)
	}
	// Loads: a[i], b[i], plus loads of the local i. Global loads only:
	var globalLoads, globalStores int
	for _, b := range k.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpLoad {
				if p, ok := in.Mem.(*ir.Param); ok && p.Space() == ast.ASGlobal {
					globalLoads++
				}
			}
			if in.Op == ir.OpStore {
				if p, ok := in.Mem.(*ir.Param); ok && p.Space() == ast.ASGlobal {
					globalStores++
				}
			}
		}
	}
	if globalLoads != 2 || globalStores != 1 {
		t.Errorf("global loads=%d stores=%d, want 2/1", globalLoads, globalStores)
	}
	if got := countOps(k, ir.OpFAdd); got != 1 {
		t.Errorf("fadd = %d, want 1", got)
	}
	if got := countOps(k, ir.OpCondBr); got != 1 {
		t.Errorf("condbr = %d, want 1", got)
	}
}

func TestLoopStructureAndTripHint(t *testing.T) {
	k := kernel(t, `
__kernel void sum16(__global float* x) {
    float acc = 0.0f;
    for (int i = 0; i < 16; i++) { acc += x[i]; }
    x[0] = acc;
}`, "sum16")
	if len(k.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(k.Loops))
	}
	if k.Loops[0].StaticTrip != 16 {
		t.Errorf("static trip = %d, want 16", k.Loops[0].StaticTrip)
	}
}

func TestStaticTripVariants(t *testing.T) {
	cases := []struct {
		loop string
		trip int64
	}{
		{"for (int i = 0; i < 10; i++)", 10},
		{"for (int i = 0; i <= 10; i++)", 11},
		{"for (int i = 2; i < 10; i += 3)", 3},
		{"for (int i = 10; i > 0; i--)", 10},
		{"for (int i = 9; i >= 0; i--)", 10},
		{"for (int i = 0; i < 7; i += 2)", 4},
		// Bounds fold with sema's folder, remainder and bitwise
		// operators included.
		{"for (int i = 0; i < (100 % 64); i++)", 36},
		{"for (int i = 0; i < (63 & 20); i++)", 20},
		{"for (int i = 0; i < (8 | 4); i++)", 12},
		{"for (int i = 0; i < (12 ^ 4); i++)", 8},
		{"for (int i = 0; i < ~(-6); i++)", 5},
	}
	for _, c := range cases {
		src := `__kernel void k(__global int* x) { int s = 0; ` + c.loop +
			` { s += x[i]; } x[0] = s; }`
		k := kernel(t, src, "k")
		if len(k.Loops) != 1 {
			t.Errorf("%s: loops = %d", c.loop, len(k.Loops))
			continue
		}
		if k.Loops[0].StaticTrip != c.trip {
			t.Errorf("%s: trip = %d, want %d", c.loop, k.Loops[0].StaticTrip, c.trip)
		}
	}
}

func TestDynamicTripNotStatic(t *testing.T) {
	k := kernel(t, `
__kernel void k(__global int* x, int n) {
    int s = 0;
    for (int i = 0; i < n; i++) { s += x[i]; }
    x[0] = s;
}`, "k")
	if len(k.Loops) != 1 {
		t.Fatalf("loops = %d", len(k.Loops))
	}
	if k.Loops[0].StaticTrip != -1 {
		t.Errorf("trip = %d, want -1 (dynamic)", k.Loops[0].StaticTrip)
	}
}

// TestCompareSubIntPromotes pins C's integer promotion in comparisons:
// two uchar operands compare as int, the type sema gives the operands.
func TestCompareSubIntPromotes(t *testing.T) {
	k := kernel(t, `
__kernel void k(__global uchar* a, __global int* out) {
    uchar x = a[0];
    uchar y = a[1];
    out[0] = x < y;
}`, "k")
	var cmps int
	for _, b := range k.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpICmp {
				continue
			}
			cmps++
			for i, arg := range in.Args {
				if got := arg.Type(); got != ast.Scalar(ast.KInt) {
					t.Errorf("icmp operand %d type = %v, want int", i, got)
				}
			}
		}
	}
	if cmps != 1 {
		t.Errorf("icmp count = %d, want 1", cmps)
	}
}

func TestNestedLoops(t *testing.T) {
	k := kernel(t, `
__kernel void mm(__global float* a, __global float* b, __global float* c) {
    for (int i = 0; i < 4; i++) {
        for (int j = 0; j < 8; j++) {
            float acc = 0.0f;
            for (int p = 0; p < 16; p++) { acc += a[i*16+p] * b[p*8+j]; }
            c[i*8+j] = acc;
        }
    }
}`, "mm")
	if len(k.Loops) != 3 {
		t.Fatalf("loops = %d, want 3", len(k.Loops))
	}
	depths := map[int]int{}
	for _, l := range k.Loops {
		depths[l.Depth()]++
	}
	if depths[1] != 1 || depths[2] != 1 || depths[3] != 1 {
		t.Errorf("loop depths = %v, want one each of 1,2,3", depths)
	}
}

func TestHelperInlining(t *testing.T) {
	k := kernel(t, `
float mulacc(float a, float b, float c) { return a * b + c; }
__kernel void k(__global float* x) {
    x[0] = mulacc(x[1], x[2], x[3]);
}`, "k")
	if got := countOps(k, ir.OpFMul); got != 1 {
		t.Errorf("fmul = %d, want 1 (inlined)", got)
	}
	if got := countOps(k, ir.OpFAdd); got != 1 {
		t.Errorf("fadd = %d, want 1 (inlined)", got)
	}
}

func TestInlinePointerArg(t *testing.T) {
	k := kernel(t, `
float first(__global float* p) { return p[0]; }
__kernel void k(__global float* x) {
    x[0] = first(x + 4);
}`, "k")
	// The load from p[0] must hit the x buffer.
	found := false
	for _, b := range k.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpLoad {
				if p, ok := in.Mem.(*ir.Param); ok && p.PName == "x" {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("inlined pointer arg does not reference buffer x")
	}
}

func TestBarrierLowering(t *testing.T) {
	k := kernel(t, `
__kernel void k(__global float* x) {
    __local float t[64];
    int l = get_local_id(0);
    t[l] = x[l];
    barrier(CLK_LOCAL_MEM_FENCE);
    x[l] = t[63 - l];
}`, "k")
	if !k.HasBarrier {
		t.Error("HasBarrier not set")
	}
	if got := countOps(k, ir.OpBarrier); got != 1 {
		t.Errorf("barriers = %d, want 1", got)
	}
	locals := k.LocalAllocas()
	if len(locals) != 1 || locals[0].Count != 64 {
		t.Errorf("local allocas = %v", locals)
	}
}

func TestMultiDimArrayFlattening(t *testing.T) {
	k := kernel(t, `
__kernel void k(__global float* x) {
    __local float tile[4][8];
    int l = get_local_id(0);
    tile[l][l] = x[l];
    x[l] = tile[0][l];
}`, "k")
	// tile[l][l] should compute l*8 + l.
	var sawMul8 bool
	for _, b := range k.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpMul {
				for _, a := range in.Args {
					if c, ok := a.(*ir.Const); ok && c.I == 8 {
						sawMul8 = true
					}
				}
			}
		}
	}
	if !sawMul8 {
		t.Error("row scaling (×8) not found for tile[l][l]")
	}
}

func TestPointerVariable(t *testing.T) {
	k := kernel(t, `
__kernel void k(__global float* x, int n) {
    __global float* p = x + 2;
    p += 3;
    x[0] = p[1];
}`, "k")
	if k == nil {
		t.Fatal("nil kernel")
	}
	// Result must load from buffer x; index math is dynamic, just check
	// the load resolves to x.
	loads := 0
	for _, b := range k.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpLoad {
				if p, ok := in.Mem.(*ir.Param); ok && p.PName == "x" {
					loads++
				}
			}
		}
	}
	if loads == 0 {
		t.Error("pointer variable load did not resolve to buffer x")
	}
}

func TestVectorOps(t *testing.T) {
	k := kernel(t, `
__kernel void k(__global float4* x) {
    float4 v = x[0];
    float4 w = v * 2.0f;
    w.x = v.y;
    x[1] = w;
}`, "k")
	if got := countOps(k, ir.OpVecInsert); got != 1 {
		t.Errorf("vec.insert = %d, want 1", got)
	}
	if countOps(k, ir.OpVecExtract) == 0 {
		t.Error("no vec.extract emitted for v.y")
	}
	if countOps(k, ir.OpFMul) != 1 {
		t.Error("vector multiply missing")
	}
}

func TestSelectForTernary(t *testing.T) {
	k := kernel(t, `
__kernel void k(__global float* x) {
    float v = x[0];
    x[1] = v > 0.0f ? v : -v;
}`, "k")
	if got := countOps(k, ir.OpSelect); got != 1 {
		t.Errorf("select = %d, want 1", got)
	}
}

func TestBreakContinueCFG(t *testing.T) {
	k := kernel(t, `
__kernel void k(__global int* x, int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        if (x[i] < 0) continue;
        if (x[i] == 99) break;
        s += x[i];
    }
    x[0] = s;
}`, "k")
	k.AnalyzeLoops()
	if len(k.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(k.Loops))
	}
	// All blocks terminated.
	for _, b := range k.Blocks {
		if b.Term() == nil {
			t.Errorf("block %s unterminated", b.Label())
		}
	}
}

func TestAtomicLowering(t *testing.T) {
	k := kernel(t, `
__kernel void hist(__global int* bins, __global int* data, int n) {
    int i = get_global_id(0);
    if (i < n) { atomic_add(bins + data[i], 1); }
}`, "hist")
	if got := countOps(k, ir.OpAtomic); got != 1 {
		t.Errorf("atomics = %d, want 1", got)
	}
}

func TestMathBuiltins(t *testing.T) {
	k := kernel(t, `
__kernel void k(__global float* x) {
    x[0] = sqrt(x[1]) + pow(x[2], 2.0f) + fmax(x[3], x[4]);
}`, "k")
	calls := map[string]int{}
	for _, b := range k.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				calls[in.Fn]++
			}
		}
	}
	if calls["sqrt"] != 1 || calls["pow"] != 1 || calls["fmax"] != 1 {
		t.Errorf("calls = %v", calls)
	}
}

func TestIRStringDump(t *testing.T) {
	k := kernel(t, `__kernel void k(__global int* x) { x[0] = 1 + 2; }`, "k")
	s := k.String()
	if !strings.Contains(s, "func k(") {
		t.Errorf("dump missing header: %s", s)
	}
	if !strings.Contains(s, "store") {
		t.Errorf("dump missing store: %s", s)
	}
}

func TestDominators(t *testing.T) {
	k := kernel(t, `
__kernel void k(__global int* x, int n) {
    if (n > 0) { x[0] = 1; } else { x[0] = 2; }
    x[1] = 3;
}`, "k")
	k.BuildCFG()
	idom := k.Dominators()
	entry := k.Entry()
	for _, b := range k.Blocks[1:] {
		if !ir.Dominates(idom, entry, b) {
			t.Errorf("entry does not dominate %s", b.Label())
		}
	}
}

func TestUnreachableAfterReturn(t *testing.T) {
	k := kernel(t, `
__kernel void k(__global int* x) {
    x[0] = 1;
    return;
}`, "k")
	for _, b := range k.Blocks {
		if b.Term() == nil {
			t.Errorf("unterminated block %s", b.Label())
		}
	}
}

func TestUnrollHintPropagated(t *testing.T) {
	k := kernel(t, `
__kernel void k(__global int* x) {
    int s = 0;
    #pragma unroll 8
    for (int i = 0; i < 64; i++) { s += x[i]; }
    x[0] = s;
}`, "k")
	if len(k.Loops) != 1 || k.Loops[0].Unroll != 8 {
		t.Fatalf("unroll hint not propagated: %+v", k.Loops)
	}
}
