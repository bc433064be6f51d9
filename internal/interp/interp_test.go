package interp

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/ir"
	"repro/internal/irgen"
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

func TestVecAddExecution(t *testing.T) {
	k := compileKernel(t, `
__kernel void vadd(__global const float* a, __global const float* b,
                   __global float* c, int n) {
    int i = get_global_id(0);
    if (i < n) { c[i] = a[i] + b[i]; }
}`, "vadd")
	n := 64
	a := NewFloatBuffer(ast.KFloat, n)
	b := NewFloatBuffer(ast.KFloat, n)
	c := NewFloatBuffer(ast.KFloat, n)
	for i := 0; i < n; i++ {
		a.F[i] = float64(i)
		b.F[i] = float64(2 * i)
	}
	cfg := &Config{
		Range:   NDRange{Global: [3]int64{int64(n)}, Local: [3]int64{16}},
		Buffers: map[string]*Buffer{"a": a, "b": b, "c": c},
		Scalars: map[string]Val{"n": IntVal(int64(n))},
	}
	if err := Run(k, cfg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if c.F[i] != float64(3*i) {
			t.Fatalf("c[%d] = %v, want %v", i, c.F[i], 3*i)
		}
	}
}

func TestFloatScalarArg(t *testing.T) {
	k := compileKernel(t, `
__kernel void scale(__global float* y, float a) {
    int i = get_global_id(0);
    y[i] = y[i] * a;
}`, "scale")
	y := NewFloatBuffer(ast.KFloat, 8)
	for i := range y.F {
		y.F[i] = 2
	}
	cfg := &Config{
		Range:   NDRange{Global: [3]int64{8}, Local: [3]int64{8}},
		Buffers: map[string]*Buffer{"y": y},
		Scalars: map[string]Val{"a": FloatVal(1.5)},
	}
	if err := Run(k, cfg); err != nil {
		t.Fatal(err)
	}
	for i, v := range y.F {
		if v != 3 {
			t.Fatalf("y[%d] = %v, want 3", i, v)
		}
	}
}

func TestLoopAccumulation(t *testing.T) {
	k := compileKernel(t, `
__kernel void rowsum(__global const float* m, __global float* out, int cols) {
    int r = get_global_id(0);
    float acc = 0.0f;
    for (int j = 0; j < cols; j++) { acc += m[r * cols + j]; }
    out[r] = acc;
}`, "rowsum")
	rows, cols := 8, 32
	m := NewFloatBuffer(ast.KFloat, rows*cols)
	out := NewFloatBuffer(ast.KFloat, rows)
	for i := range m.F {
		m.F[i] = 1.0
	}
	cfg := &Config{
		Range:   NDRange{Global: [3]int64{int64(rows)}, Local: [3]int64{4}},
		Buffers: map[string]*Buffer{"m": m, "out": out},
		Scalars: map[string]Val{"cols": IntVal(int64(cols))},
	}
	if err := Run(k, cfg); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		if out.F[r] != float64(cols) {
			t.Fatalf("out[%d] = %v, want %d", r, out.F[r], cols)
		}
	}
}

func TestLocalMemoryAndBarrier(t *testing.T) {
	// Reverse each 16-element tile using local memory.
	k := compileKernel(t, `
__kernel void rev(__global float* x) {
    __local float t[16];
    int l = get_local_id(0);
    int g = get_global_id(0);
    t[l] = x[g];
    barrier(CLK_LOCAL_MEM_FENCE);
    x[g] = t[15 - l];
}`, "rev")
	n := 32
	x := NewFloatBuffer(ast.KFloat, n)
	for i := 0; i < n; i++ {
		x.F[i] = float64(i)
	}
	cfg := &Config{
		Range:   NDRange{Global: [3]int64{int64(n)}, Local: [3]int64{16}},
		Buffers: map[string]*Buffer{"x": x},
	}
	if err := Run(k, cfg); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 2; g++ {
		for l := 0; l < 16; l++ {
			want := float64(g*16 + (15 - l))
			if x.F[g*16+l] != want {
				t.Fatalf("x[%d] = %v, want %v", g*16+l, x.F[g*16+l], want)
			}
		}
	}
}

func Test2DKernel(t *testing.T) {
	k := compileKernel(t, `
__kernel void transpose(__global const float* in, __global float* out, int w, int h) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    if (x < w && y < h) { out[x * h + y] = in[y * w + x]; }
}`, "transpose")
	w, h := 8, 4
	in := NewFloatBuffer(ast.KFloat, w*h)
	out := NewFloatBuffer(ast.KFloat, w*h)
	for i := range in.F {
		in.F[i] = float64(i)
	}
	cfg := &Config{
		Range:   NDRange{Global: [3]int64{int64(w), int64(h)}, Local: [3]int64{4, 2}},
		Buffers: map[string]*Buffer{"in": in, "out": out},
		Scalars: map[string]Val{"w": IntVal(int64(w)), "h": IntVal(int64(h))},
	}
	if err := Run(k, cfg); err != nil {
		t.Fatal(err)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if out.F[x*h+y] != in.F[y*w+x] {
				t.Fatalf("transpose mismatch at (%d,%d)", x, y)
			}
		}
	}
}

func TestMathBuiltins(t *testing.T) {
	k := compileKernel(t, `
__kernel void m(__global float* x) {
    int i = get_global_id(0);
    x[i] = sqrt(x[i]) + pow(2.0f, 3.0f) + fmax(1.0f, 2.0f) + fabs(-4.0f);
}`, "m")
	x := NewFloatBuffer(ast.KFloat, 4)
	for i := range x.F {
		x.F[i] = 16.0
	}
	cfg := &Config{
		Range:   NDRange{Global: [3]int64{4}, Local: [3]int64{4}},
		Buffers: map[string]*Buffer{"x": x},
	}
	if err := Run(k, cfg); err != nil {
		t.Fatal(err)
	}
	want := 4.0 + 8.0 + 2.0 + 4.0
	for i := range x.F {
		if math.Abs(x.F[i]-want) > 1e-9 {
			t.Fatalf("x[%d] = %v, want %v", i, x.F[i], want)
		}
	}
}

func TestIntOpsAndCasts(t *testing.T) {
	k := compileKernel(t, `
__kernel void io(__global int* x) {
    int i = get_global_id(0);
    int v = x[i];
    x[i] = ((v * 3) / 2) % 7 + (v << 1) - (v >> 1) + (int)(1.9f);
}`, "io")
	x := NewIntBuffer(ast.KInt, 8)
	for i := range x.I {
		x.I[i] = int64(i + 1)
	}
	ref := make([]int64, 8)
	for i := range ref {
		v := int64(i + 1)
		ref[i] = ((v*3)/2)%7 + (v << 1) - (v >> 1) + 1
	}
	cfg := &Config{
		Range:   NDRange{Global: [3]int64{8}, Local: [3]int64{8}},
		Buffers: map[string]*Buffer{"x": x},
	}
	if err := Run(k, cfg); err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if x.I[i] != ref[i] {
			t.Fatalf("x[%d] = %d, want %d", i, x.I[i], ref[i])
		}
	}
}

func TestVectorKernel(t *testing.T) {
	k := compileKernel(t, `
__kernel void v4(__global float4* x) {
    int i = get_global_id(0);
    float4 v = x[i];
    float4 w = v * 2.0f;
    w.x = v.y + 1.0f;
    x[i] = w;
}`, "v4")
	// 2 float4 elements = 8 scalar slots.
	x := &Buffer{Elem: ast.Vector(ast.KFloat, 4), F: make([]float64, 8)}
	for i := range x.F {
		x.F[i] = float64(i)
	}
	cfg := &Config{
		Range:   NDRange{Global: [3]int64{2}, Local: [3]int64{2}},
		Buffers: map[string]*Buffer{"x": x},
	}
	if err := Run(k, cfg); err != nil {
		t.Fatal(err)
	}
	// Element 0: v = [0 1 2 3], w = [0*2 … ] then w.x = v.y+1 = 2.
	want0 := []float64{2, 2, 4, 6}
	for i, w := range want0 {
		if x.F[i] != w {
			t.Fatalf("x.F[%d] = %v, want %v", i, x.F[i], w)
		}
	}
}

func TestAtomicsAcrossWorkItems(t *testing.T) {
	k := compileKernel(t, `
__kernel void count(__global int* c, __global const int* data, int n) {
    int i = get_global_id(0);
    if (i < n) {
        if (data[i] > 0) { atomic_add(c, 1); }
    }
}`, "count")
	n := 128
	data := NewIntBuffer(ast.KInt, n)
	pos := 0
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			data.I[i] = 1
			pos++
		} else {
			data.I[i] = -1
		}
	}
	c := NewIntBuffer(ast.KInt, 1)
	cfg := &Config{
		Range:   NDRange{Global: [3]int64{int64(n)}, Local: [3]int64{32}},
		Buffers: map[string]*Buffer{"c": c, "data": data},
		Scalars: map[string]Val{"n": IntVal(int64(n))},
	}
	if err := Run(k, cfg); err != nil {
		t.Fatal(err)
	}
	if c.I[0] != int64(pos) {
		t.Fatalf("count = %d, want %d", c.I[0], pos)
	}
}

func TestProfileTripCounts(t *testing.T) {
	k := compileKernel(t, `
__kernel void loop(__global const float* x, __global float* out, int n) {
    int i = get_global_id(0);
    float acc = 0.0f;
    for (int j = 0; j < n; j++) { acc += x[j]; }
    out[i] = acc;
}`, "loop")
	n := 10
	x := NewFloatBuffer(ast.KFloat, 64)
	out := NewFloatBuffer(ast.KFloat, 64)
	cfg := &Config{
		Range:   NDRange{Global: [3]int64{64}, Local: [3]int64{16}},
		Buffers: map[string]*Buffer{"x": x, "out": out},
		Scalars: map[string]Val{"n": IntVal(int64(n))},
	}
	prof, err := ProfileKernel(k, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if prof.WorkItems != 32 {
		t.Fatalf("profiled WIs = %d, want 32 (2 groups of 16)", prof.WorkItems)
	}
	// The loop body must execute n times per work-item.
	k.AnalyzeLoops()
	if len(k.Loops) != 1 {
		t.Fatalf("loops = %d", len(k.Loops))
	}
	var bodyCount float64
	for b, c := range prof.BlockCounts {
		if b.BName == "for.body" {
			bodyCount = c
		}
	}
	if bodyCount != float64(n) {
		t.Errorf("body count = %v, want %d", bodyCount, n)
	}
}

func TestProfileTraces(t *testing.T) {
	k := compileKernel(t, `
__kernel void copy(__global const float* a, __global float* b) {
    int i = get_global_id(0);
    b[i] = a[i];
}`, "copy")
	a := NewFloatBuffer(ast.KFloat, 64)
	b := NewFloatBuffer(ast.KFloat, 64)
	cfg := &Config{
		Range:   NDRange{Global: [3]int64{64}, Local: [3]int64{16}},
		Buffers: map[string]*Buffer{"a": a, "b": b},
	}
	prof, err := ProfileKernel(k, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Traces) != 16 {
		t.Fatalf("traces = %d, want 16", len(prof.Traces))
	}
	for wi, tr := range prof.Traces {
		if len(tr) != 2 {
			t.Fatalf("wi %d: %d accesses, want 2", wi, len(tr))
		}
		if tr[0].Write || !tr[1].Write {
			t.Errorf("wi %d: access order wrong: %+v", wi, tr)
		}
		if k.Params[tr[0].Param].PName != "a" || k.Params[tr[1].Param].PName != "b" {
			t.Errorf("wi %d: wrong buffers %s/%s", wi, k.Params[tr[0].Param].PName, k.Params[tr[1].Param].PName)
		}
		if tr[0].Index != uint32(wi) {
			t.Errorf("wi %d: index %d", wi, tr[0].Index)
		}
	}
}

// TestAccessRecordPointerFree pins the trace record's shape: 8 bytes
// and no pointer, so trace buffers are small and the garbage collector
// never scans them. A field that brings a pointer back, or widens the
// record, fails it.
func TestAccessRecordPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(Access{}); n != 8 {
		t.Errorf("Access is %d bytes, want 8", n)
	}
	var holdsPointer func(reflect.Type) bool
	holdsPointer = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return false
		case reflect.Array:
			return ty.Len() > 0 && holdsPointer(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if holdsPointer(ty.Field(i).Type) {
					return true
				}
			}
			return false
		}
		return true // pointers, slices, maps, strings, interfaces, channels, funcs
	}
	ty := reflect.TypeOf(Access{})
	for i := 0; i < ty.NumField(); i++ {
		if f := ty.Field(i); holdsPointer(f.Type) {
			t.Errorf("Access.%s (%s) holds a pointer", f.Name, f.Type)
		}
	}
}

func TestOutOfBoundsDetected(t *testing.T) {
	k := compileKernel(t, `
__kernel void oob(__global float* x) {
    int i = get_global_id(0);
    x[i + 100] = 1.0f;
}`, "oob")
	x := NewFloatBuffer(ast.KFloat, 8)
	cfg := &Config{
		Range:   NDRange{Global: [3]int64{8}, Local: [3]int64{8}},
		Buffers: map[string]*Buffer{"x": x},
	}
	if err := Run(k, cfg); err == nil {
		t.Fatal("expected out-of-bounds error")
	}
}

func TestMissingArgument(t *testing.T) {
	k := compileKernel(t, `
__kernel void k(__global float* x, int n) { x[0] = (float)n; }`, "k")
	cfg := &Config{
		Range:   NDRange{Global: [3]int64{1}, Local: [3]int64{1}},
		Buffers: map[string]*Buffer{"x": NewFloatBuffer(ast.KFloat, 1)},
	}
	if err := Run(k, cfg); err == nil {
		t.Fatal("expected missing-argument error")
	}
}

// TestArgumentTypeChecked pins that a launch binding a value of the
// wrong kind is rejected, with one error on both executors: an int in a
// float scalar would read 0 in arithmetic but true in a branch.
func TestArgumentTypeChecked(t *testing.T) {
	k := compileKernel(t, `
__kernel void k(__global int* x, float a, int n) {
    int i = get_global_id(0);
    if (a) { x[i] = n; }
}`, "k")
	cases := []struct {
		name    string
		x       *Buffer
		a, n    Val
		wantErr string
	}{
		{"ok", NewIntBuffer(ast.KInt, 4), FloatVal(1), IntVal(2), ""},
		{"int in float", NewIntBuffer(ast.KInt, 4), IntVal(1), IntVal(2), "scalar argument a does not fit its type float"},
		{"float in int", NewIntBuffer(ast.KInt, 4), FloatVal(1), FloatVal(2), "scalar argument n does not fit its type int"},
		{"both fields", NewIntBuffer(ast.KInt, 4), Val{I: 1, F: 1}, IntVal(2), "scalar argument a does not fit"},
		{"vector in scalar", NewIntBuffer(ast.KInt, 4), FloatVal(1), Val{Vec: []Val{IntVal(1)}}, "scalar argument n does not fit"},
		{"float buffer", NewFloatBuffer(ast.KFloat, 4), FloatVal(1), IntVal(2), "buffer for parameter x holds float, not int"},
	}
	for _, tc := range cases {
		cfg := func() *Config {
			return &Config{
				Range:   NDRange{Global: [3]int64{4}, Local: [3]int64{4}},
				Buffers: map[string]*Buffer{"x": tc.x},
				Scalars: map[string]Val{"a": tc.a, "n": tc.n},
			}
		}
		_, _, serr := StaticProfile(k, cfg(), 1, false)
		_, ierr := InterpProfile(k, cfg(), 1, false)
		for _, err := range []error{serr, ierr} {
			switch {
			case tc.wantErr == "" && err != nil:
				t.Errorf("%s: unexpected error %v", tc.name, err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
			}
		}
		if serr != nil && ierr != nil && serr.Error() != ierr.Error() {
			t.Errorf("%s: static error %q, interp error %q", tc.name, serr, ierr)
		}
	}
}

func TestHelperFunctionExecution(t *testing.T) {
	k := compileKernel(t, `
float sq(float v) { return v * v; }
float hyp(float a, float b) { return sqrt(sq(a) + sq(b)); }
__kernel void k(__global float* x) {
    int i = get_global_id(0);
    x[i] = hyp(3.0f, 4.0f);
}`, "k")
	x := NewFloatBuffer(ast.KFloat, 2)
	cfg := &Config{
		Range:   NDRange{Global: [3]int64{2}, Local: [3]int64{2}},
		Buffers: map[string]*Buffer{"x": x},
	}
	if err := Run(k, cfg); err != nil {
		t.Fatal(err)
	}
	if math.Abs(x.F[0]-5.0) > 1e-9 {
		t.Fatalf("hyp = %v, want 5", x.F[0])
	}
}

func TestWhileLoopExecution(t *testing.T) {
	k := compileKernel(t, `
__kernel void collatz(__global int* x) {
    int i = get_global_id(0);
    int v = x[i];
    int steps = 0;
    while (v != 1) {
        if (v % 2 == 0) { v = v / 2; } else { v = 3 * v + 1; }
        steps++;
    }
    x[i] = steps;
}`, "collatz")
	x := NewIntBuffer(ast.KInt, 3)
	x.I[0], x.I[1], x.I[2] = 6, 7, 27
	cfg := &Config{
		Range:   NDRange{Global: [3]int64{3}, Local: [3]int64{1}},
		Buffers: map[string]*Buffer{"x": x},
	}
	if err := Run(k, cfg); err != nil {
		t.Fatal(err)
	}
	want := []int64{8, 16, 111}
	for i := range want {
		if x.I[i] != want[i] {
			t.Fatalf("collatz(%d) steps = %d, want %d", i, x.I[i], want[i])
		}
	}
}

func TestBarrierCounting(t *testing.T) {
	k := compileKernel(t, `
__kernel void b2(__global float* x) {
    __local float t[8];
    int l = get_local_id(0);
    t[l] = x[l];
    barrier(CLK_LOCAL_MEM_FENCE);
    t[l] = t[7 - l];
    barrier(CLK_LOCAL_MEM_FENCE);
    x[l] = t[l];
}`, "b2")
	x := NewFloatBuffer(ast.KFloat, 8)
	cfg := &Config{
		Range:   NDRange{Global: [3]int64{8}, Local: [3]int64{8}},
		Buffers: map[string]*Buffer{"x": x},
	}
	prof, err := ProfileKernel(k, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Barriers != 2 {
		t.Errorf("barriers per WI = %v, want 2", prof.Barriers)
	}
}
