package trace

import (
	"testing"

	"repro/internal/device"
	"repro/internal/dram"
	"repro/internal/interp"
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
		t.Fatalf("kernel %s missing", name)
	}
	return k
}

func TestLayoutRowAligned(t *testing.T) {
	k := compileKernel(t, `
__kernel void k(__global float* a, __global float* b, __global int* c) {
    int i = get_global_id(0);
    c[i] = (int)(a[i] + b[i]);
}`, "k")
	p := device.Virtex7().DRAM
	l := NewLayout(k, map[string]int64{"a": 100, "b": 100, "c": 100}, p)
	if l.Base["a"] != 0 {
		t.Errorf("a base = %d", l.Base["a"])
	}
	for name, base := range l.Base {
		if base%int64(p.RowBytes) != 0 {
			t.Errorf("%s base %d not row aligned", name, base)
		}
	}
	if l.Base["b"] == l.Base["c"] || l.Base["a"] == l.Base["b"] {
		t.Error("buffers overlap")
	}
}

// oneWIBursts coalesces one work-item's accesses as a work-group of
// its own, where pipeline issue order is the work-item's program order.
func oneWIBursts(t *testing.T, accs []interp.Access, l Layout) []Burst {
	t.Helper()
	groups := WGBursts([][]interp.Access{accs}, 1, l, 64)
	if len(groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(groups))
	}
	return groups[0]
}

func TestCoalesceUnitStride(t *testing.T) {
	k := compileKernel(t, `
__kernel void k(__global float* a) { a[get_global_id(0)] = 1.0f; }`, "k")
	p := device.Virtex7().DRAM
	l := NewLayout(k, map[string]int64{"a": 1024}, p)
	prm := k.GlobalParams()[0]
	// One WI writing 16 consecutive floats = 64 bytes = 1 burst.
	var accs []interp.Access
	for i := 0; i < 16; i++ {
		accs = append(accs, interp.Access{Param: prm, Index: int64(i), Bytes: 4, Write: true})
	}
	bursts := oneWIBursts(t, accs, l)
	if len(bursts) != 1 {
		t.Fatalf("bursts = %d, want 1 (f = 512/32 = 16)", len(bursts))
	}
	if !bursts[0].Write {
		t.Error("burst direction wrong")
	}
}

func TestCoalesceBreaksOnDirectionChange(t *testing.T) {
	k := compileKernel(t, `
__kernel void k(__global float* a) { a[0] = a[1]; }`, "k")
	p := device.Virtex7().DRAM
	l := NewLayout(k, map[string]int64{"a": 64}, p)
	prm := k.GlobalParams()[0]
	accs := []interp.Access{
		{Param: prm, Index: 0, Bytes: 4, Write: false},
		{Param: prm, Index: 1, Bytes: 4, Write: true}, // direction flips
		{Param: prm, Index: 2, Bytes: 4, Write: false},
	}
	bursts := oneWIBursts(t, accs, l)
	if len(bursts) != 3 {
		t.Fatalf("bursts = %d, want 3 (no merging across direction changes)", len(bursts))
	}
}

func TestCoalesceStridedNoMerge(t *testing.T) {
	k := compileKernel(t, `
__kernel void k(__global float* a) { a[0] = 0.0f; }`, "k")
	p := device.Virtex7().DRAM
	l := NewLayout(k, map[string]int64{"a": 4096}, p)
	prm := k.GlobalParams()[0]
	// Stride-32 floats: 128-byte gaps, no coalescing.
	var accs []interp.Access
	for i := 0; i < 8; i++ {
		accs = append(accs, interp.Access{Param: prm, Index: int64(i * 32), Bytes: 4, Write: false})
	}
	bursts := oneWIBursts(t, accs, l)
	if len(bursts) != 8 {
		t.Fatalf("bursts = %d, want 8", len(bursts))
	}
}

func runTrace(t *testing.T, src, name string, n int64, wg int64) (*ir.Func, *interp.Profile, *interp.Config) {
	t.Helper()
	k := compileKernel(t, src, name)
	buf := interp.NewFloatBuffer(ast.KFloat, int(n)*2)
	cfg := &interp.Config{
		Range:   interp.NDRange{Global: [3]int64{n}, Local: [3]int64{wg}},
		Buffers: map[string]*interp.Buffer{"a": buf},
		Scalars: map[string]interp.Val{"n": interp.IntVal(n)},
	}
	// Drop unused bindings silently.
	prof, err := interp.ProfileKernel(k, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	return k, prof, cfg
}

func TestClassifySequentialStream(t *testing.T) {
	k, prof, cfg := runTrace(t, `
__kernel void k(__global float* a, int n) {
    int i = get_global_id(0);
    if (i < n) { a[n + i] = a[i] * 2.0f; }
}`, "k", 256, 64)
	p := device.Virtex7().DRAM
	l := NewLayout(k, BufferCounts(k, cfg), p)
	c := ClassifyGrouped(prof.Traces, 64, l, p, 64)
	if c.WorkItems != 128 {
		t.Fatalf("work-items = %d", c.WorkItems)
	}
	// Each work-item reads and writes one float. In pipeline issue
	// order a group's 64 unit-stride reads form one 256-byte run, as do
	// its 64 writes: 4 + 4 bursts per group of 64 (f = 16). The first of
	// the two groups is warm-up, so the counts are the second group's.
	if c.BurstsPerWI != 8.0/64 {
		t.Errorf("bursts/WI = %v, want 8/64", c.BurstsPerWI)
	}
	if c.Reads != 4.0/64 || c.Writes != 4.0/64 {
		t.Errorf("reads/writes per WI = %v/%v, want 4/64 each", c.Reads, c.Writes)
	}
	if c.CoalescingFactor() != 16 {
		t.Errorf("coalescing factor = %v, want 16", c.CoalescingFactor())
	}
	var total float64
	for _, n := range c.N {
		total += n
	}
	if total != c.BurstsPerWI {
		t.Errorf("pattern counts %v don't sum to bursts %v", total, c.BurstsPerWI)
	}
}

func TestMemLatencyWeightedSum(t *testing.T) {
	var c Classified
	c.N[dram.RARHit] = 2
	c.N[dram.WAWMiss] = 1
	var lat dram.PatternLatencies
	lat[dram.RARHit] = 10
	lat[dram.WAWMiss] = 50
	if got := MemLatencyWI(&c, lat); got != 70 {
		t.Errorf("Eq.9 = %v, want 70", got)
	}
}

func TestCoalescingFactorUnitStrideLoop(t *testing.T) {
	// One work-item reads 64 consecutive floats: f = 16 per §3.4 example.
	k, prof, cfg := runTrace(t, `
__kernel void k(__global float* a, int n) {
    int i = get_global_id(0);
    float s = 0.0f;
    for (int j = 0; j < 64; j++) { s += a[j]; }
    a[n + i] = s;
}`, "k", 64, 4)
	p := device.Virtex7().DRAM
	l := NewLayout(k, BufferCounts(k, cfg), p)
	// One-work-item groups keep each work-item's loop in program order:
	// 64 reads coalesce to 4 bursts + 1 write burst, 65 raw / 5 bursts.
	c := ClassifyGrouped(prof.Traces, 1, l, p, 64)
	if c.CoalescingFactor() != 13 {
		t.Errorf("coalescing factor = %v, want 65/5 = 13", c.CoalescingFactor())
	}
}

func TestRandomAccessHasMisses(t *testing.T) {
	// A row spans 8 KB of the interleaved address space (8 banks × 1 KB),
	// so the 32 KB buffer covers four rows per bank and the scattered
	// accesses keep switching rows. (A buffer within one row per bank
	// misses only on cold opens, which the warm-up group absorbs.)
	k, prof, cfg := runTrace(t, `
__kernel void k(__global float* a, int n) {
    int i = get_global_id(0);
    int j = (i * 137) % n;
    a[n + j] = a[j * 7 % n];
}`, "k", 4096, 64)
	p := device.Virtex7().DRAM
	l := NewLayout(k, BufferCounts(k, cfg), p)
	c := ClassifyGrouped(prof.Traces, 64, l, p, 64)
	var misses float64
	for pat := dram.RARMiss; pat <= dram.WAWMiss; pat++ {
		misses += c.N[pat]
	}
	if misses == 0 {
		t.Error("random access pattern produced no row misses")
	}
}
