package device

import (
	"testing"
	"testing/quick"

	"repro/internal/irgen"
	"repro/internal/opencl/ast"
)

func TestPlatformCatalogue(t *testing.T) {
	v7, ok := Lookup("virtex7")
	if _, ok2 := Lookup("ku060"); !ok || !ok2 {
		t.Fatal("platform catalogue incomplete")
	}
	if v7.ClockMHz != 200 {
		t.Errorf("Virtex-7 clock = %v, want 200 MHz (§4.1)", v7.ClockMHz)
	}
	if v7.DRAM.Banks != 8 || v7.DRAM.RowBytes != 1024 {
		t.Errorf("Virtex-7 DRAM = %d banks / %d B rows, want 8 / 1024 (§4.1)",
			v7.DRAM.Banks, v7.DRAM.RowBytes)
	}
	if v7.DSPTotal != 3600 {
		t.Errorf("XC7VX690T DSPs = %d, want 3600", v7.DSPTotal)
	}
}

func TestClassifyCoversKernel(t *testing.T) {
	m, err := irgen.Compile("t.cl", []byte(`
__kernel void k(__global float* x, __global int* y) {
    __local float t[32];
    int i = get_local_id(0);
    t[i] = x[i] * 2.0f;
    barrier(CLK_LOCAL_MEM_FENCE);
    float v = sqrt(t[31 - i]) / (t[0] + 1.0f);
    y[i] = (int)v % 3;
    atomic_add(y + 32, 1);
    x[i] = v;
}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	k := m.Kernels[0]
	seen := map[OpClass]bool{}
	for _, b := range k.Blocks {
		for _, in := range b.Instrs {
			seen[Classify(in)] = true
		}
	}
	for _, want := range []OpClass{
		ClassGlobalLoad, ClassGlobalStore, ClassLocalLoad, ClassLocalStore,
		ClassFMul, ClassFDiv, ClassFSqrt, ClassCast, ClassAtomic,
		ClassWorkItem, ClassBarrierOp, ClassIDiv,
	} {
		if !seen[want] {
			t.Errorf("class %v not produced by the test kernel", want)
		}
	}
}

func TestProfileAveragesWithinVariantRange(t *testing.T) {
	p := Virtex7()
	tab := Profile(p, 512)
	for _, c := range Classes() {
		oi := p.OpInfo(c)
		lo, hi := oi.Variants[0], oi.Variants[0]
		for _, v := range oi.Variants {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		avg := tab.Latency(c)
		if avg < float64(lo) || avg > float64(hi) {
			t.Errorf("%v: profiled avg %.2f outside variant range [%d, %d]", c, avg, lo, hi)
		}
	}
}

func TestProfileDeterministic(t *testing.T) {
	a := Profile(Virtex7(), 128)
	b := Profile(Virtex7(), 128)
	if *a != *b {
		t.Error("profiling is not deterministic")
	}
}

func TestVariantDeterministicAndInRange(t *testing.T) {
	p := Virtex7()
	f := func(h uint64) bool {
		v := p.VariantFor(ClassFAdd, h)
		if v != p.VariantFor(ClassFAdd, h) {
			return false
		}
		for _, x := range p.OpInfo(ClassFAdd).Variants {
			if v == x {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPlatformsDiffer(t *testing.T) {
	a, b := Profile(Virtex7(), 256), Profile(KU060(), 256)
	same := true
	for _, c := range Classes() {
		if a.Latency(c) != b.Latency(c) {
			same = false
		}
	}
	if same {
		t.Error("Virtex-7 and KU060 profiles are identical; robustness test would be vacuous")
	}
}

func TestLocalPorts(t *testing.T) {
	p := Virtex7()
	if p.LocalReadPorts() != p.LocalBanks*p.PortsPerBankRead {
		t.Error("read port arithmetic wrong")
	}
	if p.LocalWritePorts() != p.LocalBanks*p.PortsPerBankWrite {
		t.Error("write port arithmetic wrong")
	}
}

func TestMix64Spread(t *testing.T) {
	// Cheap avalanche check: flipping one input bit changes many output bits.
	base := Mix64(12345)
	diff := base ^ Mix64(12345^1)
	bits := 0
	for i := 0; i < 64; i++ {
		if diff&(1<<i) != 0 {
			bits++
		}
	}
	if bits < 16 {
		t.Errorf("Mix64 avalanche too weak: %d bits flipped", bits)
	}
}

func TestHashStringDistinct(t *testing.T) {
	if HashString("hotspot") == HashString("hotspot3D") {
		t.Error("hash collision on similar names")
	}
}

func TestOpInfoDefault(t *testing.T) {
	p := &Platform{}
	oi := p.OpInfo(ClassFAdd)
	if len(oi.Variants) != 1 || oi.Variants[0] != 1 {
		t.Errorf("default OpInfo = %+v", oi)
	}
}

var _ = ast.KFloat // keep the ast import for buffer kinds used above

func TestU250Catalogued(t *testing.T) {
	p, ok := Lookup("u250")
	if !ok {
		t.Fatal("u250 missing from catalogue")
	}
	if p.ClockMHz <= Virtex7().ClockMHz {
		t.Error("U250 should clock higher than Virtex-7")
	}
	if p.DSPTotal <= Virtex7().DSPTotal {
		t.Error("U250 should have more DSPs")
	}
	tab := Profile(p, 128)
	if tab.Latency(ClassFMul) >= Profile(Virtex7(), 128).Latency(ClassFMul) {
		t.Error("U250 fmul should be faster (shallower pipeline at higher clock)")
	}
}

// TestProfileMemoizedByContent: Profile runs once per platform content.
// Separately built equal platforms share one table; a platform carrying
// the same name over a different op table, or another sample count,
// gets its own, equal to a fresh profiling run.
func TestProfileMemoizedByContent(t *testing.T) {
	a := Profile(Virtex7(), 256)
	if b := Profile(Virtex7(), 256); b != a {
		t.Error("two Virtex7() values profile to distinct tables")
	}
	if *a != *profile(Virtex7(), 256) {
		t.Error("memoized table differs from a fresh run")
	}
	alias := &Platform{Name: Virtex7().Name}
	got := Profile(alias, 256)
	if got == a || *got != *profile(alias, 256) {
		t.Error("a hand-built platform with Virtex-7's name aliases its table")
	}
	if Profile(Virtex7(), 128) == a {
		t.Error("another sample count shares the table")
	}
}
