package sched_test

import (
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/ir"
	"repro/internal/irgen"
	. "repro/internal/sched"
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
	k.AnalyzeLoops()
	return k
}

func defaultCfg() *Config {
	p := device.Virtex7()
	return &Config{
		Table: device.Profile(p, 64),
		Res: Resources{
			LocalRead:  p.LocalReadPorts(),
			LocalWrite: p.LocalWritePorts(),
			Global:     2,
			DSPSlots:   8,
		},
	}
}

func TestScheduleRespectsDependences(t *testing.T) {
	k := compileKernel(t, `
__kernel void chain(__global float* x) {
    int i = get_global_id(0);
    float a = x[i];
    float b = a * a;
    float c = b * b;
    x[i] = c;
}`, "chain")
	cfg := defaultCfg()
	for _, b := range k.Blocks {
		issue := map[*ir.Instr]int{}
		for i, c := range IssueCycles(b, cfg) {
			issue[b.Instrs[i]] = c
		}
		for _, in := range b.Instrs {
			for _, arg := range in.Args {
				def, ok := arg.(*ir.Instr)
				if !ok || def.Blk != b {
					continue
				}
				if issue[in] < issue[def]+cfg.Latency(def) && cfg.Latency(def) > 0 {
					t.Errorf("%v issued at %d before %v completes at %d",
						in, issue[in], def, issue[def]+cfg.Latency(def))
				}
			}
		}
	}
}

func TestScheduleLengthAtLeastCriticalPath(t *testing.T) {
	k := compileKernel(t, `
__kernel void cp(__global float* x) {
    int i = get_global_id(0);
    x[i] = sqrt(x[i] * 2.0f + 1.0f);
}`, "cp")
	cfg := defaultCfg()
	// Serial chain: load + fmul + fadd + sqrt + store latencies must be a
	// lower bound for the entry block containing them.
	var want int
	entry := k.Entry()
	for _, in := range entry.Instrs {
		switch device.Classify(in) {
		case device.ClassGlobalLoad, device.ClassFMul, device.ClassFAdd,
			device.ClassFSqrt, device.ClassGlobalStore:
			want += cfg.Latency(in)
		}
	}
	if got := ScheduleBlock(entry, cfg); got < want {
		t.Errorf("schedule length %d < critical chain %d", got, want)
	}
}

// lpKernel makes 8 independent local loads in one block.
const lpKernel = `
__kernel void lp(__global float* x) {
    __local float t[64];
    int i = get_local_id(0);
    t[i] = x[i];
    barrier(CLK_LOCAL_MEM_FENCE);
    float s = t[0]+t[1]+t[2]+t[3]+t[4]+t[5]+t[6]+t[7];
    x[i] = s;
}`

func TestResourceSerialization(t *testing.T) {
	// 8 independent local loads with 1 read port must serialize.
	k := compileKernel(t, lpKernel, "lp")
	one := defaultCfg()
	one.Res.LocalRead = 1
	many := defaultCfg()
	many.Res.LocalRead = 8
	var lenOne, lenMany int
	for _, b := range k.Blocks {
		lenOne += ScheduleBlock(b, one)
		lenMany += ScheduleBlock(b, many)
	}
	if lenOne <= lenMany {
		t.Errorf("1-port schedule (%d) should exceed 8-port schedule (%d)", lenOne, lenMany)
	}
}

func TestTotalsCounts(t *testing.T) {
	k := compileKernel(t, `
__kernel void cnt(__global float* x) {
    __local float t[32];
    int i = get_local_id(0);
    t[i] = x[i];
    barrier(CLK_LOCAL_MEM_FENCE);
    x[i] = t[31 - i] * 2.0f;
}`, "cnt")
	cfg := defaultCfg()
	tot := Totals(k, nil, cfg)
	if tot.LocalReads != 1 || tot.LocalWrites != 1 {
		t.Errorf("local reads/writes = %v/%v, want 1/1", tot.LocalReads, tot.LocalWrites)
	}
	if tot.DSPOps < 1 {
		t.Errorf("DSP ops = %v, want >= 1 (fmul)", tot.DSPOps)
	}
}

func TestResMIIFormula(t *testing.T) {
	tot := FuncTotals{LocalReads: 7, LocalWrites: 3, DSPOps: 10}
	res := Resources{LocalRead: 2, LocalWrite: 1, Global: 1, DSPSlots: 4}
	// ceil(7/2)=4, ceil(3/1)=3, ceil(10/4)=3 → 4.
	if got := ResMII(tot, res); got != 4 {
		t.Errorf("ResMII = %d, want 4", got)
	}
}

func TestAffineAnalysis(t *testing.T) {
	k := compileKernel(t, `
__kernel void af(__global float* x, __global float* y) {
    int i = get_global_id(0);
    y[2*i + 3] = x[i];
}`, "af")
	var loads, stores []*ir.Instr
	for _, b := range k.Blocks {
		for _, in := range b.Instrs {
			if in.Mem == nil {
				continue
			}
			if p, ok := in.Mem.(*ir.Param); ok {
				if in.Op == ir.OpLoad && p.PName == "x" {
					loads = append(loads, in)
				}
				if in.Op == ir.OpStore && p.PName == "y" {
					stores = append(stores, in)
				}
			}
		}
	}
	if len(loads) != 1 || len(stores) != 1 {
		t.Fatalf("loads=%d stores=%d", len(loads), len(stores))
	}
	la := AffineIndexOf(k, loads[0])
	if !la.OK || la.Coef != 1 || la.Const != 0 {
		t.Errorf("load affine = %+v, want 1*wi+0", la)
	}
	sa := AffineIndexOf(k, stores[0])
	if !sa.OK || sa.Coef != 2 || sa.Const != 3 {
		t.Errorf("store affine = %+v, want 2*wi+3", sa)
	}
}

// TestFigure3Example reproduces the paper's Figure 3 scenario: a kernel
// with an inter-work-item data dependence (work-item i consumes what
// work-item i−1 produced) must have RecMII > 1, and therefore II > the
// resource bound alone.
func TestFigure3Example(t *testing.T) {
	dep := compileKernel(t, `
__kernel void scanlike(__global int* b, __global const int* a) {
    int i = get_global_id(0);
    b[i] = b[i - 1] + a[i];
}`, "scanlike")
	indep := compileKernel(t, `
__kernel void maponly(__global int* b, __global const int* a) {
    int i = get_global_id(0);
    b[i] = a[i] + 1;
}`, "maponly")
	cfg := defaultCfg()
	recDep := RecMII(dep, cfg)
	recIndep := RecMII(indep, cfg)
	if recDep <= 1 {
		t.Errorf("dependent kernel RecMII = %d, want > 1", recDep)
	}
	if recIndep != 1 {
		t.Errorf("independent kernel RecMII = %d, want 1", recIndep)
	}
	smsDep := Build(dep, nil, cfg).SMS()
	if smsDep.II < recDep {
		t.Errorf("SMS II %d < RecMII %d", smsDep.II, recDep)
	}
	if smsDep.Depth < smsDep.II {
		t.Errorf("depth %d < II %d", smsDep.Depth, smsDep.II)
	}
}

func TestInterWIDistance(t *testing.T) {
	// Distance-4 dependence: RecMII should be about chain/4, smaller than
	// the distance-1 case.
	d1 := compileKernel(t, `
__kernel void k(__global float* b) {
    int i = get_global_id(0);
    b[i] = b[i - 1] * 0.5f;
}`, "k")
	d4 := compileKernel(t, `
__kernel void k(__global float* b) {
    int i = get_global_id(0);
    b[i] = b[i - 4] * 0.5f;
}`, "k")
	cfg := defaultCfg()
	r1 := RecMII(d1, cfg)
	r4 := RecMII(d4, cfg)
	if r4 >= r1 {
		t.Errorf("RecMII distance4 (%d) should be < distance1 (%d)", r4, r1)
	}
}

func TestSMSAtLeastMII(t *testing.T) {
	srcs := []string{
		`__kernel void a(__global float* x) {
            int i = get_global_id(0);
            x[i] = x[i] * 2.0f;
        }`,
		`__kernel void b(__global float* x) {
            __local float t[64];
            int i = get_local_id(0);
            t[i] = x[i];
            barrier(CLK_LOCAL_MEM_FENCE);
            float s = 0.0f;
            for (int j = 0; j < 64; j++) { s += t[j]; }
            x[i] = s;
        }`,
	}
	names := []string{"a", "b"}
	for n, src := range srcs {
		k := compileKernel(t, src, names[n])
		cfg := defaultCfg()
		r := Build(k, nil, cfg).SMS()
		if r.II < r.MII {
			t.Errorf("%s: II %d < MII %d", names[n], r.II, r.MII)
		}
		if r.MII != max(r.RecMII, r.ResMII) {
			t.Errorf("%s: MII %d != max(rec %d, res %d)", names[n], r.MII, r.RecMII, r.ResMII)
		}
	}
}

func TestSerialDepthExceedsPipelinedDepth(t *testing.T) {
	k := compileKernel(t, `
__kernel void s(__global float* x) {
    int i = get_global_id(0);
    float v = x[i];
    for (int j = 0; j < 32; j++) { v = v * 1.5f + 0.5f; }
    x[i] = v;
}`, "s")
	cfg := defaultCfg()
	g := Build(k, nil, cfg)
	serial, pipelined := g.SerialDepth(), g.SMS().Depth
	if serial < pipelined/2 {
		t.Errorf("serial depth %d should be near/above pipelined depth %d", serial, pipelined)
	}
	if serial <= 0 {
		t.Error("serial depth must be positive")
	}
}

func TestResMIIMonotonicProperty(t *testing.T) {
	// Property: more resources never increase ResMII; more work never
	// decreases it.
	f := func(reads, writes, dsp uint8, ports uint8) bool {
		tot := FuncTotals{
			LocalReads:  float64(reads),
			LocalWrites: float64(writes),
			DSPOps:      float64(dsp),
		}
		small := Resources{LocalRead: int(ports%4) + 1, LocalWrite: 1, Global: 1, DSPSlots: 1}
		big := Resources{LocalRead: small.LocalRead * 2, LocalWrite: 2, Global: 2, DSPSlots: 2}
		if ResMII(tot, big) > ResMII(tot, small) {
			return false
		}
		more := tot
		more.LocalReads += 5
		return ResMII(more, small) >= ResMII(tot, small)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScheduleBlockDeterminism(t *testing.T) {
	k := compileKernel(t, `
__kernel void det(__global float* x) {
    int i = get_global_id(0);
    float a = x[i] * 2.0f;
    float b = x[i + 1] * 3.0f;
    float c = x[i + 2] * 4.0f;
    x[i] = a + b + c;
}`, "det")
	cfg := defaultCfg()
	first := ScheduleBlock(k.Entry(), cfg)
	for n := 0; n < 10; n++ {
		if got := ScheduleBlock(k.Entry(), cfg); got != first {
			t.Fatalf("nondeterministic schedule: %d vs %d", got, first)
		}
	}
}
