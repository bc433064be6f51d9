package sched_test

import (
	"testing"

	. "repro/internal/sched"
)

// TestSMSResourceConflictRaisesII: when straight-line code has more
// same-cycle local reads than ports, the modulo reservation table must
// push II above the aggregate ResMII bound or spread issues — II can
// never fall below MII, and tight ports must cost more than loose ones.
func TestSMSResourceConflictRaisesII(t *testing.T) {
	k := compileKernel(t, `
__kernel void manyreads(__global float* x) {
    __local float t[64];
    int l = get_local_id(0);
    t[l] = x[l];
    barrier(CLK_LOCAL_MEM_FENCE);
    float a = t[l] * 1.1f;
    float b = t[(l + 1) % 64] * 1.2f;
    float c = t[(l + 2) % 64] * 1.3f;
    float d = t[(l + 3) % 64] * 1.4f;
    float e = t[(l + 4) % 64] * 1.5f;
    float f = t[(l + 5) % 64] * 1.6f;
    x[l] = a + b + c + d + e + f;
}`, "manyreads")

	tight := defaultCfg()
	tight.Res.LocalRead = 1
	loose := defaultCfg()
	loose.Res.LocalRead = 8

	rT := Build(k, nil, tight).SMS()
	rL := Build(k, nil, loose).SMS()

	if rT.II < rT.MII || rL.II < rL.MII {
		t.Fatalf("II below MII: tight %d/%d loose %d/%d", rT.II, rT.MII, rL.II, rL.MII)
	}
	if rT.II <= rL.II {
		t.Errorf("1 read port II (%d) should exceed 8 read ports II (%d)", rT.II, rL.II)
	}
	// 6 reads vs 1 port: ResMII alone demands at least 6.
	if rT.ResMII < 6 {
		t.Errorf("tight ResMII = %d, want >= 6", rT.ResMII)
	}
}

// TestSMSDepthAtLeastCriticalChain: pipeline depth covers the longest
// dependence chain regardless of II.
func TestSMSDepthAtLeastCriticalChain(t *testing.T) {
	k := compileKernel(t, `
__kernel void chain(__global float* x) {
    int i = get_global_id(0);
    float v = x[i];
    v = v * 1.5f;
    v = v + 2.0f;
    v = sqrt(v);
    v = v / 3.0f;
    x[i] = v;
}`, "chain")
	cfg := defaultCfg()
	r := Build(k, nil, cfg).SMS()
	// fmul(6+) + fadd(8+) + sqrt(28) + fdiv(28) alone exceed 70 cycles.
	if r.Depth < 70 {
		t.Errorf("depth %d too small for the serial chain", r.Depth)
	}
}

// TestLoopOpsLoadTableUniformly: a loop running T times per work-item
// must force II ≥ T/ports through the uniform reservation-table load.
func TestLoopOpsLoadTableUniformly(t *testing.T) {
	k := compileKernel(t, `
__kernel void loopreads(__global float* x) {
    __local float t[64];
    int l = get_local_id(0);
    t[l] = x[l];
    barrier(CLK_LOCAL_MEM_FENCE);
    float s = 0.0f;
    for (int j = 0; j < 32; j++) { s += t[(l + j) % 64]; }
    x[l] = s;
}`, "loopreads")
	cfg := defaultCfg()
	cfg.Res.LocalRead = 2
	r := Build(k, nil, cfg).SMS()
	// 32 local reads / 2 ports = 16 minimum interval.
	if r.II < 16 {
		t.Errorf("II = %d, want >= 16 (32 reads over 2 ports)", r.II)
	}
}
