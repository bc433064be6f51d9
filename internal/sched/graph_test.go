package sched_test

import (
	"strings"
	"testing"

	"repro/internal/ir"
	. "repro/internal/sched"
)

func TestDepthGrowsWithLoopTrips(t *testing.T) {
	mk := func(n string) *ir.Func {
		return compileKernel(t, `
__kernel void k(__global float* x) {
    int i = get_global_id(0);
    float v = x[i];
    for (int j = 0; j < `+n+`; j++) { v = v * 1.5f + 1.0f; }
    x[i] = v;
}`, "k")
	}
	c := defaultCfg()
	d8 := Build(mk("8"), nil, c).SerialDepth()
	d64 := Build(mk("64"), nil, c).SerialDepth()
	if d64 <= d8 {
		t.Errorf("depth(64 trips)=%d should exceed depth(8 trips)=%d", d64, d8)
	}
	// Rough linearity: 64-trip loop should be several times deeper.
	if d64 < 4*d8/2 {
		t.Errorf("depth scaling too weak: %d vs %d", d64, d8)
	}
}

func TestEffectiveFreqNested(t *testing.T) {
	k := compileKernel(t, `
__kernel void k(__global float* x) {
    float s = 0.0f;
    for (int i = 0; i < 4; i++) {
        for (int j = 0; j < 8; j++) { s += x[i*8+j]; }
    }
    x[0] = s;
}`, "k")
	freq := EffectiveFreq(k, 16)
	// Inner body runs 4*8 = 32 times per work-item.
	var innerBody float64
	for b, f := range freq {
		if strings.Contains(b.BName, "for.body") && f > innerBody {
			innerBody = f
		}
	}
	if innerBody != 32 {
		t.Errorf("inner body freq = %v, want 32", innerBody)
	}
}

func TestUnrollReducesDepth(t *testing.T) {
	mk := func(pragma string) *ir.Func {
		return compileKernel(t, `
__kernel void k(__global float* x) {
    int i = get_global_id(0);
    float v = x[i];
    `+pragma+`
    for (int j = 0; j < 64; j++) { v = v * 1.5f; }
    x[i] = v;
}`, "k")
	}
	c := defaultCfg()
	plain := Build(mk(""), nil, c).SerialDepth()
	unrolled := Build(mk("#pragma unroll 8"), nil, c).SerialDepth()
	if unrolled >= plain {
		t.Errorf("unrolled depth %d should be < plain depth %d", unrolled, plain)
	}
}

// TestBranchTakesHeavierPath: the block after an if/else starts where
// the heavier arm ends on the critical path, so the pipeline depth SMS
// builds on those offsets covers the expensive arm.
func TestBranchTakesHeavierPath(t *testing.T) {
	k := compileKernel(t, `
__kernel void k(__global float* x, int n) {
    int i = get_global_id(0);
    float v = x[i];
    if (n > 0) {
        v = sqrt(v) + sqrt(v + 1.0f) + sqrt(v + 2.0f);
    } else {
        v = v + 1.0f;
    }
    x[i] = v;
}`, "k")
	// Depth must cover the expensive branch (3 sqrt ≈ 84+ cycles).
	if d := Build(k, nil, defaultCfg()).SMS().Depth; d < 60 {
		t.Errorf("depth %d too small to cover heavy branch", d)
	}
}

func TestBlockOffsetsMonotone(t *testing.T) {
	k := compileKernel(t, `
__kernel void k(__global float* x) {
    int i = get_global_id(0);
    float a = x[i] * 2.0f;
    if (a > 0.0f) { a = a + 1.0f; }
    x[i] = a;
}`, "k")
	g := Build(k, nil, defaultCfg())
	idom := k.Dominators()
	for _, b := range k.Blocks {
		for _, s := range b.Succs {
			if ir.Dominates(idom, s, b) {
				continue // back edge
			}
			if g.BlockOffsets[s] < g.BlockOffsets[b] {
				t.Errorf("offset(%s)=%d < offset(%s)=%d on forward edge",
					s.Label(), g.BlockOffsets[s], b.Label(), g.BlockOffsets[b])
			}
		}
	}
}

func TestApplyUnrollRescalesProfiledFreq(t *testing.T) {
	k := compileKernel(t, `
__kernel void k(__global float* x) {
    int i = get_global_id(0);
    float v = x[i];
    #pragma unroll 4
    for (int j = 0; j < 32; j++) { v = v * 1.01f; }
    x[i] = v;
}`, "k")
	var body *ir.Block
	for _, b := range k.Blocks {
		if b.BName == "for.body" {
			body = b
		}
	}
	if body == nil {
		t.Fatal("no for.body block")
	}
	// The static 32 trips shrink to 8 under the unroll-by-4 hint.
	if got := EffectiveFreq(k, 16)[body]; got != 8 {
		t.Errorf("unrolled body freq = %v, want 8 (32/4)", got)
	}
	// So must a profiled frequency of 32 on the loop body.
	prof := map[*ir.Block]float64{body: 32}
	if got := Build(k, prof, defaultCfg()).Freq[body]; got != 8 {
		t.Errorf("profiled body freq after Build = %v, want 8 (32/4)", got)
	}
	if prof[body] != 32 {
		t.Errorf("Build rescaled the caller's map: body freq %v, want 32", prof[body])
	}
}

func TestFullUnrollCollapsesLoop(t *testing.T) {
	mk := func(pragma string) float64 {
		k := compileKernel(t, `
__kernel void k(__global float* x) {
    int i = get_global_id(0);
    float v = x[i];
    `+pragma+`
    for (int j = 0; j < 16; j++) { v = v + 1.0f; }
    x[i] = v;
}`, "k")
		return float64(Build(k, nil, defaultCfg()).SerialDepth())
	}
	plain := mk("")
	full := mk("#pragma unroll")
	if full >= plain {
		t.Errorf("full unroll depth %v should be < rolled %v", full, plain)
	}
	// Full unroll executes the body once (spatially replicated).
	if full > plain/4 {
		t.Errorf("full unroll depth %v not collapsed enough vs %v", full, plain)
	}
}
