package interp

import (
	"testing"

	"repro/internal/opencl/ast"
)

func spreadConfig(groups int64) (*Config, *Buffer) {
	out := NewFloatBuffer(ast.KFloat, int(groups*16))
	return &Config{
		Range:   NDRange{Global: [3]int64{groups * 16}, Local: [3]int64{16}},
		Buffers: map[string]*Buffer{"out": out},
	}, out
}

// Each work-item writes its global index, so the profile's traces
// reveal exactly which groups ran (the static fast path collects
// traces without mutating the buffer).
const spreadSrc = `
__kernel void mark(__global float* out) {
    int i = get_global_id(0);
    out[i] = (float)(get_group_id(0) + 1);
}`

// groupsRan recovers the executed group set from the profile's write
// trace (16 work-items per group in these launches).
func groupsRan(prof *Profile) map[int64]bool {
	ran := map[int64]bool{}
	for _, wi := range prof.Traces {
		for _, a := range wi {
			if a.Write {
				ran[int64(a.Index)/16] = true
			}
		}
	}
	return ran
}

func TestProfileKernelSpreadCoversLaunch(t *testing.T) {
	k := compileKernel(t, spreadSrc, "mark")
	cfg, _ := spreadConfig(16)
	prof, err := ProfileKernelSpread(k, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if prof.WorkItems != 4*16 {
		t.Fatalf("profiled WIs = %d, want 64 (4 groups of 16)", prof.WorkItems)
	}
	// Exactly 4 groups ran, spread across all 16 — not the first 4.
	ran := groupsRan(prof)
	if len(ran) != 4 {
		t.Fatalf("groups executed = %v, want 4", ran)
	}
	var beyondPrefix bool
	for g := range ran {
		if g >= 4 {
			beyondPrefix = true
		}
	}
	if !beyondPrefix {
		t.Errorf("sample %v is the launch prefix, want a spread", ran)
	}
}

func TestProfileKernelSpreadDegeneratesToFull(t *testing.T) {
	k := compileKernel(t, spreadSrc, "mark")
	cfg, _ := spreadConfig(3)
	prof, err := ProfileKernelSpread(k, cfg, 8) // more than the launch has
	if err != nil {
		t.Fatal(err)
	}
	if prof.WorkItems != 3*16 {
		t.Fatalf("profiled WIs = %d, want all 48", prof.WorkItems)
	}
	ran := groupsRan(prof)
	for g := int64(0); g < 3; g++ {
		if !ran[g] {
			t.Errorf("group %d did not run", g)
		}
	}
}

func TestProfileKernelSpreadDeterministic(t *testing.T) {
	k := compileKernel(t, spreadSrc, "mark")
	cfg1, _ := spreadConfig(32)
	cfg2, _ := spreadConfig(32)
	p1, err := ProfileKernelSpread(k, cfg1, 5)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ProfileKernelSpread(k, cfg2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d := p1.Diff(p2); d != "" {
		t.Fatalf("sample differs between runs: %s", d)
	}
}
