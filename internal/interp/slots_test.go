package interp_test

import (
	"maps"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/interp"
)

// TestLocalVectorArraySharedByGroup is a regression test for a
// __local vector array on the interpreter. Its work-items run as
// concurrent goroutines and share the array, so every cell must exist
// before the first of them runs: growing the array on a work-item's
// first touch lost other work-items' stores, or killed the process with
// a concurrent map write, which no recover catches. The kernel's branch
// reads the array the group wrote, so the static analyzer declines it
// and ProfileStream interprets it, as model.Analyze does in prep.
// Every output element must be exact in each of 30 profiles; under
// `make race` the race detector also checks the group's accesses.
func TestLocalVectorArraySharedByGroup(t *testing.T) {
	const wg, n = 64, 512
	k := &bench.Kernel{
		Suite: "generated", Bench: "test", Name: "vlocal", Fn: "vlocal",
		Source: `
__kernel void vlocal(__global const float* a, __global float* out) {
    __local float4 t[64];
    int l = get_local_id(0);
    int g = get_global_id(0);
    float x = a[g];
    t[l] = (float4)(x, x + 1.0f, x + 2.0f, x + 3.0f);
    barrier(CLK_LOCAL_MEM_FENCE);
    float4 v = t[63 - l];
    if (v.x > 0.0f) {
        out[g] = v.x + v.y + v.z + v.w;
    } else {
        out[g] = -1.0f;
    }
}`,
		Global: [3]int64{n},
		MinWG:  wg, MaxWG: wg,
		Bufs: []bench.Buf{
			{Name: "a", Float: true, Len: n, Fill: bench.FillRamp},
			{Name: "out", Float: true, Len: n},
		},
	}
	f := compileAt(t, k, wg)
	if ok, reason := interp.StaticAnalyzable(f); ok || !strings.Contains(reason, "__local array") {
		t.Fatalf("static analyzer: analyzable %v, reason %q; want a decline on the __local array", ok, reason)
	}
	want := make([]float64, n)
	for g := range want {
		src := float64(g/wg*wg + wg - 1 - g%wg) // a[] of the work-item whose cell g reads
		want[g] = -1
		if src > 0 {
			want[g] = 4*src + 6
		}
	}
	for run := 0; run < 30; run++ {
		cfg := k.Config(wg)
		prof, err := interp.ProfileStream(f, cfg, n/wg, nil)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if prof.Source != interp.SourceInterp || prof.WorkItems != n {
			t.Fatalf("run %d: profiled %d work-items by %s, want %d by the interpreter", run, prof.WorkItems, prof.Source, n)
		}
		wrong := 0
		out := cfg.Buffers["out"].F
		for g := range want {
			if out[g] != want[g] {
				wrong++
			}
		}
		if wrong > 0 {
			t.Fatalf("run %d: %d of %d output elements wrong", run, wrong, n)
		}
	}
}

// TestReusedSlotsCarryNothing pins the interpreter's work-item slots,
// which a launch makes once and reuses for every group: nothing one
// group's work-items leave in them reaches a later group. Only group 0
// takes a branch that writes a private array cell, which every
// work-item then reads, and a __local cell, which is read after a
// barrier. The later groups must read 0 from both, and the block counts
// and barriers must be the values below, those the interpreter gave
// when it made fresh state for every work-item.
func TestReusedSlotsCarryNothing(t *testing.T) {
	const wg, groups = 16, 4
	k := &bench.Kernel{
		Suite: "generated", Bench: "test", Name: "carry", Fn: "carry",
		Source: `
__kernel void carry(__global int* out) {
    int p[4];
    __local int s[16];
    int l = get_local_id(0);
    if (get_group_id(0) == 0) {
        p[l % 4] = 7;
        s[l] = 5;
    }
    int q = p[l % 4];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = q + s[l];
}`,
		Global: [3]int64{wg * groups},
		MinWG:  wg, MaxWG: wg,
		Bufs: []bench.Buf{{Name: "out", Len: wg * groups}},
	}
	f := compileAt(t, k, wg)
	cfg := k.Config(wg)
	prof, err := interp.InterpProfile(f, cfg, groups, false)
	if err != nil {
		t.Fatal(err)
	}
	for g, v := range cfg.Buffers["out"].I {
		want := int64(0)
		if g < wg {
			want = 12
		}
		if v != want {
			t.Errorf("out[%d] = %d, want %d", g, v, want)
		}
	}
	counts := map[string]float64{}
	for b, c := range prof.BlockCounts {
		counts[b.Label()] = c
	}
	if want := map[string]float64{"b0.entry": 1, "b1.then": 0.25, "b2.endif": 1}; !maps.Equal(counts, want) {
		t.Errorf("block counts %v, want %v", counts, want)
	}
	if prof.Barriers != 1 || prof.WorkItems != wg*groups {
		t.Errorf("%v barriers per work-item over %d work-items, want 1 over %d", prof.Barriers, prof.WorkItems, wg*groups)
	}
}
