package interp_test

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/ir"
)

// keptGroups is a GroupSink that keeps every group it is handed, so it
// copies each trace, as the GroupSink contract asks. A rerun from
// ordinal 0 replaces what it kept.
type keptGroups struct{ traces [][]interp.Access }

func (k *keptGroups) sink(ord int, wis [][]interp.Access) {
	if ord == 0 {
		k.traces = k.traces[:0]
	}
	for _, tr := range wis {
		k.traces = append(k.traces, slices.Clone(tr))
	}
}

// interpAt is the interpreter's profile of f's first groups, traces
// included, for k's launch at work-group size wg, on a fresh binding:
// the interpreter writes buffers.
func interpAt(k *bench.Kernel, f *ir.Func, wg int64, groups int) (*interp.Profile, error) {
	return interp.InterpProfile(f, k.Config(wg), groups, false)
}

// TestTraceBuffersNeverLeakBetweenSweeps pins the static executor's
// recycled trace buffers: every sweep takes its chunk buffers from one
// process-wide pool and gives them back when it ends, so a sweep may
// run on buffers another sweep filled, even one that faulted, and two
// sweeps may run at once. In order, in one process: long traces (gemm
// at its largest WG size) leave large filled buffers behind; a launch
// that faults in its second group gives its buffers back on the error
// path; then two sweeps of a kernel with short traces, 2 workers each,
// run concurrently on whatever the pool holds. Every group a copying
// sink keeps, and every profile, must be the interpreter's. The
// interpreter's references are computed first: they allocate enough
// for the collector to empty the pool, so the sweeps run back to back.
func TestTraceBuffersNeverLeakBetweenSweeps(t *testing.T) {
	const groups = 8
	gemm := bench.FindID("gemm/gemm")
	if gemm == nil {
		t.Fatal("gemm/gemm not bundled")
	}
	wgs := gemm.WGSizes()
	gemmWG := wgs[len(wgs)-1]
	fault := &bench.Kernel{
		Suite: "generated", Bench: "test", Name: "fault", Fn: "fault",
		Source: `
__kernel void fault(__global const float* a, __global float* out) {
    int i = get_global_id(0);
    int j = i;
    if (i == 20) {
        j = i + 100000;
    }
    out[i] = a[j];
}`,
		Global: [3]int64{128},
		MinWG:  16, MaxWG: 16,
		Bufs: []bench.Buf{
			{Name: "a", Float: true, Len: 128, Fill: bench.FillRamp},
			{Name: "out", Float: true, Len: 128},
		},
	}
	add := &bench.Kernel{
		Suite: "generated", Bench: "test", Name: "add", Fn: "add",
		Source: `
__kernel void add(__global const float* a, __global const float* b, __global float* c) {
    int i = get_global_id(0);
    c[i] = a[i] + b[i];
}`,
		Global: [3]int64{1024},
		MinWG:  16, MaxWG: 64,
		Bufs: []bench.Buf{
			{Name: "a", Float: true, Len: 1024, Fill: bench.FillRamp},
			{Name: "b", Float: true, Len: 1024, Fill: bench.FillRamp},
			{Name: "c", Float: true, Len: 1024},
		},
	}
	addWGs := []int64{64, 32, 16}
	gemmF, faultF, addF := compileAt(t, gemm, gemmWG), compileAt(t, fault, 16), compileAt(t, add, addWGs[0])

	gemmRef, err := interpAt(gemm, gemmF, gemmWG, groups)
	if err != nil {
		t.Fatalf("gemm: interp: %v", err)
	}
	faultRef, faultErr := interpAt(fault, faultF, 16, groups)
	if faultErr == nil || faultRef.WorkItems != 16 {
		t.Fatalf("fault: the interpreter profiles %d work-items with error %v; want a fault after the first group's 16",
			faultRef.WorkItems, faultErr)
	}
	locals := make([][3]int64, len(addWGs))
	addRefs := make([]*interp.Profile, len(addWGs))
	for i, wg := range addWGs {
		locals[i] = add.Local(wg)
		if addRefs[i], err = interpAt(add, addF, wg, groups); err != nil {
			t.Fatalf("add at WG %d: interp: %v", wg, err)
		}
	}

	// 1. Long traces.
	var kept keptGroups
	prof, err := interp.ProfileStream(gemmF, gemm.Config(gemmWG), groups, kept.sink)
	if err != nil {
		t.Fatalf("gemm: %v", err)
	}
	if prof.Source != interp.SourceStatic {
		t.Fatalf("gemm profiled by %s, not the static executor", prof.Source)
	}
	prof.Traces = kept.traces
	if d := prof.Diff(gemmRef); d != "" {
		t.Errorf("gemm: streamed != interp: %s", d)
	}

	// 2. A fault in the second group, on 2 workers.
	kept = keptGroups{}
	_, err = interp.ProfileSweep(faultF, fault.Config(16), [][3]int64{fault.Local(16)}, groups, 2, []interp.GroupSink{kept.sink})
	if err == nil || err.Error() != faultErr.Error() {
		t.Errorf("fault: sweep error %v, want the interpreter's %v", err, faultErr)
	}
	if len(kept.traces) != len(faultRef.Traces) {
		t.Errorf("fault: the sweep kept %d traces, the interpreter %d", len(kept.traces), len(faultRef.Traces))
	} else {
		for i := range faultRef.Traces {
			if !slices.Equal(kept.traces[i], faultRef.Traces[i]) {
				t.Errorf("fault: work-item %d's trace %v, interp %v", i, kept.traces[i], faultRef.Traces[i])
				break
			}
		}
	}

	// 3. Two concurrent sweeps with short traces.
	var done sync.WaitGroup
	for range 2 {
		done.Add(1)
		go func() {
			defer done.Done()
			kept := make([]keptGroups, len(addWGs))
			sinks := make([]interp.GroupSink, len(addWGs))
			for i := range kept {
				sinks[i] = kept[i].sink
			}
			profs, err := interp.ProfileSweep(addF, add.Config(addWGs[0]), locals, groups, 2, sinks)
			if err != nil {
				t.Errorf("add: sweep: %v", err)
				return
			}
			for i, p := range profs {
				p.Traces = kept[i].traces
				if d := p.Diff(addRefs[i]); d != "" {
					t.Errorf("add at WG %d: sweep != interp: %s", addWGs[i], d)
				}
			}
		}()
	}
	done.Wait()
}

// compileAt compiles k at work-group size wg.
func compileAt(t *testing.T, k *bench.Kernel, wg int64) *ir.Func {
	t.Helper()
	f, err := k.Compile(wg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
