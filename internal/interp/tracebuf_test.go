package interp_test

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/trace"
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
// trace buffers: a sweep reuses a group's chunk buffers for its later
// groups, and no buffer outlives the sweep that took it, whether the
// sweep completes or faults, so nothing one sweep traced can reach
// another. In order, in one process: long traces (gemm at its largest
// WG size) fill large buffers; a launch that faults in its second group
// stops on the error path; then two sweeps of a kernel with short
// traces, 2 workers each, run concurrently. Every group a copying sink
// keeps, and every profile, must be the interpreter's. The
// interpreter's references are computed first, so the sweeps run back
// to back.
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

// TestProfileLeavesNothingReachable pins that a profile keeps nothing
// alive once it returns, neither trace buffers nor work-item state, so
// a process that stops profiling holds no memory for it. After a
// warm-up profile, which builds the function's static plan, and two
// collections, which free everything it left unreachable, one more
// profile and a single collection must leave the live heap within 64
// KB of what it was before that profile. (A buffer kept for reuse
// across profiles, as in a sync.Pool, survives one collection and
// fails this.) The cases cover the static executor
// (gemm at its largest WG size), the interpreter (bfs/bfs_1) and a
// shared sweep (lavaMD at every WG size), each streamed into
// trace.Stream and classified, the way model.Analyze profiles.
func TestProfileLeavesNothingReachable(t *testing.T) {
	const slack = 64 << 10
	p := device.Virtex7()
	stream := func(f *ir.Func, cfg *interp.Config) *trace.Stream {
		return trace.NewStream(trace.NewLayout(f, trace.BufferCounts(f, cfg), p.DRAM), p.DRAM, p.MemAccessUnitBits/8)
	}
	largest := func(id string) (*bench.Kernel, int64, *ir.Func) {
		k := bench.FindID(id)
		if k == nil {
			t.Fatalf("%s not bundled", id)
		}
		wgs := k.WGSizes()
		return k, wgs[len(wgs)-1], compileAt(t, k, wgs[len(wgs)-1])
	}
	one := func(id string, want interp.Source) func() {
		k, wg, f := largest(id)
		return func() {
			cfg := k.Config(wg)
			s := stream(f, cfg)
			prof, err := interp.ProfileStream(f, cfg, model.ProfileGroups, s.Group)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if prof.Source != want {
				t.Fatalf("%s: profiled by %s, not %s", id, prof.Source, want)
			}
			s.Classified()
		}
	}
	sweep := func(id string) func() {
		k, wg, f := largest(id)
		var locals [][3]int64
		for _, w := range k.WGSizes() {
			locals = append(locals, k.Local(w))
		}
		return func() {
			cfg := k.Config(wg)
			streams := make([]*trace.Stream, len(locals))
			sinks := make([]interp.GroupSink, len(locals))
			for i := range streams {
				streams[i] = stream(f, cfg)
				sinks[i] = streams[i].Group
			}
			if _, err := interp.ProfileSweep(f, cfg, locals, model.ProfileGroups, 2, sinks); err != nil {
				t.Fatalf("%s: sweep: %v", id, err)
			}
			for _, s := range streams {
				s.Classified()
			}
		}
	}
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"gemm/gemm", one("gemm/gemm", interp.SourceStatic)},
		{"bfs/bfs_1", one("bfs/bfs_1", interp.SourceInterp)},
		{"lavaMD/lavaMD sweep", sweep("lavaMD/lavaMD")},
	} {
		c.run() // builds the static plan
		runtime.GC()
		before := liveHeap()
		c.run()
		after := liveHeap()
		t.Logf("%s: live heap %+d bytes after a profile", c.name, int64(after)-int64(before))
		if after > before+slack {
			t.Errorf("%s: a profile leaves the live heap %d bytes larger, more than %d", c.name, after-before, slack)
		}
	}
}

// liveHeap collects garbage and returns the bytes of live heap objects.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestSweepSizesEachChunkBufferOnce pins how a sweep sizes its chunk
// trace buffers: a chunk that has none yet traces its first work-item
// into its worker's reused buffer, then allocates its own once, at that
// trace's length times its work-items. A kernel whose every work-item
// traces the same 2,049 accesses runs 8 groups of 8 work-items on 2
// workers, so 8 chunks of one work-item each. The sweep may allocate
// the 8 chunk buffers, one grown buffer per worker and 64 KB besides;
// a sweep that grew each chunk's first trace from nothing would
// allocate 6 more grown buffers than that.
func TestSweepSizesEachChunkBufferOnce(t *testing.T) {
	const trace = 2049 // 2,048 reads and one write per work-item
	k := &bench.Kernel{
		Bench: "sweep", Name: "uniform", Fn: "k",
		Source: `
__kernel void k(__global const float* a, __global float* out, int n) {
    int i = get_global_id(0);
    float s = 0.0f;
    for (int j = 0; j < n; j++) {
        s += a[j];
    }
    out[i] = s;
}`,
		Global: [3]int64{64},
		Bufs: []bench.Buf{
			{Name: "a", Float: true, Len: trace - 1, Fill: bench.FillRamp},
			{Name: "out", Float: true, Len: 64},
		},
		Scalars: map[string]int64{"n": trace - 1},
	}
	f := compileAt(t, k, 8)
	cfg := k.Config(8)
	var traces int
	count := func(_ int, wis [][]interp.Access) {
		for _, tr := range wis {
			if len(tr) != trace {
				t.Fatalf("a work-item traced %d accesses, want %d", len(tr), trace)
			}
			traces++
		}
	}
	sweep := func(sink interp.GroupSink) {
		if _, err := interp.ProfileSweep(f, cfg, [][3]int64{{8, 1, 1}}, 8, 2, []interp.GroupSink{sink}); err != nil {
			t.Fatal(err)
		}
	}
	sweep(count) // builds the static plan and checks the traces
	if traces != 64 {
		t.Fatalf("the sweep handed over %d traces, want 64", traces)
	}

	record := int(unsafe.Sizeof(interp.Access{}))
	var grown []interp.Access
	growth := allocated(func() {
		for range trace {
			grown = append(grown, interp.Access{})
		}
	})
	limit := uint64(8*trace*record) + 2*growth + 64<<10
	got := allocated(func() { sweep(nil) })
	t.Logf("sweep allocated %d bytes: limit %d, growing one trace %d", got, limit, growth)
	if got > limit {
		t.Errorf("the sweep allocated %d bytes, more than %d: 8 chunk buffers of %d, 2 grown buffers of %d and 64 KB",
			got, limit, trace*record, growth)
	}
}

// allocated returns the bytes the process allocates while fn runs.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
