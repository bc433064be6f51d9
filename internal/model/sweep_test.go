package model_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/trace"
)

// sweepCase is one kernel compiled at every WG size of its sweep.
type sweepCase struct {
	k      *bench.Kernel
	wgs    []int64
	fs     []*ir.Func
	locals [][3]int64
}

// compileSweep compiles k at every WG size, largest first, and reports
// whether every size compiled to the same code.
func compileSweep(t *testing.T, k *bench.Kernel) (sweepCase, bool) {
	t.Helper()
	c := sweepCase{k: k}
	wgs := k.WGSizes()
	same := true
	for i := len(wgs) - 1; i >= 0; i-- {
		f, err := k.Compile(wgs[i])
		if err != nil {
			t.Fatalf("wg %d: compile: %v", wgs[i], err)
		}
		f.EnsureLoops()
		if len(c.fs) > 0 && !c.fs[0].SameCode(f) {
			same = false
		}
		c.wgs = append(c.wgs, wgs[i])
		c.fs = append(c.fs, f)
		c.locals = append(c.locals, k.Local(wgs[i]))
	}
	return c, same
}

// perWG analyzes every size of c on its own: the reference.
func (c sweepCase) perWG() ([]*model.Analysis, []error) {
	p := device.Virtex7()
	ans := make([]*model.Analysis, len(c.wgs))
	errs := make([]error, len(c.wgs))
	for i, wg := range c.wgs {
		ans[i], errs[i] = model.Analyze(context.Background(), c.fs[i], p, c.k.Config(wg))
	}
	return ans, errs
}

// sweep analyzes every size of c with one shared profile.
func (c sweepCase) sweep(workers int) ([]*model.Analysis, error) {
	return model.AnalyzeSweep(context.Background(), c.fs[0], device.Virtex7(), c.k.Config(c.wgs[0]),
		c.locals, workers)
}

// checkSweep compares c's shared sweep at each worker count with the
// per-WG analyses and reports whether the sweep shared the profile.
func checkSweep(t *testing.T, c sweepCase, workers ...int) bool {
	t.Helper()
	ref, refErrs := c.perWG()
	shared := false
	for _, w := range workers {
		ans, err := c.sweep(w)
		switch {
		case errors.Is(err, interp.ErrNotShareable):
			if shared {
				t.Fatalf("workers %d: declined after sharing at fewer workers: %v", w, err)
			}
			continue
		case err != nil:
			// The shared run executes the largest size's profiled
			// groups, so a fault there is the largest size's fault.
			if refErrs[0] == nil {
				t.Errorf("workers %d: sweep faults (%v) but wg %d analyzes", w, err, c.wgs[0])
			}
			continue
		}
		shared = true
		for i, wg := range c.wgs {
			if refErrs[i] != nil {
				t.Errorf("workers %d wg %d: sweep succeeds, per-WG fails: %v", w, wg, refErrs[i])
				continue
			}
			if ans[i].F != c.fs[0] || ans[i].Table != ans[0].Table {
				t.Errorf("workers %d wg %d: analyses do not share the function and latency table", w, wg)
			}
			if d := ans[i].Diff(ref[i]); d != "" {
				t.Errorf("workers %d wg %d: sweep != per-WG: %s", w, wg, d)
			}
		}
	}
	return shared
}

// sweepCorpus is every bundled and generated kernel plus each generator
// family at two sizes outside GeneratedCorpus.
func sweepCorpus(t *testing.T) []*bench.Kernel {
	ks := append(bench.All(), bench.GeneratedCorpus()...)
	for _, fam := range bench.GenFamilies() {
		for _, n := range []int64{200, 3000} {
			k, err := bench.Generate(bench.GenSpec{Family: fam, N: n})
			if err != nil {
				t.Fatal(err)
			}
			ks = append(ks, k)
		}
	}
	return ks
}

// TestAnalyzeSweepMatchesPerWG pins the shared profile: for every corpus
// kernel whose WG sizes compile to the same code, AnalyzeSweep at 1, 2
// and 3 workers yields bitwise the analyses per-WG Analyze gives, or
// declines, or faults exactly where the largest size faults. A floor on
// the kernels that share keeps a regression from silently disabling
// the fast path. Under the race detector it checks every sixth kernel
// at 2 workers, where the hand-off crosses goroutines.
func TestAnalyzeSweepMatchesPerWG(t *testing.T) {
	minShared, stride, workers := 60, 1, []int{1, 2, 3}
	if raceEnabled {
		minShared, stride, workers = 1, 6, []int{2}
	}
	var mu sync.Mutex
	shared, declined, distinct := 0, 0, 0
	t.Run("corpus", func(t *testing.T) {
		for i, k := range sweepCorpus(t) {
			if i%stride != 0 {
				continue
			}
			k := k
			t.Run(k.ID(), func(t *testing.T) {
				t.Parallel()
				c, same := compileSweep(t, k)
				if !same || len(c.wgs) < 2 {
					mu.Lock()
					distinct++
					mu.Unlock()
					return
				}
				ok := checkSweep(t, c, workers...)
				mu.Lock()
				if ok {
					shared++
				} else {
					declined++
				}
				mu.Unlock()
			})
		}
	})
	t.Logf("%d kernels share one profile, %d decline, %d compile per WG size or have one size", shared, declined, distinct)
	if shared < minShared {
		t.Errorf("%d kernels share one profile, want at least %d", shared, minShared)
	}
}

// TestAnalyzeSweepKeepsGroups covers a 2-D launch whose smaller sizes
// need groups of the largest one long after they completed: at WG 128
// (16×8 tiles) on a 64×64 grid the fifth tile lies in the first 16×16
// group of WG 256, which must be kept while the rest of its row runs.
// Two workers, so `go test -race` sees the shared buffers handed across
// goroutines.
func TestAnalyzeSweepKeepsGroups(t *testing.T) {
	k, err := bench.Generate(bench.GenSpec{Family: "transpose", N: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !k.TwoD || k.Global[0] != 64 || k.Global[1] != 64 {
		t.Fatalf("%s launches %v (2-D %v), want a 64×64 grid", k.ID(), k.Global, k.TwoD)
	}
	if l := k.Local(128); l != [3]int64{16, 8, 1} {
		t.Fatalf("WG 128 tiles %v, want 16×8", l)
	}
	c, same := compileSweep(t, k)
	if !same {
		t.Fatal("transpose compiles differently per WG size")
	}
	if !checkSweep(t, c, 2) {
		t.Fatal("transpose did not share one profile")
	}
}

// TestAnalyzeSweepFaultFallsBack: a kernel that faults only at a global
// ID outside the smallest size's profiled groups. The shared run, which
// executes the largest size's groups, must fault, and each size's own
// Analyze is then the reference: the small sizes succeed, the largest
// fails with its own error.
func TestAnalyzeSweepFaultFallsBack(t *testing.T) {
	k := &bench.Kernel{
		Suite: "generated", Bench: "test", Name: "late-fault", Fn: "late_fault",
		Source: `
__kernel void late_fault(__global const float* a, __global float* out) {
    int i = get_global_id(0);
    int j = i;
    if (i == 1500) {
        j = i + 100000;
    }
    out[i] = a[j];
}`,
		Global: [3]int64{4096},
		MinWG:  16, MaxWG: 256,
		Bufs: []bench.Buf{
			{Name: "a", Float: true, Len: 4096, Fill: bench.FillRamp},
			{Name: "out", Float: true, Len: 4096},
		},
	}
	c, same := compileSweep(t, k)
	if !same {
		t.Fatal("late-fault compiles differently per WG size")
	}
	if _, err := c.sweep(2); err == nil || errors.Is(err, interp.ErrNotShareable) {
		t.Fatalf("sweep error = %v, want the out-of-bounds fault", err)
	}
	_, errs := c.perWG()
	for i, wg := range c.wgs {
		// 8 groups of WG w cover global IDs [0, 8w): only 256 reaches 1500.
		if wantFail := 8*wg > 1500; (errs[i] != nil) != wantFail {
			t.Errorf("wg %d: per-WG error %v, want failure %v", wg, errs[i], wantFail)
		}
	}
	checkSweep(t, c, 1, 2)
}

// TestAnalyzeSweepAllocsBounded guards the kept groups: AnalyzeSweep's
// profile, interp.ProfileSweep into one trace.Stream per size, recycles
// each group's trace buffers of a 1-D sweep once every size has taken
// its groups, so profiling more groups must not grow what the sweep
// allocates the way keeping the union would. lavaMD traces ~263
// accesses per work-item and launches 16 groups at its largest size,
// so 32 groups profile twice the groups of 8.
func TestAnalyzeSweepAllocsBounded(t *testing.T) {
	k := bench.FindID("lavaMD/lavaMD")
	if k == nil {
		t.Fatal("lavaMD/lavaMD not bundled")
	}
	c, same := compileSweep(t, k)
	if !same || k.TwoD {
		t.Fatalf("lavaMD: same code %v, 2-D %v; want a 1-D kernel with one code", same, k.TwoD)
	}
	if n := k.Config(c.wgs[0]).Range.Normalize().TotalGroups(); n <= 8 {
		t.Fatalf("lavaMD at WG %d launches %d groups, want more than 8", c.wgs[0], n)
	}
	p := device.Virtex7()
	sweep := func(groups int) uint64 {
		cfg := k.Config(c.wgs[0])
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		layout := trace.NewLayout(c.fs[0], trace.BufferCounts(c.fs[0], cfg), p.DRAM)
		streams := make([]*trace.Stream, len(c.locals))
		sinks := make([]interp.GroupSink, len(c.locals))
		for i := range streams {
			streams[i] = trace.NewStream(layout, p.DRAM, p.MemAccessUnitBits/8)
			sinks[i] = streams[i].Group
		}
		_, err := interp.ProfileSweep(c.fs[0], cfg, c.locals, groups, 2, sinks)
		for _, s := range streams {
			s.Classified()
		}
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	sweep(8) // the first sweep also builds the static plan
	at8, at32 := sweep(8), sweep(32)
	t.Logf("the shared profile allocates %.2f MB at 8 groups, %.2f MB at 32", float64(at8)/1e6, float64(at32)/1e6)
	if float64(at32) > 1.25*float64(at8) {
		t.Errorf("the shared profile allocates %d bytes at 32 groups, more than 1.25 × %d at 8", at32, at8)
	}
}
