package dse

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/model"
)

// TestPrepareSharesOneProfile: a sweep over a kernel whose WG sizes
// compile to the same code fills every size from one shared profile, so
// every entry holds the largest size's function, and each predicts
// exactly what a single-size fill (the per-WG path) predicts.
func TestPrepareSharesOneProfile(t *testing.T) {
	k := cacheKernel(t)
	p := device.Virtex7()
	wgs := k.WGSizes()
	swept := NewPrepCache()
	ans, err := swept.Analyses(k, p)
	if err != nil {
		t.Fatal(err)
	}
	if st := swept.Stats(); st.Misses != uint64(len(wgs)) || st.Computes != uint64(len(wgs)) {
		t.Errorf("sweep stats %+v, want %d misses and computes", st, len(wgs))
	}
	single := NewPrepCache()
	for _, wg := range wgs {
		if ans[wg].F != ans[wgs[len(wgs)-1]].F {
			t.Errorf("wg %d: entry does not hold the largest size's function", wg)
		}
		ref, err := single.Analysis(k, p, wg)
		if err != nil {
			t.Fatal(err)
		}
		if ref.F == ans[wg].F {
			t.Fatalf("wg %d: the single-size fill shares the sweep's function", wg)
		}
		for _, d := range model.DefaultSpace(wg, p.MaxPE, p.MaxCU) {
			if d.WGSize != wg {
				continue
			}
			if got, want := ans[wg].Predict(d), ref.Predict(d); !reflect.DeepEqual(got, want) {
				t.Fatalf("wg %d design %v: shared %+v, per-WG %+v", wg, d, got, want)
			}
		}
	}
}

// TestPrepareHookFailsOneSize: a computed fill that fails for one WG
// size fails that size alone. The sweep reports its error, the failed
// entry is evicted, and the other sizes, filled together, stay cached.
func TestPrepareHookFailsOneSize(t *testing.T) {
	k := cacheKernel(t)
	p := device.Virtex7()
	wgs := k.WGSizes()
	bad := wgs[1]
	c := NewPrepCache()
	injected := errors.New("injected")
	c.testFillHook = func(_ *bench.Kernel, wg int64) error {
		if wg == bad {
			return injected
		}
		return nil
	}
	if _, err := c.Analyses(k, p); !errors.Is(err, injected) {
		t.Fatalf("sweep error = %v, want the injected failure", err)
	}
	if n := c.Len(); n != len(wgs)-1 {
		t.Errorf("Len = %d, want %d: only the failed size leaves", n, len(wgs)-1)
	}
	for _, wg := range wgs {
		if wg == bad {
			continue
		}
		an, err := c.Analysis(k, p, wg)
		if err != nil || an == nil {
			t.Errorf("wg %d: %v", wg, err)
		}
	}
	if st := c.Stats(); st.Computes != uint64(len(wgs)) {
		t.Errorf("Computes = %d, want %d: the survivors were cached", st.Computes, len(wgs))
	}
}

// TestPrepareCompilesOnce counts the compiles of a cold sweep: one for
// a kernel whose code cannot depend on its WG size, whether its sizes
// share one profile (nn/nn) or the share declines and each size is
// analyzed on its own (bfs/bfs_1, which the interpreter profiles), and
// one per size for hotspot/hotspot, whose source reads WG.
func TestPrepareCompilesOnce(t *testing.T) {
	p := device.Virtex7()
	for _, c := range []struct {
		id      string
		perSize bool
	}{{"nn/nn", false}, {"bfs/bfs_1", false}, {"hotspot/hotspot", true}} {
		k := bench.FindID(c.id)
		if k == nil {
			t.Fatalf("%s not bundled", c.id)
		}
		if k.SizeIndependent() == c.perSize {
			t.Fatalf("%s: SizeIndependent() = %v", c.id, k.SizeIndependent())
		}
		cache := NewPrepCache()
		var compiles atomic.Int64
		cache.testCompileHook = func(*bench.Kernel, int64) { compiles.Add(1) }
		if _, err := cache.Analyses(k, p); err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		want := int64(1)
		if c.perSize {
			want = int64(len(k.WGSizes()))
		}
		if got := compiles.Load(); got != want {
			t.Errorf("%s: a cold sweep of %d sizes compiled %d times, want %d", c.id, len(k.WGSizes()), got, want)
		}
	}
}

// TestPrepareDeclinedShareHoldsOneFunc: when a size-independent kernel's
// shared profile declines (bfs/bfs_1 has no static plan), every size is
// analyzed on its own but from the one compiled function, which every
// entry then holds, and each analysis is bitwise the one a fresh compile
// at that size gives.
func TestPrepareDeclinedShareHoldsOneFunc(t *testing.T) {
	k := bench.FindID("bfs/bfs_1")
	if k == nil || !k.SizeIndependent() {
		t.Fatal("bfs/bfs_1 missing or size-dependent")
	}
	p := device.Virtex7()
	wgs := k.WGSizes()
	ans, err := NewPrepCache().Analyses(k, p)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := interp.StaticAnalyzable(ans[wgs[0]].F); ok {
		t.Fatal("bfs/bfs_1 is statically analyzable: its share does not decline")
	}
	for _, wg := range wgs {
		if ans[wg].F != ans[wgs[0]].F {
			t.Errorf("wg %d: entry holds its own function", wg)
		}
		f, err := k.Compile(wg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := model.Analyze(context.Background(), f, p, k.Config(wg))
		if err != nil {
			t.Fatal(err)
		}
		if d := ans[wg].Diff(ref); d != "" {
			t.Errorf("wg %d: analysis differs from a fresh compile's: %s", wg, d)
		}
	}
}
