package dse

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/device"
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
