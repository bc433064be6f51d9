package dse

import (
	"math"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/model"
)

// fuzzPrep memoizes analyses and derived bounds across fuzz iterations:
// the property is about lowerBound vs Predict, not about re-running the
// (deterministic) analysis pipeline thousands of times.
var fuzzPrep struct {
	mu     sync.Mutex
	caches map[bool]*PrepCache // key: KU060?
	bounds map[fuzzBoundsKey]model.DesignBounds
}

type fuzzBoundsKey struct {
	id string
	wg int64
	ku bool
}

func fuzzAnalysis(t testing.TB, k *bench.Kernel, ku bool, wg int64) (*model.Analysis, model.DesignBounds) {
	t.Helper()
	p := device.Virtex7()
	if ku {
		p = device.KU060()
	}
	fuzzPrep.mu.Lock()
	defer fuzzPrep.mu.Unlock()
	if fuzzPrep.caches == nil {
		fuzzPrep.caches = map[bool]*PrepCache{}
		fuzzPrep.bounds = map[fuzzBoundsKey]model.DesignBounds{}
	}
	cache := fuzzPrep.caches[ku]
	if cache == nil {
		cache = NewPrepCache()
		fuzzPrep.caches[ku] = cache
	}
	an, err := cache.Analysis(k, p, wg)
	if err != nil {
		t.Fatalf("%s wg=%d: %v", k.ID(), wg, err)
	}
	key := fuzzBoundsKey{id: k.ID(), wg: wg, ku: ku}
	b, ok := fuzzPrep.bounds[key]
	if !ok {
		b = an.DesignBounds(model.PEValues(p.MaxPE), model.CUValues(p.MaxCU))
		fuzzPrep.bounds[key] = b
	}
	return an, b
}

// FuzzLowerBound is the property test behind the guided search's
// correctness: for every design in the lattice, the branch-and-bound
// lower bound never exceeds the model's predicted cycles. A violation
// here is exactly the failure that would make Search prune the true
// optimum, so the property is asserted raw (<=, no tolerance): the bound
// is constructed to be float-monotone, not merely approximately sound.
func FuzzLowerBound(f *testing.F) {
	for i := range bench.All() {
		f.Add(uint(i), uint(i%4), uint8(i%5), uint8(i%3), i%2 == 0, i%3 == 0, i%7 == 0)
	}
	kernels := bench.All()
	f.Fuzz(func(t *testing.T, kIdx, wgIdx uint, peSel, cuSel uint8, pipe, barrierMode, ku bool) {
		k := kernels[int(kIdx)%len(kernels)]
		wgs := k.WGSizes()
		if len(wgs) == 0 {
			t.Skip("empty work-group sweep")
		}
		wg := wgs[int(wgIdx)%len(wgs)]
		p := device.Virtex7()
		if ku {
			p = device.KU060()
		}
		peVals := model.PEValues(p.MaxPE)
		cuVals := model.CUValues(p.MaxCU)
		pe := peVals[int(peSel)%len(peVals)]
		cu := cuVals[int(cuSel)%len(cuVals)]
		if pe > 1 {
			pipe = true // the flow only replicates PEs inside a pipeline
		}
		mode := model.ModePipeline
		if barrierMode {
			mode = model.ModeBarrier
		}
		d := model.Design{WGSize: wg, WIPipeline: pipe, PE: pe, CU: cu, Mode: mode}

		an, b := fuzzAnalysis(t, k, ku, wg)
		lb := lowerBound(b, pipe, mode, pe, cu)
		est := an.Predict(d).Cycles
		if math.IsNaN(lb) || lb < 0 {
			t.Fatalf("%s %v: degenerate bound %v", k.ID(), d, lb)
		}
		if lb > est {
			t.Fatalf("%s %v: lowerBound %v > predicted cycles %v (unsound bound)",
				k.ID(), d, lb, est)
		}
	})
}
