// Package dse implements the design-space exploration of §4.3: exhaustive
// search driven by the FlexCL analytical model, the step-by-step heuristic
// search of Wang et al. [16] driven by a coarse model, and the metrics the
// paper reports (optimality rate, distance to optimum, speedup over the
// unoptimized baseline design, exploration time).
package dse

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/rtlsim"
	"repro/internal/telemetry"
)

// Point is one evaluated design.
type Point struct {
	Design model.Design
	// Est is the FlexCL model estimate in cycles.
	Est float64
	// Actual is the ground-truth ("System Run") cycles; 0 until measured.
	Actual float64
	// Baseline is the SDAccel estimate; negative when the tool failed.
	Baseline float64
}

// Space enumerates the kernel's design space: each of its work-group
// sizes (bench.Kernel.WGSizes, ascending) × pipeline × PE × CU ×
// communication mode, listed by model.WGSpace.
func Space(k *bench.Kernel, p *device.Platform) []model.Design {
	wgs := k.WGSizes()
	out := make([]model.Design, 0, len(wgs)*model.WGSpaceLen(p.MaxPE, p.MaxCU))
	for _, wg := range wgs {
		out = model.WGSpace(out, wg, p.MaxPE, p.MaxCU)
	}
	return out
}

// Result is a full exploration of one kernel.
type Result struct {
	Kernel *bench.Kernel
	Points []Point

	// ModelTime is the time spent on FlexCL analysis + prediction,
	// summed over the worker shards (it can exceed WallTime when the
	// exploration runs in parallel).
	ModelTime time.Duration
	// SimTime is the time spent on ground-truth simulation, summed over
	// the worker shards.
	SimTime time.Duration
	// WallTime is the elapsed wall-clock time of the whole exploration.
	WallTime time.Duration

	// BaselineFailures counts design points the SDAccel estimator
	// rejected.
	BaselineFailures int
}

// Options tunes exploration.
type Options struct {
	Platform *device.Platform
	// SimMaxGroups caps ground-truth simulation (0 = all groups).
	SimMaxGroups int
	// SkipActual skips ground-truth simulation (model-only exploration).
	SkipActual bool
	// SkipBaseline skips the SDAccel baseline.
	SkipBaseline bool
	// PruneInfeasible drops design points whose estimated resource usage
	// (DSPs, BRAM) exceeds the platform — they could never be placed.
	PruneInfeasible bool
	// Workers is the number of goroutines preparing WG sizes and
	// evaluating design points concurrently; they also split the work-items
	// of each profiled work-group when one shared profile serves every WG
	// size (see PrepCache). 0 uses runtime.GOMAXPROCS(0); 1 reproduces the
	// serial exploration. Any worker count produces byte-identical
	// Points: design points are written into their slot by index.
	Workers int
	// Cache, when non-nil, shares compiled kernels and analyses across
	// Explore calls (and with HeuristicSearch via PrepCache.Analyses).
	// nil uses a private per-call cache.
	Cache *PrepCache
}

// Explore evaluates every design point of the kernel with the FlexCL
// model, the SDAccel baseline and (optionally) ground-truth simulation.
// ctx is the first parameter of every deadline-carrying entry point in
// this codebase (pass context.Background() when there is nothing to
// propagate): the design space is sharded over opts.Workers goroutines,
// each WG size is compiled and analyzed exactly once through the prep
// cache, and the first worker error (or ctx cancellation) stops the
// exploration without leaking goroutines.
func Explore(ctx context.Context, k *bench.Kernel, opts Options) (*Result, error) {
	p := opts.Platform
	if p == nil {
		p = device.Virtex7()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cache := opts.Cache
	if cache == nil {
		cache = NewPrepCache()
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	t0 := time.Now()
	res := &Result{Kernel: k}

	// firstErr is set once by whichever worker fails first; cancel stops
	// the rest. Reads after runShards are safe: the WaitGroup join
	// orders them after every worker's writes.
	var firstErr error
	var errOnce sync.Once
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	// Phase 1: prepare (compile + analyze) every WG size. One analysis
	// per work-group size serves every design at that size.
	wgs := k.WGSizes()
	_, prepSpan := telemetry.Start(ctx, "prep")
	prepSpan.Annotate("wg_sizes", fmt.Sprint(len(wgs)))
	preps, own, err := cache.prepare(ctx, k, p, wgs, workers)
	prepSpan.End()
	if err != nil {
		return nil, err
	}
	var prepNanos int64
	for i, e := range preps {
		if own[i] {
			prepNanos += int64(e.dur)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 2: predict every design point, sharded over the workers. The
	// predictions are cheap and uniform, so workers claim them in chunks
	// and each times its whole share once. Each point is written into
	// its slot by index, so the output order matches the serial
	// exploration at any worker count. A pruned design leaves its slot
	// zero: every kept point has a WG size of at least 1.
	designs := Space(k, p)
	pts := make([]Point, len(designs))
	done := ctx.Done()
	var modelNanos, simNanos atomic.Int64
	_, sweepSpan := telemetry.Start(ctx, "sweep")
	sweepSpan.Annotate("designs", fmt.Sprint(len(designs)))
	var next atomic.Int64
	runWorkers(workers, len(designs), func() {
		t0 := time.Now()
		defer func() { modelNanos.Add(int64(time.Since(t0))) }()
		for {
			lo := int(next.Add(predictChunk)) - predictChunk
			if lo >= len(designs) {
				return
			}
			for i := lo; i < min(lo+predictChunk, len(designs)); i++ {
				select {
				case <-done:
					return
				default:
				}
				d := designs[i]
				an := prepOf(wgs, preps, d.WGSize).an
				if opts.PruneInfeasible && !an.ResourceUsage(d).Feasible {
					continue
				}
				pts[i] = Point{Design: d, Est: an.Predict(d).Cycles}
			}
		}
	})

	// Phase 3: the SDAccel baseline and ground-truth simulation, each up
	// to milliseconds per design, claimed one design at a time.
	if !opts.SkipBaseline || !opts.SkipActual {
		runShards(workers, len(pts), func(i int) {
			select {
			case <-done:
				return
			default:
			}
			pt := &pts[i]
			if pt.Design.WGSize == 0 {
				return
			}
			d := pt.Design
			e := prepOf(wgs, preps, d.WGSize)
			if !opts.SkipBaseline {
				if est, err := baseline.SDAccel(e.an, d); err == nil {
					pt.Baseline = est
				} else {
					pt.Baseline = -1
				}
			}
			if !opts.SkipActual {
				s0 := time.Now()
				sim, err := rtlsim.Simulate(e.f, p, k.Config(d.WGSize), d,
					rtlsim.Options{MaxGroups: opts.SimMaxGroups, Ctx: ctx})
				if err != nil {
					if ctx.Err() == nil {
						fail(fmt.Errorf("dse %s %v: %w", k.ID(), d, err))
					}
					return
				}
				pt.Actual = sim.Cycles
				simNanos.Add(int64(time.Since(s0)))
			}
		})
	}
	sweepSpan.End()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	n := 0
	for _, pt := range pts {
		if pt.Design.WGSize == 0 {
			continue
		}
		if !opts.SkipBaseline && pt.Baseline < 0 {
			res.BaselineFailures++
		}
		pts[n] = pt
		n++
	}
	res.Points = pts[:n]
	res.ModelTime = time.Duration(prepNanos + modelNanos.Load())
	res.SimTime = time.Duration(simNanos.Load())
	res.WallTime = time.Since(t0)
	return res, nil
}

// predictChunk is how many consecutive design points an Explore worker
// claims at a time for prediction.
const predictChunk = 16

// prepOf returns the entry of preps, prepared for wgs in order, that
// holds WG size wg. Explore's later phases read the entries its prepare
// phase holds, so a sweep makes one cache lookup per WG size, and an
// eviction in between cannot trigger a second fill.
func prepOf(wgs []int64, preps []*prepEntry, wg int64) *prepEntry {
	for i, w := range wgs {
		if w == wg {
			return preps[i]
		}
	}
	panic(fmt.Sprintf("dse: WG size %d is not in the sweep %v", wg, wgs))
}

// runWorkers runs work on min(workers, n) goroutines and joins them all
// before returning; with one worker (or one item) it runs work on the
// calling goroutine. work claims its items itself.
func runWorkers(workers, n int, work func()) {
	workers = min(workers, n)
	if workers <= 1 {
		if n > 0 {
			work()
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

// runShards fans n items over min(workers, n) goroutines pulling indices
// from a shared counter, and joins them all before returning (fn handles
// cancellation itself by returning early).
func runShards(workers, n int, fn func(i int)) {
	var next atomic.Int64
	runWorkers(workers, n, func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	})
}

// AvgErrors returns the mean absolute relative error (percent) of the
// FlexCL model and of the baseline (over the points the baseline
// supported) against the ground truth.
func (r *Result) AvgErrors() (flexcl, sdaccel float64) {
	var fsum, fn, ssum, sn float64
	for _, pt := range r.Points {
		if pt.Actual <= 0 {
			continue
		}
		fsum += rtlsim.ErrorVs(pt.Est, pt.Actual)
		fn++
		if pt.Baseline > 0 {
			ssum += rtlsim.ErrorVs(pt.Baseline, pt.Actual)
			sn++
		}
	}
	if fn > 0 {
		flexcl = fsum / fn
	}
	if sn > 0 {
		sdaccel = ssum / sn
	}
	return flexcl, sdaccel
}

// BestByModel returns the design the FlexCL model ranks fastest. ok is
// false when the result holds no points at all (for example when
// PruneInfeasible dropped the entire space).
func (r *Result) BestByModel() (best Point, ok bool) {
	for i, pt := range r.Points {
		if i == 0 || pt.Est < best.Est {
			best = pt
		}
	}
	return best, len(r.Points) > 0
}

// BestActual returns the true optimum among the measured points. ok is
// false when no point has a ground-truth measurement (model-only
// explorations, or an empty result).
func (r *Result) BestActual() (best Point, ok bool) {
	for _, pt := range r.Points {
		if pt.Actual <= 0 {
			continue
		}
		if !ok || pt.Actual < best.Actual {
			best, ok = pt, true
		}
	}
	return best, ok
}

// ActualOf looks up the measured cycles of a design.
func (r *Result) ActualOf(d model.Design) float64 {
	for _, pt := range r.Points {
		if pt.Design == d {
			return pt.Actual
		}
	}
	return 0
}

// GapToOptimum returns how far (percent) the model-selected design is
// from the true optimum, by actual performance (§4.3: 2.1 % average).
// ok is false when the gap is unmeasurable — no points, no ground-truth
// measurements, or the model-selected design itself was never simulated
// — so partial-simulation runs cannot masquerade as "0 % from optimum".
func (r *Result) GapToOptimum() (gap float64, ok bool) {
	best, ok := r.BestByModel()
	if !ok {
		return 0, false
	}
	optPt, ok := r.BestActual()
	if !ok {
		return 0, false
	}
	sel := r.ActualOf(best.Design)
	opt := optPt.Actual
	if opt <= 0 || sel <= 0 {
		return 0, false
	}
	return (sel - opt) / opt * 100, true
}

// BaselineDesign is the unoptimized reference configuration (§4.3's
// "baseline unoptimized design"): smallest work-group, no pipelining,
// single PE and CU, barrier mode. ok is false when the kernel's
// work-group sweep is empty, leaving no work-group size to anchor the
// baseline to.
func BaselineDesign(k *bench.Kernel) (model.Design, bool) {
	wgs := k.WGSizes()
	if len(wgs) == 0 {
		return model.Design{}, false
	}
	return model.Design{
		WGSize: wgs[0], WIPipeline: false, PE: 1, CU: 1,
		Mode: model.ModeBarrier,
	}, true
}

// SpeedupOverBaseline returns actual(baseline)/actual(selected). ok is
// false when either side lacks a ground-truth measurement (or the
// baseline design does not exist), so partial-simulation runs report
// "unknown" instead of an ideal 1×.
func (r *Result) SpeedupOverBaseline() (speedup float64, ok bool) {
	best, ok := r.BestByModel()
	if !ok || r.Kernel == nil {
		return 0, false
	}
	bd, ok := BaselineDesign(r.Kernel)
	if !ok {
		return 0, false
	}
	base := r.ActualOf(bd)
	sel := r.ActualOf(best.Design)
	if base <= 0 || sel <= 0 {
		return 0, false
	}
	return base / sel, true
}

// HeuristicSearch reproduces the step-by-step search of [16]: starting
// from the unoptimized design, optimize one parameter at a time with the
// coarse model, assuming independence between optimizations. Returns the
// chosen design and the number of coarse-model evaluations. ok is false
// when there is nothing to search — an empty work-group sweep or no
// analyses to score against — matching BaselineDesign's sentinel instead
// of handing back a zero Design that callers could mistake for a choice.
func HeuristicSearch(k *bench.Kernel, analyses map[int64]*model.Analysis) (_ model.Design, evals int, ok bool) {
	cur, ok := BaselineDesign(k)
	if !ok || len(analyses) == 0 {
		return model.Design{}, 0, false
	}
	score := func(d model.Design) float64 {
		evals++
		return baseline.Coarse(analyses[d.WGSize], d)
	}
	// 1. Work-group size.
	bestS := score(cur)
	for _, wg := range k.WGSizes() {
		d := cur
		d.WGSize = wg
		if s := score(d); s < bestS {
			bestS, cur = s, d
		}
	}
	// 2. Pipelining.
	for _, pipe := range []bool{false, true} {
		d := cur
		d.WIPipeline = pipe
		if !pipe && d.PE > 1 {
			continue
		}
		if s := score(d); s < bestS {
			bestS, cur = s, d
		}
	}
	// 3. PE parallelism (requires pipelining in the flow).
	for pe := 1; pe <= 16; pe *= 2 {
		d := cur
		d.PE = pe
		if pe > 1 {
			d.WIPipeline = true
		}
		if s := score(d); s < bestS {
			bestS, cur = s, d
		}
	}
	// 4. CU count.
	for cu := 1; cu <= 4; cu *= 2 {
		d := cur
		d.CU = cu
		if s := score(d); s < bestS {
			bestS, cur = s, d
		}
	}
	// 5. Communication mode.
	for _, m := range []model.CommMode{model.ModeBarrier, model.ModePipeline} {
		d := cur
		d.Mode = m
		if s := score(d); s < bestS {
			bestS, cur = s, d
		}
	}
	return cur, evals, true
}

// NearOptimal reports whether design d's actual performance is within
// tol percent of the optimum in r.
func (r *Result) NearOptimal(d model.Design, tol float64) bool {
	optPt, ok := r.BestActual()
	if !ok {
		return false
	}
	opt := optPt.Actual
	act := r.ActualOf(d)
	if opt <= 0 || act <= 0 {
		return false
	}
	return (act-opt)/opt*100 <= tol
}

// SortedByActual returns the points ordered fastest-first by measured
// cycles (unmeasured points last).
func (r *Result) SortedByActual() []Point {
	pts := append([]Point(nil), r.Points...)
	sort.SliceStable(pts, func(i, j int) bool {
		ai, aj := pts[i].Actual, pts[j].Actual
		if ai <= 0 {
			return false
		}
		if aj <= 0 {
			return true
		}
		return ai < aj
	})
	return pts
}
