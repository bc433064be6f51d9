package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/dse"
	"repro/internal/model"
)

// coldPass is one pass of guided searches over the draw. Each kernel
// gets a fresh prep cache; all caches of a pass share one artifact
// store, as one flexcl-dse process with -artifact-dir would.
type coldPass struct {
	results []*dse.SearchResult
	caches  []*dse.PrepCache
	errs    []error
	sec     []float64 // each search's wall time
}

// searchDraw runs the guided search of every kernel with a fresh prep
// cache over store. workers is dse.SearchOptions.Workers (0 = default).
func searchDraw(r *run, d draw, store *artifact.Store, workers int) *coldPass {
	cp := &coldPass{
		results: make([]*dse.SearchResult, len(d.kernels)),
		caches:  make([]*dse.PrepCache, len(d.kernels)),
		errs:    make([]error, len(d.kernels)),
		sec:     make([]float64, len(d.kernels)),
	}
	for i, k := range d.kernels {
		t0 := time.Now()
		c := dse.NewPrepCacheOpts(dse.PrepCacheOptions{Store: store})
		cp.results[i], cp.errs[i] = dse.Search(context.Background(), k, dse.SearchOptions{Platform: r.p, Workers: workers, Cache: c})
		c.Flush()
		cp.sec[i] = time.Since(t0).Seconds()
		cp.caches[i] = c
	}
	return cp
}

func openStore(dir string) (*artifact.Store, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	return artifact.Open(dir)
}

// checkCold checks one pass of guided searches: bundled kernels predict
// the golden grid from the analyses the searches prepared; generated
// kernels' guided best equals an exhaustive sweep's best. ref, when
// non-nil, is an already checked pass the results must equal exactly.
func (r *run) checkCold(d draw, cp *coldPass, gold map[string]golden, ref *coldPass) {
	for i, k := range d.kernels {
		op := "search " + k.ID()
		if cp.errs[i] != nil {
			r.fail(op, "%v", cp.errs[i])
			continue
		}
		res := cp.results[i]
		if ref != nil {
			r.check(sameSearch(res, ref.results[i]), op, "best %v/%v or evaluated set differs from the checked pass",
				res.Best.Design, res.Best.Est)
			continue
		}
		r.check(res.BestOK, op, "no best design")
		if !generated(k) {
			r.checkGolden(gold, op, k, func(dd model.Design) (float64, bool) {
				an, err := cp.caches[i].Analysis(k, r.p, dd.WGSize)
				if err != nil {
					return 0, false
				}
				return an.Predict(dd).Cycles, true
			})
			continue
		}
		ex, err := dse.Explore(context.Background(), k, dse.Options{Platform: r.p, SkipActual: true, SkipBaseline: true, Cache: cp.caches[i]})
		if err != nil {
			r.fail(op, "exhaustive sweep: %v", err)
			continue
		}
		best, ok := ex.BestByModel()
		r.check(ok && best.Design == res.Best.Design && best.Est == res.Best.Est, op,
			"guided best %v (%v) != exhaustive best %v (%v)", res.Best.Design, res.Best.Est, best.Design, best.Est)
	}
}

// sameSearch reports whether two searches agree exactly: best design,
// its estimate, and the evaluated set with every estimate.
func sameSearch(a, b *dse.SearchResult) bool {
	if a == nil || b == nil || a.Best != b.Best || a.Evaluated != b.Evaluated || a.Pruned != b.Pruned {
		return false
	}
	return slices.Equal(a.Points, b.Points)
}

// bestSamples is the accuracy sample of the guided-search workloads:
// each bundled kernel's best design, the one a user of the search would
// build. The generated kernels are left out of every accuracy sample:
// they change with the seed, and their errors alone moved the mean
// error by ~13 % between seeds.
func bestSamples(d draw, cp *coldPass, r *run) []sample {
	var out []sample
	for i, k := range d.kernels {
		res := cp.results[i]
		if generated(k) || cp.errs[i] != nil || !res.BestOK {
			continue
		}
		an, err := cp.caches[i].Analysis(k, r.p, res.Best.Design.WGSize)
		if err != nil {
			r.fail("accuracy "+k.ID(), "%v", err)
			continue
		}
		out = append(out, sample{k: k, an: an, d: res.Best.Design, est: res.Best.Est})
	}
	return out
}

// dseCold: guided search of every kernel in the draw with every prep a
// miss. Set-up builds the draw and runs one warm-up search of a kernel
// outside it.
func dseCold(r *run) error {
	var d draw
	err := r.timeSetup(func() error {
		d = makeDraw(r.seed, r.maxKernels)
		st, err := openStore(filepath.Join(r.workdir, "warm"))
		if err != nil {
			return err
		}
		_, err = dse.Search(context.Background(), d.warm, dse.SearchOptions{
			Platform: r.p, Cache: dse.NewPrepCacheOpts(dse.PrepCacheOptions{Store: st})})
		return err
	}, nil)
	if err != nil {
		return err
	}
	gold, err := loadGolden()
	if err != nil {
		return err
	}
	if r.trace {
		return dseColdTraced(r, d, gold)
	}
	var ps passStats
	var ref *coldPass
	var samples []sample
	for pass := 0; r.more(ps.measured(), pass); pass++ {
		st, err := openStore(filepath.Join(r.workdir, fmt.Sprintf("pass-%d", pass)))
		if err != nil {
			return err
		}
		var cp *coldPass
		ps.measure(func() any {
			cp = searchDraw(r, d, st, 0)
			return cp
		})
		ps.opSec = append(ps.opSec, cp.sec)
		r.op(len(d.kernels))
		r.checkCold(d, cp, gold, ref)
		if ref == nil {
			// Later passes compare against this one's results; its caches
			// are dropped so every pass measures the same live heap.
			samples = bestSamples(d, cp, r)
			ref = &coldPass{results: cp.results, errs: cp.errs}
		}
		if err := os.RemoveAll(st.Dir()); err != nil {
			return err
		}
	}
	ps.reportBatch(r)
	r.accuracy(nil, samples)
	return nil
}

// dseColdTraced is dse-cold's traced run. The timed path's searches are
// the reference the traced ops are checked against; then paired passes
// run each kernel's traced op untraced and traced. A traced op prepares
// each WG size through the layer calls themselves (irgen, interp,
// trace, device, dram, artifact save) and searches on the result.
func dseColdTraced(r *run, d draw, gold map[string]golden) error {
	st, err := openStore(filepath.Join(r.workdir, "timed"))
	if err != nil {
		return err
	}
	ref := searchDraw(r, d, st, 0)
	r.op(len(d.kernels))
	r.checkCold(d, ref, gold, nil)
	reportSearch(r, d, ref)
	reportDistinct(r, r.analyses(d, ref.caches))
	stores := map[bool]*artifact.Store{}
	for _, traced := range []bool{false, true} {
		if stores[traced], err = openStore(filepath.Join(r.workdir, fmt.Sprint("traced-", traced))); err != nil {
			return err
		}
	}
	ops := make([]searchedOp, len(d.kernels))
	r.pairs(len(d.kernels), func(t *tracer, i int) time.Duration {
		k := d.kernels[i]
		op := searchOp(r, t, i, k, stores[t != nil])
		r.checkOp(k, op, ref.results[i])
		if t != nil {
			ops[i] = op
		}
		return op.took
	}, func(t *tracer) {
		r.checkAssembled(d, ops, ref)
		r.accuracy(t, bestSamples(d, ref, r))
		reportLayers(r, t)
	})
	return nil
}

// searchedOp is what one run of dse-cold's traced op returned.
type searchedOp struct {
	ans  map[int64]*model.Analysis // per WG size, from the layer calls
	res  *dse.SearchResult
	err  error
	took time.Duration // the op's two segments; the untimed restore left out
}

// searchOp is dse-cold's traced op. Its first segment prepares each WG
// size through the layer calls (tracedPrep) and saves the analysis to
// store. An untimed step then restores those preps from store into a
// fresh prep cache, and the second segment runs dse.Search on that warm
// cache, so the dse span holds the search alone. With a nil tracer the
// same calls run without spans or counts.
func searchOp(r *run, t *tracer, id int, k *bench.Kernel, store *artifact.Store) searchedOp {
	op := searchedOp{ans: map[int64]*model.Analysis{}}
	t0 := time.Now()
	t.beginOp(id)
	for _, wg := range k.WGSizes() {
		f0 := time.Now()
		an, err := tracedPrep(t, r.p, k, wg)
		if err == nil {
			err = tracedSave(t, store, artifactKey(k, r.p, wg), an, time.Since(f0))
		}
		if err != nil {
			op.err = err
			break
		}
		op.ans[wg] = an
	}
	t.endOp()
	op.took = time.Since(t0)
	if op.err != nil {
		return op
	}
	c := dse.NewPrepCacheOpts(dse.PrepCacheOptions{Store: store})
	for wg := range op.ans {
		if _, err := c.Analysis(k, r.p, wg); err != nil {
			op.err = fmt.Errorf("restore wg=%d: %w", wg, err)
			return op
		}
	}
	if n := c.Stats().Computes; n != 0 {
		op.err = fmt.Errorf("restore computed %d preps", n)
		return op
	}
	t1 := time.Now()
	t.beginOp(id)
	t.call("dse", func() {
		op.res, op.err = dse.Search(context.Background(), k, dse.SearchOptions{Platform: r.p, Workers: 1, Cache: c})
	})
	t.endOp()
	op.took += time.Since(t1)
	return op
}

// checkOp checks one run of a traced DSE op: it searched without error
// and returned the timed path's result.
func (r *run) checkOp(k *bench.Kernel, op searchedOp, want *dse.SearchResult) {
	name := "traced " + k.ID()
	r.op(1)
	if op.err != nil {
		r.fail(name, "%v", op.err)
		return
	}
	r.check(sameSearch(op.res, want), name, "search differs from the timed path")
}

// pairs runs the traced run's passes. A pass runs every op i twice back
// to back, untraced (a nil tracer) and traced, the order alternating
// with i so that host noise and warmed caches fall on both halves alike;
// op returns its op time. Passes repeat until the run has measured for
// --seconds, and first gets the first pass's tracer. The medians of the
// passes' summed op times are the untraced and traced pass times and
// their difference the tracing overhead.
func (r *run) pairs(n int, op func(t *tracer, i int) time.Duration, first func(t *tracer)) {
	var untraced, traced []float64
	started := time.Now()
	for pass := 0; r.more(time.Since(started).Seconds(), pass); pass++ {
		t := newTracer()
		var u, tr time.Duration
		for i := 0; i < n; i++ {
			runTraced := func() {
				w := startGC()
				tr += op(t, i)
				w.stop(&t.gc)
			}
			if i%2 == 0 {
				u += op(nil, i)
				runTraced()
			} else {
				runTraced()
				u += op(nil, i)
			}
		}
		untraced = append(untraced, u.Seconds())
		traced = append(traced, tr.Seconds())
		if pass == 0 {
			first(t)
		}
	}
	reportTracing(r, untraced, traced)
}

// analyses lists every prep of the draw from the timed path's caches.
func (r *run) analyses(d draw, caches []*dse.PrepCache) []*model.Analysis {
	var out []*model.Analysis
	for i, k := range d.kernels {
		for _, wg := range k.WGSizes() {
			if an, err := caches[i].Analysis(k, r.p, wg); err == nil {
				out = append(out, an)
			}
		}
	}
	return out
}

// checkAssembled checks that every analysis the traced ops assembled
// from layer calls predicts bit-identically to the timed path's
// analysis, at the golden grid and at every design the timed search
// evaluated.
func (r *run) checkAssembled(d draw, ops []searchedOp, ref *coldPass) {
	for i, k := range d.kernels {
		op := "assembled " + k.ID()
		if ref.errs[i] != nil {
			continue
		}
		designs := ref.results[i].EvaluatedDesigns()
		for _, wg := range k.WGSizes() {
			designs = append(designs, goldenDesigns(wg)...)
		}
		for _, dd := range designs {
			mine, ok := ops[i].ans[dd.WGSize]
			if !ok {
				r.fail(op, "wg %d not assembled", dd.WGSize)
				break
			}
			timed, err := ref.caches[i].Analysis(k, r.p, dd.WGSize)
			if err != nil {
				r.fail(op, "%v", err)
				break
			}
			if got, want := mine.Predict(dd).Cycles, timed.Predict(dd).Cycles; got != want {
				r.fail(op, "%v predicts %v, timed path %v", dd, got, want)
				break
			}
		}
	}
}

// reportSearch sets the dse.* counts of one pass of searches.
func reportSearch(r *run, d draw, cp *coldPass) {
	var evaluated, pruned, space int
	var st dse.CacheStats
	for i := range d.kernels {
		if res := cp.results[i]; res != nil {
			evaluated += res.Evaluated
			pruned += res.Pruned
			space += res.Space
		}
		s := cp.caches[i].Stats()
		st.Computes += s.Computes
		st.Coalesced += s.Coalesced
	}
	r.set("dse.evaluated", "count", float64(evaluated))
	r.set("dse.pruned", "count", float64(pruned))
	if space > 0 {
		r.set("dse.eval_ratio", "ratio", float64(evaluated)/float64(space))
	}
	r.set("dse.prep_computes", "count", float64(st.Computes))
	r.set("dse.prep_coalesced", "count", float64(st.Coalesced))
}

// reportTracing sets the untraced and traced pass times of the traced
// run's paired passes and their difference, the tracing overhead.
func reportTracing(r *run, untraced, traced []float64) {
	u, t := median(untraced), median(traced)
	r.set("tracing.untraced_pass_s", "s", u)
	r.set("tracing.pass_s", "s", t)
	r.set("tracing.overhead_s", "s", t-u)
}

// sweepWarm: exhaustive model-only exploration of the draw with every
// prep filled during set-up.
func sweepWarm(r *run) error {
	var d draw
	var cache *dse.PrepCache
	err := r.timeSetup(func() error {
		d = makeDraw(r.seed, r.maxKernels)
		cache = dse.NewPrepCache()
		return fillPrep(r, d, cache)
	}, nil)
	if err != nil {
		return err
	}
	gold, err := loadGolden()
	if err != nil {
		return err
	}
	if r.trace {
		return sweepTraced(r, d, cache, gold)
	}
	var ps passStats
	var ref []uint64
	var samples []sample
	for pass := 0; r.more(ps.measured(), pass); pass++ {
		var res []*dse.Result
		var errs []error
		var sec []float64
		ps.measure(func() any {
			res, errs, sec = sweepDraw(r, d, cache, 0)
			return cache
		})
		ps.opSec = append(ps.opSec, sec)
		r.op(len(d.kernels))
		r.checkSweep(d, cache, res, errs, gold, ref)
		if ref == nil {
			// Later passes compare against digests of this one, so no
			// pass keeps another's points alive while its heap is measured.
			samples = sweepSamples(d, cache, res, r)
			ref = digests(res)
		}
	}
	ps.reportBatch(r)
	r.accuracy(nil, samples)
	return nil
}

// fillPrep prepares every (kernel, WG size) of the draw, sharded over
// GOMAXPROCS goroutines as dse.Explore shards its own preparation.
func fillPrep(r *run, d draw, cache *dse.PrepCache) error {
	type job struct {
		k  *bench.Kernel
		wg int64
	}
	jobs := make(chan job)
	errs := make(chan error, runtime.GOMAXPROCS(0))
	for w := 0; w < cap(errs); w++ {
		go func() {
			var first error
			for j := range jobs {
				if _, err := cache.Analysis(j.k, r.p, j.wg); err != nil && first == nil {
					first = err
				}
			}
			errs <- first
		}()
	}
	for _, k := range d.kernels {
		for _, wg := range k.WGSizes() {
			jobs <- job{k, wg}
		}
	}
	close(jobs)
	var first error
	for w := 0; w < cap(errs); w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// sweepDraw runs the exhaustive model-only exploration (flexcl-dse
// -search exhaustive) of every kernel on the warm cache.
func sweepDraw(r *run, d draw, cache *dse.PrepCache, workers int) ([]*dse.Result, []error, []float64) {
	res := make([]*dse.Result, len(d.kernels))
	errs := make([]error, len(d.kernels))
	sec := make([]float64, len(d.kernels))
	for i, k := range d.kernels {
		t0 := time.Now()
		res[i], errs[i] = dse.Explore(context.Background(), k, dse.Options{
			Platform: r.p, SkipActual: true, SkipBaseline: true, Workers: workers, Cache: cache})
		sec[i] = time.Since(t0).Seconds()
	}
	return res, errs, sec
}

// digest hashes a sweep's points (designs and exact estimates).
func digest(res *dse.Result) uint64 {
	if res == nil {
		return 0
	}
	h := fnv.New64a()
	for _, pt := range res.Points {
		fmt.Fprintf(h, "%v %x|", pt.Design, math.Float64bits(pt.Est))
	}
	return h.Sum64()
}

func digests(res []*dse.Result) []uint64 {
	out := make([]uint64, len(res))
	for i := range res {
		out[i] = digest(res[i])
	}
	return out
}

// checkSweep checks one sweep pass: every bundled kernel's swept
// estimates at the golden grid equal the pinned values; every
// generated kernel's sweep best equals the guided search's best. ref,
// when non-nil, holds the digests of a checked pass the points must
// equal exactly.
func (r *run) checkSweep(d draw, cache *dse.PrepCache, res []*dse.Result, errs []error, gold map[string]golden, ref []uint64) {
	for i, k := range d.kernels {
		op := "sweep " + k.ID()
		if errs[i] != nil {
			r.fail(op, "%v", errs[i])
			continue
		}
		if ref != nil {
			r.check(digest(res[i]) == ref[i], op, "points differ from the checked pass")
			continue
		}
		if !generated(k) {
			est := make(map[model.Design]float64, len(res[i].Points))
			for _, pt := range res[i].Points {
				est[pt.Design] = pt.Est
			}
			r.checkGolden(gold, op, k, func(dd model.Design) (float64, bool) {
				if v, ok := est[dd]; ok {
					return v, true
				}
				an, err := cache.Analysis(k, r.p, dd.WGSize)
				if err != nil {
					return 0, false
				}
				return an.Predict(dd).Cycles, true
			})
			continue
		}
		sr, err := dse.Search(context.Background(), k, dse.SearchOptions{Platform: r.p, Cache: cache})
		best, ok := res[i].BestByModel()
		r.check(err == nil && ok && sr.Best.Design == best.Design && sr.Best.Est == best.Est, op,
			"exhaustive best %v (%v) != guided best %v (err %v)", best.Design, best.Est, sr.Best.Design, err)
	}
}

// sweepSamples is sweep-warm's accuracy sample: one swept point per
// bundled kernel, chosen by pick (the same designs serve-mix's hot keys
// use, so the two workloads report the same errors).
func sweepSamples(d draw, cache *dse.PrepCache, res []*dse.Result, r *run) []sample {
	var out []sample
	for i, k := range d.kernels {
		if generated(k) || res[i] == nil || len(res[i].Points) == 0 {
			continue
		}
		pt := res[i].Points[pick(k, 0, len(res[i].Points))]
		an, err := cache.Analysis(k, r.p, pt.Design.WGSize)
		if err != nil {
			r.fail("accuracy "+k.ID(), "%v", err)
			continue
		}
		out = append(out, sample{k: k, an: an, d: pt.Design, est: pt.Est})
	}
	return out
}

// sweepTraced is sweep-warm's traced run: the timed sweep is the
// reference, then paired passes run each kernel's sweepOp untraced and
// traced.
func sweepTraced(r *run, d draw, cache *dse.PrepCache, gold map[string]golden) error {
	ref, errs, _ := sweepDraw(r, d, cache, 0)
	r.op(len(d.kernels))
	r.checkSweep(d, cache, ref, errs, gold, nil)
	caches := make([]*dse.PrepCache, len(d.kernels))
	for i := range caches {
		caches[i] = cache
	}
	reportDistinct(r, r.analyses(d, caches))
	var space int
	for _, res := range ref {
		if res != nil {
			space += len(res.Points)
		}
	}
	r.set("dse.evaluated", "count", float64(space))
	r.set("dse.eval_ratio", "ratio", 1)
	r.pairs(len(d.kernels), func(t *tracer, i int) time.Duration {
		k := d.kernels[i]
		t0 := time.Now()
		est := sweepOp(r, t, i, k, cache)
		took := time.Since(t0)
		r.op(1)
		if errs[i] == nil {
			ok := len(est) == len(ref[i].Points)
			for _, pt := range ref[i].Points {
				ok = ok && est[pt.Design] == pt.Est
			}
			r.check(ok, "traced "+k.ID(), "traced predictions differ from the timed sweep")
		}
		return took
	}, func(t *tracer) {
		r.accuracy(t, sweepSamples(d, cache, ref, r))
		reportLayers(r, t)
	})
	return nil
}

// sweepOp is sweep-warm's traced op: enumerate the kernel's space and
// look up its warm analyses (dse), then predict every design, each
// prediction in its own model span. It returns the estimates by design.
func sweepOp(r *run, t *tracer, id int, k *bench.Kernel, cache *dse.PrepCache) map[model.Design]float64 {
	t.beginOp(id)
	defer t.endOp()
	var designs []model.Design
	ans := map[int64]*model.Analysis{}
	t.call("dse", func() {
		designs = dse.Space(k, r.p)
		for _, wg := range k.WGSizes() {
			if an, err := cache.Analysis(k, r.p, wg); err == nil {
				ans[wg] = an
			}
		}
	})
	est := make(map[model.Design]float64, len(designs))
	t.allocs("model", func() {
		for _, dd := range designs {
			an := ans[dd.WGSize]
			if an == nil {
				continue
			}
			var e *model.Estimate
			t.call("model", func() { e = an.Predict(dd) })
			est[dd] = e.Cycles
		}
	})
	return est
}
