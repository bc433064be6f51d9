package dse_test

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/model"
)

func explore(t *testing.T, benchName, kernel string, opts dse.Options) *dse.Result {
	t.Helper()
	k := bench.Find(benchName, kernel)
	if k == nil {
		t.Fatalf("kernel %s/%s missing", benchName, kernel)
	}
	if opts.SimMaxGroups == 0 {
		opts.SimMaxGroups = 4
	}
	r, err := dse.Explore(context.Background(), k, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSpaceSize(t *testing.T) {
	k := bench.Find("nn", "nn")
	designs := dse.Space(k, device.Virtex7())
	// Table 2 reports 120–180 designs per kernel.
	if len(designs) < 100 || len(designs) > 200 {
		t.Errorf("design space = %d points, want 100–200", len(designs))
	}
}

func TestExploreModelOnlyIsFast(t *testing.T) {
	r := explore(t, "nn", "nn", dse.Options{SkipActual: true, SkipBaseline: true})
	if len(r.Points) == 0 {
		t.Fatal("no points")
	}
	for _, pt := range r.Points {
		if pt.Est <= 0 {
			t.Fatalf("non-positive estimate for %v", pt.Design)
		}
		if pt.Actual != 0 {
			t.Fatal("SkipActual ignored")
		}
	}
	if r.SimTime != 0 {
		t.Error("sim time recorded despite SkipActual")
	}
}

func TestExploreWithGroundTruth(t *testing.T) {
	r := explore(t, "nn", "nn", dse.Options{})
	fe, se := r.AvgErrors()
	if fe <= 0 || fe > 30 {
		t.Errorf("FlexCL avg error = %.1f%%, want (0, 30]", fe)
	}
	if se <= fe {
		t.Errorf("SDAccel error (%.1f%%) should exceed FlexCL error (%.1f%%)", se, fe)
	}
	if r.BaselineFailures == 0 {
		t.Error("baseline never failed; §4.2 observes ~42% failures")
	}
	if r.BaselineFailures >= len(r.Points) {
		t.Error("baseline always failed")
	}
	if r.ModelTime >= r.SimTime {
		t.Errorf("model (%v) not faster than simulation (%v)", r.ModelTime, r.SimTime)
	}
}

func TestSelectionNearOptimal(t *testing.T) {
	r := explore(t, "kmeans", "swap", dse.Options{SkipBaseline: true})
	gap, ok := r.GapToOptimum()
	if !ok {
		t.Fatal("GapToOptimum not measurable on a fully simulated exploration")
	}
	if gap > 25 {
		t.Errorf("model-selected design %.1f%% from optimum", gap)
	}
	sp, ok := r.SpeedupOverBaseline()
	if !ok {
		t.Fatal("SpeedupOverBaseline not measurable on a fully simulated exploration")
	}
	if sp < 1 {
		t.Errorf("selected design slower than unoptimized baseline (%.2fx)", sp)
	}
}

func TestHeuristicSearchFindsSomething(t *testing.T) {
	k := bench.Find("gemm", "gemm")
	analyses := map[int64]*model.Analysis{}
	p := device.Virtex7()
	for _, wg := range k.WGSizes() {
		f, err := k.Compile(wg)
		if err != nil {
			t.Fatal(err)
		}
		an, err := model.Analyze(context.Background(), f, p, k.Config(wg))
		if err != nil {
			t.Fatal(err)
		}
		analyses[wg] = an
	}
	d, evals, ok := dse.HeuristicSearch(k, analyses)
	if !ok || evals == 0 {
		t.Fatalf("no evaluations (ok=%v)", ok)
	}
	// Exhaustive search evaluates the full space; the heuristic must be
	// far cheaper.
	if evals >= len(dse.Space(k, p)) {
		t.Errorf("heuristic used %d evals, not fewer than exhaustive %d",
			evals, len(dse.Space(k, p)))
	}
	if d.WGSize == 0 || d.PE == 0 || d.CU == 0 {
		t.Errorf("degenerate design chosen: %v", d)
	}
}

func TestBaselineDesign(t *testing.T) {
	k := bench.Find("nn", "nn")
	d, ok := dse.BaselineDesign(k)
	if !ok {
		t.Fatal("BaselineDesign not ok for a kernel with a WG sweep")
	}
	if d.WIPipeline || d.PE != 1 || d.CU != 1 || d.Mode != model.ModeBarrier {
		t.Errorf("baseline design not unoptimized: %v", d)
	}
}

func TestBaselineDesignEmptySweep(t *testing.T) {
	// MinWG above MaxWG leaves the power-of-two sweep empty; the old
	// implementation panicked on WGSizes()[0].
	k := &bench.Kernel{Bench: "synthetic", Name: "empty", MinWG: 512, MaxWG: 256}
	if len(k.WGSizes()) != 0 {
		t.Fatalf("fixture sweep not empty: %v", k.WGSizes())
	}
	if d, ok := dse.BaselineDesign(k); ok {
		t.Errorf("BaselineDesign ok on an empty sweep: %v", d)
	}
	if d, evals, ok := dse.HeuristicSearch(k, nil); ok || evals != 0 || d != (model.Design{}) {
		t.Errorf("HeuristicSearch on an empty sweep = %v, %d evals, ok=%v", d, evals, ok)
	}
}

func TestSortedByActual(t *testing.T) {
	r := explore(t, "nn", "nn", dse.Options{SkipBaseline: true})
	pts := r.SortedByActual()
	for i := 1; i < len(pts); i++ {
		if pts[i-1].Actual > 0 && pts[i].Actual > 0 && pts[i-1].Actual > pts[i].Actual {
			t.Fatal("not sorted by actual cycles")
		}
	}
	best, ok := r.BestActual()
	if !ok {
		t.Fatal("no measured points")
	}
	if pts[0].Design != best.Design {
		t.Error("first sorted point is not the actual best")
	}
}

func TestNearOptimalPredicate(t *testing.T) {
	r := explore(t, "nn", "nn", dse.Options{SkipBaseline: true})
	best, ok := r.BestActual()
	if !ok {
		t.Fatal("no measured points")
	}
	if !r.NearOptimal(best.Design, 0.1) {
		t.Error("the optimum itself is not near-optimal")
	}
	worst := r.SortedByActual()[len(r.Points)-1]
	if worst.Actual > best.Actual*2 && r.NearOptimal(worst.Design, 1.0) {
		t.Error("a 2x-slower design classified as near-optimal")
	}
}

func TestPruneInfeasible(t *testing.T) {
	// On a part with almost no DSPs, high-PE designs of a multiply-heavy
	// kernel cannot be placed and must be pruned.
	tiny := device.Virtex7()
	tiny.DSPTotal = 64
	k := bench.Find("kmeans", "center")
	full, err := dse.Explore(context.Background(), k, dse.Options{
		Platform: tiny, SkipActual: true, SkipBaseline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := dse.Explore(context.Background(), k, dse.Options{
		Platform: tiny, SkipActual: true, SkipBaseline: true,
		PruneInfeasible: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned.Points) >= len(full.Points) {
		t.Errorf("pruning removed nothing: %d vs %d points",
			len(pruned.Points), len(full.Points))
	}
	if len(pruned.Points) == 0 {
		t.Error("pruning removed everything")
	}
}

// TestExploreOneLookupPerWGSize pins the sweep's prep-cache traffic: the
// design phase reads the entries the prep phase returned, so an
// exhaustive Explore makes one lookup per WG size, not one per design
// point, and a capacity too small to hold every WG size cannot make a
// design point recompute an evicted entry.
func TestExploreOneLookupPerWGSize(t *testing.T) {
	k := bench.Find("hotspot", "hotspot")
	wgs := uint64(len(k.WGSizes()))
	for _, capacity := range []int{0, 1} {
		cache := dse.NewPrepCacheOpts(dse.PrepCacheOptions{Capacity: capacity})
		r, err := dse.Explore(context.Background(), k, dse.Options{
			SkipActual: true, SkipBaseline: true, Cache: cache,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Points) <= len(k.WGSizes()) {
			t.Fatalf("capacity %d: %d points, want a full sweep", capacity, len(r.Points))
		}
		st := cache.Stats()
		if got := st.Hits + st.Misses; got != wgs {
			t.Errorf("capacity %d: %d prep lookups (%d hits, %d misses), want %d, one per WG size",
				capacity, got, st.Hits, st.Misses, wgs)
		}
		if st.Computes != wgs {
			t.Errorf("capacity %d: %d computes, want %d", capacity, st.Computes, wgs)
		}
	}
}
