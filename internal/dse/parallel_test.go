package dse_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/dse"
)

// TestExploreDeterministic is the contract that makes the parallel
// engine safe to adopt: Workers: 1 and Workers: 8 must produce
// byte-identical Points slices (same order, same Est/Baseline/Actual)
// on real Rodinia kernels, with full baseline + ground-truth evaluation.
func TestExploreDeterministic(t *testing.T) {
	for _, id := range [][2]string{{"nn", "nn"}, {"kmeans", "swap"}} {
		k := bench.Find(id[0], id[1])
		if k == nil {
			t.Fatalf("kernel %s/%s missing", id[0], id[1])
		}
		serial, err := dse.Explore(context.Background(), k, dse.Options{SimMaxGroups: 2, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := dse.Explore(context.Background(), k, dse.Options{SimMaxGroups: 2, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if len(serial.Points) == 0 {
			t.Fatalf("%s: no points", k.ID())
		}
		if !reflect.DeepEqual(serial.Points, parallel.Points) {
			for i := range serial.Points {
				if serial.Points[i] != parallel.Points[i] {
					t.Fatalf("%s: point %d diverges: serial %+v parallel %+v",
						k.ID(), i, serial.Points[i], parallel.Points[i])
				}
			}
			t.Fatalf("%s: Points slices differ", k.ID())
		}
		if serial.BaselineFailures != parallel.BaselineFailures {
			t.Errorf("%s: baseline failures %d (serial) vs %d (parallel)",
				k.ID(), serial.BaselineFailures, parallel.BaselineFailures)
		}
	}
}

// TestExplorePruneAllIsSafe: when pruning drops every design (a part
// with no DSPs for a multiply-heavy kernel), Explore must return an
// empty result and the Best* accessors must report !ok instead of
// panicking.
func TestExplorePruneAllIsSafe(t *testing.T) {
	dspless := device.Virtex7()
	dspless.DSPTotal = 0
	k := bench.Find("kmeans", "center")
	r, err := dse.Explore(context.Background(), k, dse.Options{
		Platform: dspless, SkipActual: true, SkipBaseline: true,
		PruneInfeasible: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 0 {
		t.Fatalf("expected all %d points pruned on a DSP-less part", len(r.Points))
	}
	if _, ok := r.BestByModel(); ok {
		t.Error("BestByModel ok on empty result")
	}
	if _, ok := r.BestActual(); ok {
		t.Error("BestActual ok on empty result")
	}
	if gap, ok := r.GapToOptimum(); ok {
		t.Errorf("GapToOptimum measurable on empty result (= %v)", gap)
	}
	if sp, ok := r.SpeedupOverBaseline(); ok {
		t.Errorf("SpeedupOverBaseline measurable on empty result (= %v)", sp)
	}
	bd, ok := dse.BaselineDesign(k)
	if !ok {
		t.Fatal("BaselineDesign not ok")
	}
	if r.NearOptimal(bd, 100) {
		t.Error("NearOptimal true on empty result")
	}
}

// TestBestActualModelOnly: a model-only exploration has points but no
// measurements; BestActual must report !ok, BestByModel must still work.
func TestBestActualModelOnly(t *testing.T) {
	r := explore(t, "nn", "nn", dse.Options{SkipActual: true, SkipBaseline: true})
	if _, ok := r.BestActual(); ok {
		t.Error("BestActual ok without measured points")
	}
	best, ok := r.BestByModel()
	if !ok || best.Est <= 0 {
		t.Errorf("BestByModel = %+v, %v on a populated result", best, ok)
	}
}

// TestExploreCancel: a pre-cancelled context must abort the exploration
// with the context error and without leaking goroutines (the worker
// pool joins before Explore returns).
func TestExploreCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	k := bench.Find("nn", "nn")
	_, err := dse.Explore(ctx, k, dse.Options{SimMaxGroups: 2, Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExploreCancelledMidSweep cancels a simulated sweep on a warm
// cache, so the cancel lands after every prediction, while designs are
// still being simulated: Explore returns context.Canceled and no
// points, and leaves no goroutine behind.
func TestExploreCancelledMidSweep(t *testing.T) {
	k := bench.Find("nn", "nn")
	cache := dse.NewPrepCache()
	if _, err := dse.Explore(context.Background(), k, dse.Options{SkipActual: true, SkipBaseline: true, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	timer := time.AfterFunc(20*time.Millisecond, cancel)
	defer timer.Stop()
	t0 := time.Now()
	r, err := dse.Explore(ctx, k, dse.Options{Cache: cache, Workers: 2})
	if !errors.Is(err, context.Canceled) || r != nil {
		t.Fatalf("Explore = %v, %v after %v; want nil, context.Canceled", r, err, time.Since(t0))
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after a cancelled Explore, %d before", n, before)
	}
}

// TestPrepCacheSharing: a cache shared between two explorations prepares
// each (kernel, platform, WG size) exactly once, and the second run's
// output is identical to the first.
func TestPrepCacheSharing(t *testing.T) {
	k := bench.Find("nn", "nn")
	cache := dse.NewPrepCache()
	opts := dse.Options{SkipActual: true, SkipBaseline: true, Cache: cache, Workers: 4}
	r1, err := dse.Explore(context.Background(), k, opts)
	if err != nil {
		t.Fatal(err)
	}
	entries := cache.Len()
	if want := len(k.WGSizes()); entries != want {
		t.Errorf("cache holds %d entries after explore, want %d (one per WG size)", entries, want)
	}
	r2, err := dse.Explore(context.Background(), k, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != entries {
		t.Errorf("second explore grew the cache: %d -> %d", entries, cache.Len())
	}
	if !reflect.DeepEqual(r1.Points, r2.Points) {
		t.Error("cached re-exploration changed the Points")
	}
	an, err := cache.Analyses(k, device.Virtex7())
	if err != nil {
		t.Fatal(err)
	}
	if len(an) != len(k.WGSizes()) {
		t.Errorf("Analyses returned %d entries, want %d", len(an), len(k.WGSizes()))
	}
	if cache.Len() != entries {
		t.Errorf("Analyses recompiled cached entries: %d -> %d", entries, cache.Len())
	}
}
