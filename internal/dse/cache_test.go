package dse

// White-box regression tests for the PrepCache rework: error entries
// must never be negative-cached, completed entries are bounded by an
// LRU that never touches in-flight fills, and the artifact-store tier
// answers misses from disk with byte-identical analyses. These tests
// sit inside the package to reach testFillHook, the injection point
// for transient failures and blocked fills.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/model"
)

func cacheKernel(t *testing.T) *bench.Kernel {
	t.Helper()
	k := bench.Find("nn", "nn")
	if k == nil {
		t.Fatal("kernel nn/nn missing")
	}
	return k
}

// TestPrepCacheErrorNotCached is the regression for the negative-cache
// bug: a transient fill failure used to sit in the map forever, so
// every later request for the key replayed the stale error. Now the
// failed entry is evicted as its waiters are released and the next
// request recomputes — fail once, succeed on retry.
func TestPrepCacheErrorNotCached(t *testing.T) {
	k := cacheKernel(t)
	p := device.Virtex7()
	wg := k.WGSizes()[0]

	c := NewPrepCache()
	calls := 0
	c.testFillHook = func(*bench.Kernel, int64) error {
		calls++
		if calls == 1 {
			return errors.New("transient: interpreter OOM")
		}
		return nil
	}

	if _, err := c.Analysis(k, p, wg); err == nil {
		t.Fatal("first fill succeeded despite the injected failure")
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("failed entry still resident: Len = %d, want 0", n)
	}
	an, err := c.Analysis(k, p, wg)
	if err != nil {
		t.Fatalf("retry after transient failure: %v (the old cache returned the stale error here)", err)
	}
	if an == nil {
		t.Fatal("retry returned a nil analysis")
	}
	if st := c.Stats(); st.Computes != 2 {
		t.Errorf("Computes = %d, want 2 (failed fill + successful retry)", st.Computes)
	}
	// Third lookup is a plain hit: no recompute.
	if _, err := c.Analysis(k, p, wg); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Computes != 2 {
		t.Errorf("Computes grew to %d on a cached hit", st.Computes)
	}
}

// TestPrepCacheErrorReachesCoalescedWaiters: everyone who joined the
// failing fill gets the error (they asked while it was the truth), and
// a request arriving after the waiters drain recomputes successfully.
func TestPrepCacheErrorReachesCoalescedWaiters(t *testing.T) {
	k := cacheKernel(t)
	p := device.Virtex7()
	wg := k.WGSizes()[0]

	c := NewPrepCache()
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	failFirst := true
	c.testFillHook = func(*bench.Kernel, int64) error {
		if failFirst {
			failFirst = false
			once.Do(func() { close(entered) })
			<-release
			return errors.New("transient")
		}
		return nil
	}

	const waiters = 4
	errs := make(chan error, waiters)
	go func() {
		_, err := c.AnalysisContext(context.Background(), k, p, wg)
		errs <- err
	}()
	<-entered
	for i := 1; i < waiters; i++ {
		go func() {
			_, err := c.AnalysisContext(context.Background(), k, p, wg)
			errs <- err
		}()
	}
	// Let the extra waiters coalesce onto the blocked fill, then fail it.
	for c.Stats().Coalesced < waiters-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < waiters; i++ {
		if err := <-errs; err == nil {
			t.Fatal("a coalesced waiter got a result from the failed fill")
		}
	}
	if _, err := c.Analysis(k, p, wg); err != nil {
		t.Fatalf("fresh request after the failure: %v", err)
	}
	if st := c.Stats(); st.Computes != 2 {
		t.Errorf("Computes = %d, want 2", st.Computes)
	}
}

// TestPrepCacheCapacityEviction is the regression for the unbounded-
// growth bug: completed entries beyond Capacity are evicted in LRU
// order, counted in Stats().Evictions, and come back via recompute.
func TestPrepCacheCapacityEviction(t *testing.T) {
	k := cacheKernel(t)
	p := device.Virtex7()
	wgs := k.WGSizes()
	if len(wgs) < 3 {
		t.Fatalf("kernel %s has %d WG sizes, need 3", k.ID(), len(wgs))
	}
	c := NewPrepCacheOpts(PrepCacheOptions{Capacity: 2})
	if c.Cap() != 2 {
		t.Fatalf("Cap = %d, want 2", c.Cap())
	}
	for _, wg := range wgs[:3] {
		if _, err := c.Analysis(k, p, wg); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Len(); n != 2 {
		t.Errorf("Len = %d after filling 3 keys at capacity 2", n)
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", st.Evictions)
	}
	if st.Computes != 3 {
		t.Errorf("Computes = %d, want 3", st.Computes)
	}
	// wgs[0] was least recently used — evicted; re-requesting it
	// recomputes (and evicts wgs[1] in turn).
	if _, err := c.Analysis(k, p, wgs[0]); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.Computes != 4 {
		t.Errorf("Computes = %d after re-requesting the evicted key, want 4", st.Computes)
	}
	if st.Evictions != 2 {
		t.Errorf("Evictions = %d, want 2", st.Evictions)
	}
	// wgs[2] stayed resident through both evictions: plain hit.
	if _, err := c.Analysis(k, p, wgs[2]); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Computes; got != 4 {
		t.Errorf("Computes = %d, the MRU entry was evicted", got)
	}
}

// TestPrepCacheDefaultCapacityFitsCorpus: the default bound must be an
// order of magnitude above the corpus sweep, so no bundled workload
// ever sees an eviction (the bound exists for unbounded inline
// kernels, not for the corpus).
func TestPrepCacheDefaultCapacityFitsCorpus(t *testing.T) {
	total := 0
	for _, k := range bench.All() {
		total += len(k.WGSizes())
	}
	if total*4 > DefaultPrepCapacity {
		t.Fatalf("corpus needs %d entries; DefaultPrepCapacity %d leaves < 4x headroom",
			total, DefaultPrepCapacity)
	}
	if NewPrepCache().Cap() != DefaultPrepCapacity {
		t.Error("NewPrepCache not bounded by DefaultPrepCapacity")
	}
	if NewPrepCacheOpts(PrepCacheOptions{Capacity: -1}).Cap() >= 0 {
		t.Error("negative Capacity did not disable the bound")
	}
}

// TestPrepCacheInFlightNeverEvicted: an entry whose fill is still
// running is invisible to the LRU — evicting it would detach its
// coalesced waiters from the singleflight. Only completed entries
// compete for capacity.
func TestPrepCacheInFlightNeverEvicted(t *testing.T) {
	k := cacheKernel(t)
	p := device.Virtex7()
	wgs := k.WGSizes()
	if len(wgs) < 2 {
		t.Fatalf("kernel %s has %d WG sizes, need 2", k.ID(), len(wgs))
	}
	c := NewPrepCacheOpts(PrepCacheOptions{Capacity: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	c.testFillHook = func(_ *bench.Kernel, wg int64) error {
		if wg == wgs[0] {
			close(entered)
			<-release
		}
		return nil
	}

	done := make(chan error, 1)
	go func() {
		_, err := c.Analysis(k, p, wgs[0])
		done <- err
	}()
	<-entered

	// A second key completes while the first is mid-fill. Capacity is
	// 1 and both entries are resident: the in-flight one must survive.
	if _, err := c.Analysis(k, p, wgs[1]); err != nil {
		t.Fatal(err)
	}
	if n := c.Len(); n != 2 {
		t.Errorf("Len = %d with one fill in flight, want 2", n)
	}
	if ev := c.Stats().Evictions; ev != 0 {
		t.Errorf("Evictions = %d while the only other entry was in flight", ev)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Completion links wgs[0] into the LRU, which now evicts wgs[1].
	if n := c.Len(); n != 1 {
		t.Errorf("Len = %d after the in-flight fill completed, want 1", n)
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Errorf("Evictions = %d, want 1", ev)
	}
	// The just-completed entry is the survivor: a repeat is a free hit.
	pre := c.Stats().Computes
	if _, err := c.Analysis(k, p, wgs[0]); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Computes; got != pre {
		t.Errorf("Computes %d -> %d: the freshly completed entry was evicted", pre, got)
	}
}

// TestPrepCacheDiskTier: a cache backed by an artifact store persists
// its fills; a second cache on the same directory answers every key
// from disk — zero compile+analyze computes — with analyses whose
// predictions are deeply equal to the fresh ones.
func TestPrepCacheDiskTier(t *testing.T) {
	k := cacheKernel(t)
	p := device.Virtex7()
	dir := t.TempDir()

	store1, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewPrepCacheOpts(PrepCacheOptions{Store: store1})
	fresh := map[int64]*model.Analysis{}
	for _, wg := range k.WGSizes() {
		an, err := cold.Analysis(k, p, wg)
		if err != nil {
			t.Fatal(err)
		}
		fresh[wg] = an
	}
	cold.Flush()
	if st := cold.Stats(); st.Computes != uint64(len(k.WGSizes())) || st.DiskHits != 0 {
		t.Fatalf("cold stats = %+v", st)
	}
	if store1.Len() != len(k.WGSizes()) {
		t.Fatalf("store holds %d records, want %d", store1.Len(), len(k.WGSizes()))
	}

	store2, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewPrepCacheOpts(PrepCacheOptions{Store: store2})
	for _, wg := range k.WGSizes() {
		an, err := warm.Analysis(k, p, wg)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range model.DefaultSpace(wg, 4, 2) {
			if d.WGSize != wg {
				continue
			}
			if !reflect.DeepEqual(fresh[wg].Predict(d), an.Predict(d)) {
				t.Fatalf("wg=%d design %v: disk-restored prediction differs from fresh", wg, d)
			}
		}
	}
	st := warm.Stats()
	if st.Computes != 0 {
		t.Errorf("warm restart ran %d computes, want 0", st.Computes)
	}
	if st.DiskHits != uint64(len(k.WGSizes())) {
		t.Errorf("DiskHits = %d, want %d", st.DiskHits, len(k.WGSizes()))
	}
}

// TestPrepCacheDiskTierCorruptRecovers: a mangled artifact file must
// fall through to a full compute, and the recompute repairs the file
// on disk for the next process.
func TestPrepCacheDiskTierCorruptRecovers(t *testing.T) {
	k := cacheKernel(t)
	p := device.Virtex7()
	wg := k.WGSizes()[0]
	dir := t.TempDir()

	store, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	seed := NewPrepCacheOpts(PrepCacheOptions{Store: store})
	if _, err := seed.Analysis(k, p, wg); err != nil {
		t.Fatal(err)
	}
	seed.Flush()
	key := artifact.Key{Kernel: k.CacheKey(), Platform: p.Name, WG: wg}
	if err := corruptFile(store.Path(key)); err != nil {
		t.Fatal(err)
	}

	store2, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := NewPrepCacheOpts(PrepCacheOptions{Store: store2})
	if _, err := c.Analysis(k, p, wg); err != nil {
		t.Fatalf("corrupt artifact must degrade to recompute, got %v", err)
	}
	c.Flush()
	st := c.Stats()
	if st.Computes != 1 || st.DiskHits != 0 {
		t.Errorf("stats = %+v, want 1 compute and 0 disk hits", st)
	}
	if _, ok := store2.Load(key); !ok {
		t.Error("recompute did not rewrite the corrupt record")
	}
}

// corruptFile truncates the file at path to its first 17 bytes — the
// shape a crashed writer without the temp-file discipline leaves.
func corruptFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) < 17 {
		return fmt.Errorf("file %s too short to truncate", path)
	}
	return os.WriteFile(path, data[:17], 0o644)
}

// TestPrepCacheConcurrentDiskAndMemory: hammer one disk-backed cache
// from many goroutines across keys — the singleflight, LRU and
// persistence must be race-detector clean and every caller must get a
// usable analysis.
func TestPrepCacheConcurrentDiskAndMemory(t *testing.T) {
	k := cacheKernel(t)
	p := device.Virtex7()
	store, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewPrepCacheOpts(PrepCacheOptions{Store: store})
	wgs := k.WGSizes()
	var g sync.WaitGroup
	for i := 0; i < 16; i++ {
		g.Add(1)
		go func(i int) {
			defer g.Done()
			for j := 0; j < 4; j++ {
				wg := wgs[(i+j)%len(wgs)]
				res, err := c.AnalysisContext(context.Background(), k, p, wg)
				if err != nil {
					t.Errorf("wg=%d: %v", wg, err)
					return
				}
				if res.An == nil {
					t.Errorf("wg=%d: nil analysis", wg)
					return
				}
			}
		}(i)
	}
	g.Wait()
	c.Flush()
	if st := c.Stats(); st.Computes != uint64(len(wgs)) {
		t.Errorf("Computes = %d, want %d (one per key despite 64 lookups)", st.Computes, len(wgs))
	}
	if store.Len() != len(wgs) {
		t.Errorf("store holds %d records, want %d", store.Len(), len(wgs))
	}
}
