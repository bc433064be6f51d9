package dse

import (
	"container/list"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// PrepCache memoizes the per-work-group-size preparation of an
// exploration — kernel compilation plus FlexCL analysis — keyed by
// (kernel workload hash, platform, WG size). Each key is prepared
// exactly once no matter how many phases or worker goroutines request
// it: the first caller computes while the rest block on the entry's
// done channel (singleflight semantics), so a full Explore compiles
// each WG size once instead of once per simulated design point, and N
// concurrent service requests for the same kernel share one fill.
//
// The key is bench.Kernel.CacheKey (source hash + workload), not the
// kernel's identity, so two distinct Kernel allocations carrying the
// same source and launch — e.g. inline kernels submitted by separate
// API requests — coalesce onto one entry.
//
// Lookups are tiered: memory (singleflight) → artifact store (when the
// cache was built with one) → compute. A disk hit recompiles the kernel
// (cheap, deterministic) and re-attaches the stored profile instead of
// re-running the interpreter; fresh computes are persisted back to the
// store after the waiters are released, so restarts and other processes
// sharing the directory start warm.
//
// A sweep over a kernel's WG sizes (Explore, Search, Analyses) computes
// its misses together, largest first: when they all compile to the
// same code and the kernel's profile reads no work-group geometry, one
// shared profile fills them all (model.AnalyzeSweep), else each size is
// compiled and analyzed on its own. Entries stay per WG size either
// way, and so do their artifact records.
//
// Completed entries are bounded: beyond Capacity the least recently
// used completed entry is evicted (in-flight fills never are — that
// would break singleflight), so a long-running server fed distinct
// inline kernels cannot grow without bound. Failed fills are evicted as
// soon as their waiters are released: an error is returned to everyone
// who coalesced onto the fill, never cached against the key, so a
// transient failure does not poison later requests.
//
// A cache may be shared across Explore calls (e.g. a suite sweep on one
// platform, or an exploration followed by a heuristic search) to reuse
// the preparation work; the zero Options use a private per-call cache.
type PrepCache struct {
	mu    sync.Mutex
	m     map[prepKey]*prepEntry
	ll    *list.List                // completed entries, front = most recently used
	idx   map[prepKey]*list.Element // key → LRU element (completed entries only)
	cap   int                       // max completed entries; < 0 = unbounded
	store *artifact.Store           // nil = memory only
	stats CacheStats

	// persist tracks artifact writes still in flight on fill
	// goroutines; Flush waits for them.
	persist sync.WaitGroup

	// testFillHook, when non-nil, runs at the start of every computed
	// fill (after the disk tier). Tests use it to inject transient
	// failures and to block fills; a non-nil return aborts the fill
	// with that error.
	testFillHook func(k *bench.Kernel, wg int64) error
	// testCompileHook, when non-nil, runs before every kernel compile a
	// fill makes. Tests count compiles with it; set it before the first
	// fill.
	testCompileHook func(k *bench.Kernel, wg int64)
}

// DefaultPrepCapacity bounds completed entries when PrepCacheOptions
// leaves Capacity zero. It is sized an order of magnitude above the
// bundled corpus × its WG sweeps (~300 entries), so corpus explorations
// and the golden tests never see an eviction; the bound exists for
// servers fed unbounded distinct inline kernels.
const DefaultPrepCapacity = 4096

// PrepCacheOptions configures NewPrepCacheOpts.
type PrepCacheOptions struct {
	// Capacity bounds completed entries (0 = DefaultPrepCapacity,
	// negative = unbounded). In-flight fills are never evicted.
	Capacity int
	// Store, when non-nil, persists completed fills and answers misses
	// from disk (see internal/artifact).
	Store *artifact.Store
}

type prepKey struct {
	kernel   string // bench.Kernel.CacheKey()
	wg       int64
	platform string
}

func (k prepKey) artifactKey() artifact.Key {
	return artifact.Key{Kernel: k.kernel, Platform: k.platform, WG: k.wg}
}

type prepEntry struct {
	// done is closed by the computing goroutine once f/an/err/dur are
	// final; waiters must not read them before <-done.
	done chan struct{}
	f    *ir.Func
	an   *model.Analysis
	err  error
	// dur is the wall time the computing goroutine spent filling this
	// entry (compile + analyze, or a disk restore); Explore charges it
	// to ModelTime only when this call did the work (cache hits are
	// free).
	dur time.Duration
	// src records which tier filled the entry (SourceCompute or
	// SourceDisk).
	src string
}

// Fill sources, as reported by PrepResult.Source.
const (
	// SourceCompute: a full local compile+analyze.
	SourceCompute = "compute"
	// SourceDisk: restored from the local artifact store.
	SourceDisk = "disk"
)

// PrepOutcome reports how a context-aware cache lookup was satisfied.
type PrepOutcome int

// Lookup outcomes, in increasing order of luck.
const (
	// PrepComputed: this call created the entry and did the fill work
	// (a full compile+analyze, or a restore from the artifact store).
	PrepComputed PrepOutcome = iota
	// PrepCoalesced: the entry's fill was in flight; this call joined it
	// and waited instead of duplicating the work.
	PrepCoalesced
	// PrepCached: the entry was already complete.
	PrepCached
)

func (o PrepOutcome) String() string {
	switch o {
	case PrepCoalesced:
		return "coalesced"
	case PrepCached:
		return "cached"
	default:
		return "computed"
	}
}

// NewPrepCache returns an empty cache with the default capacity and no
// artifact store.
func NewPrepCache() *PrepCache {
	return NewPrepCacheOpts(PrepCacheOptions{})
}

// NewPrepCacheOpts returns an empty cache with explicit bounds and an
// optional persistent artifact store.
func NewPrepCacheOpts(opts PrepCacheOptions) *PrepCache {
	capacity := opts.Capacity
	if capacity == 0 {
		capacity = DefaultPrepCapacity
	}
	return &PrepCache{
		m:     make(map[prepKey]*prepEntry),
		ll:    list.New(),
		idx:   make(map[prepKey]*list.Element),
		cap:   capacity,
		store: opts.Store,
	}
}

// entry returns the cache slot for key, creating it if absent. created
// reports whether this caller must run the fill; coalesced reports that
// the entry existed but its fill was still in flight.
func (c *PrepCache) entry(key prepKey) (e *prepEntry, created, coalesced bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		e = &prepEntry{done: make(chan struct{})}
		c.m[key] = e
		c.stats.Misses++
		return e, true, false
	}
	c.stats.Hits++
	select {
	case <-e.done:
		if el, ok := c.idx[key]; ok {
			c.ll.MoveToFront(el)
		}
	default:
		coalesced = true
		c.stats.Coalesced++
	}
	return e, false, coalesced
}

// run fills j's entry with a full compile+analyze of its WG size; j.f,
// when non-nil, is the kernel already compiled for it. It does not close
// done — publish settles the entry's fate first, then releases waiters.
// Callers must pass a context that cannot be cancelled
// (context.WithoutCancel of the request, or context.Background()): the
// entry is shared, so one impatient request must not poison the fill
// every coalesced waiter (and the retry after a 504) depends on. The
// context still carries the creating request's trace, so the compile
// and model-analysis spans attach to it.
func (c *PrepCache) run(ctx context.Context, k *bench.Kernel, p *device.Platform, j *fillJob) {
	e, wg, f := j.e, j.wg, j.f
	t0 := time.Now()
	if f == nil {
		_, csp := telemetry.Start(ctx, "compile")
		csp.Annotate("kernel", k.ID())
		csp.Annotate("wg", fmt.Sprint(wg))
		var err error
		if f, err = c.compile(k, wg); err != nil {
			csp.Annotate("error", err.Error())
			csp.End()
			e.err = err
			return
		}
		csp.End()
	}
	an, err := model.Analyze(ctx, f, p, k.Config(wg))
	if err != nil {
		e.err = fmt.Errorf("dse %s wg=%d: %w", k.ID(), wg, err)
		return
	}
	e.f, e.an = f, an
	e.dur = time.Since(t0)
}

// compile compiles k at wg for a fill and freezes its loop analysis
// while the function is still the fill's own: afterwards it is shared
// read-only by concurrent fills and every Predict and Simulate.
func (c *PrepCache) compile(k *bench.Kernel, wg int64) (*ir.Func, error) {
	if c.testCompileHook != nil {
		c.testCompileHook(k, wg)
	}
	f, err := k.Compile(wg)
	if err != nil {
		return nil, err
	}
	f.EnsureLoops()
	return f, nil
}

// restore attempts the disk tier for job j and reports whether it
// filled the entry: load the record, recompile the kernel (cheap and
// deterministic — no interpreter run) and re-attach the stored profile.
// A record that no longer fits this build's compiled shape is
// invalidated and reported as a miss.
func (c *PrepCache) restore(ctx context.Context, k *bench.Kernel, p *device.Platform, j *fillJob) bool {
	if c.store == nil {
		return false
	}
	rec, ok := c.store.Load(j.key.artifactKey())
	if !ok {
		return false
	}
	t0 := time.Now()
	_, sp := telemetry.Start(ctx, "artifact")
	sp.Annotate("kernel", k.ID())
	sp.Annotate("wg", fmt.Sprint(j.wg))
	defer sp.End()
	f, err := c.compile(k, j.wg)
	var an *model.Analysis
	if err == nil {
		an, err = rec.Analysis(f, p)
	}
	if err != nil {
		sp.Annotate("error", err.Error())
		c.store.Invalidate(j.key.artifactKey())
		return false
	}
	j.e.f, j.e.an, j.e.src = f, an, SourceDisk
	j.e.dur = time.Since(t0)
	return true
}

// fillJob is one entry this caller created and must fill.
type fillJob struct {
	key prepKey
	e   *prepEntry
	wg  int64
	f   *ir.Func // the kernel compiled at wg, once a shared attempt compiled it
}

// fill completes freshly created entries of kernel k: each tries the
// artifact store, sharded over workers, and the misses left are
// computed together (compute).
func (c *PrepCache) fill(ctx context.Context, k *bench.Kernel, p *device.Platform, jobs []*fillJob, workers int) {
	restored := make([]bool, len(jobs))
	runShards(workers, len(jobs), func(i int) {
		if restored[i] = c.restore(ctx, k, p, jobs[i]); restored[i] {
			c.publish(jobs[i:i+1], 1)
		}
	})
	var misses []*fillJob
	for i, j := range jobs {
		if !restored[i] {
			misses = append(misses, j)
		}
	}
	c.compute(ctx, k, p, misses, workers)
}

// compute fills jobs, misses of kernel k the artifact store did not
// answer, ordered largest WG size first, and publishes each. Two or
// more misses first try one shared profile (computeShared); otherwise,
// or when that declines, each job runs its own compile+analyze, sharded
// over workers.
func (c *PrepCache) compute(ctx context.Context, k *bench.Kernel, p *device.Platform, jobs []*fillJob, workers int) {
	c.mu.Lock()
	c.stats.Computes += uint64(len(jobs))
	hook := c.testFillHook
	c.mu.Unlock()
	var live []*fillJob
	for _, j := range jobs {
		j.e.src = SourceCompute
		if hook != nil {
			if err := hook(k, j.wg); err != nil {
				j.e.err = err
				c.publish([]*fillJob{j}, 1)
				continue
			}
		}
		live = append(live, j)
	}
	if len(live) > 1 && c.computeShared(ctx, k, p, live, workers) {
		return
	}
	runShards(workers, len(live), func(i int) {
		c.run(ctx, k, p, live[i])
		c.publish(live[i:i+1], 1)
	})
}

// computeShared fills jobs (two or more misses of k, largest WG size
// first) from one shared profile and reports whether it did. A kernel
// whose code cannot depend on its WG size (bench.Kernel.SizeIndependent)
// is compiled once, and every job gets that function; any other is
// compiled at every job's size. When they all hold the same code,
// model.AnalyzeSweep profiles them with one run over the largest size's
// profiled work-groups, split over workers, on the largest size's
// buffers. Every entry then holds the largest size's function and a
// share of the fill's wall time. It returns false, leaving each job its
// compiled function, when a compile fails, the sizes compile to
// different code, or the shared run declines or faults: the per-WG
// fills then analyze those functions and reproduce the reference
// results and errors.
func (c *PrepCache) computeShared(ctx context.Context, k *bench.Kernel, p *device.Platform, jobs []*fillJob, workers int) bool {
	t0 := time.Now()
	_, csp := telemetry.Start(ctx, "compile")
	csp.Annotate("kernel", k.ID())
	csp.Annotate("wg_sizes", fmt.Sprint(len(jobs)))
	compiled := jobs
	if k.SizeIndependent() {
		compiled = jobs[:1]
	}
	var failed atomic.Bool
	runShards(workers, len(compiled), func(i int) {
		f, err := c.compile(k, compiled[i].wg)
		if err != nil {
			failed.Store(true)
			return
		}
		compiled[i].f = f
	})
	csp.End()
	f := jobs[0].f
	for _, j := range jobs[len(compiled):] {
		j.f = f
	}
	if failed.Load() {
		return false
	}
	locals := make([][3]int64, len(jobs))
	for i, j := range jobs {
		if j.f != f && !f.SameCode(j.f) {
			return false
		}
		locals[i] = k.Local(j.wg)
	}
	ans, err := model.AnalyzeSweep(ctx, f, p, k.Config(jobs[0].wg), locals, workers)
	if err != nil {
		return false
	}
	dur := time.Since(t0) / time.Duration(len(jobs))
	for i, j := range jobs {
		j.e.f, j.e.an, j.e.dur = f, ans[i], dur
	}
	c.publish(jobs, workers)
	return true
}

// publish settles filled entries and releases their waiters. Each
// entry's fate is published under the lock before done is closed: error
// entries leave the map immediately, so the error reaches exactly the
// requests that coalesced onto the fill and the next request for the
// key recomputes; successful entries join the completed-LRU (evicting
// over capacity). Fresh computes are then persisted, sharded over
// workers, after the waiters are released, so coalesced requests never
// wait on disk I/O and the next restart (or another process sharing the
// directory) starts warm.
func (c *PrepCache) publish(jobs []*fillJob, workers int) {
	var saves []*fillJob
	c.mu.Lock()
	for _, j := range jobs {
		e := j.e
		if e.err != nil {
			// Never negative-cache: drop the entry (if it is still ours)
			// so the next request for this key starts a fresh fill.
			if cur, ok := c.m[j.key]; ok && cur == e {
				delete(c.m, j.key)
			}
			continue
		}
		c.linkCompleted(j.key)
		if e.src == SourceDisk {
			c.stats.DiskHits++
		} else if c.store != nil {
			saves = append(saves, j)
		}
	}
	// Register the pending writes before releasing waiters so a Flush
	// racing the fill cannot miss them.
	c.persist.Add(len(saves))
	c.mu.Unlock()
	for _, j := range jobs {
		close(j.e.done)
	}
	runShards(workers, len(saves), func(i int) {
		defer c.persist.Done()
		c.store.Save(artifact.New(saves[i].key.artifactKey(), saves[i].e.an, saves[i].e.dur))
	})
}

// linkCompleted (mu held) inserts a completed entry into the LRU and
// evicts least-recently-used completed entries beyond capacity.
// In-flight entries are not in the LRU and therefore never evicted —
// evicting one would detach its waiters from the singleflight.
func (c *PrepCache) linkCompleted(key prepKey) {
	if el, ok := c.idx[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.idx[key] = c.ll.PushFront(key)
	if c.cap < 0 {
		return
	}
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		old := oldest.Value.(prepKey)
		c.ll.Remove(oldest)
		delete(c.idx, old)
		delete(c.m, old)
		c.stats.Evictions++
	}
}

// Flush blocks until every artifact write started by a completed fill
// has finished. Call it before handing the artifact directory to
// another process (tests, restarts) — fills persist after releasing
// their waiters, so a caller can observe its result before the record
// is on disk.
func (c *PrepCache) Flush() { c.persist.Wait() }

// prepare is phase 1 of every sweep (Explore, Search and Analyses) and
// the whole of a single-size lookup (Analysis): it returns the prepared
// entry of each WG size in wgs, and own[i] reports whether this call
// filled entries[i]. The entries this call creates are filled together,
// largest WG size first (fill), so a kernel whose sizes compile to the
// same code is profiled once. Entries other callers are filling are
// waited for, without a deadline. The fills run under a detached
// context (WithoutCancel keeps the caller's trace on the fill's spans)
// and always complete, so no coalesced waiter is left behind. err is
// ctx's error when ctx is done before the sweep starts, else the first
// failed entry's error in wgs order.
func (c *PrepCache) prepare(ctx context.Context, k *bench.Kernel, p *device.Platform, wgs []int64, workers int) (entries []*prepEntry, own []bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	entries = make([]*prepEntry, len(wgs))
	own = make([]bool, len(wgs))
	var jobs []*fillJob
	// One kernel hash serves every WG size. WGSizes ascend: the loop
	// creates the largest size's entry first.
	kernel := k.CacheKey()
	for i := len(wgs) - 1; i >= 0; i-- {
		key := prepKey{kernel: kernel, wg: wgs[i], platform: p.Name}
		e, created, _ := c.entry(key)
		entries[i], own[i] = e, created
		if created {
			jobs = append(jobs, &fillJob{key: key, e: e, wg: wgs[i]})
		}
	}
	if len(jobs) > 0 {
		c.fill(context.WithoutCancel(ctx), k, p, jobs, workers)
	}
	for _, e := range entries {
		<-e.done
		if e.err != nil && err == nil {
			err = e.err
		}
	}
	return entries, own, err
}

// PrepResult is the outcome of a context-aware cache lookup.
type PrepResult struct {
	An      *model.Analysis
	Outcome PrepOutcome
	// Source reports which tier originally filled the entry
	// (SourceCompute or SourceDisk; "" when the lookup failed before the
	// fill resolved).
	Source string
}

// AnalysisContext returns the prepared analysis for one WG size,
// respecting ctx while waiting. The first caller for a key starts the
// fill on its own goroutine; concurrent callers for the same key
// coalesce onto that fill instead of duplicating it. When ctx expires
// first the caller gets ctx's error immediately while the fill keeps
// running in the background and lands in the cache for the retry.
func (c *PrepCache) AnalysisContext(ctx context.Context, k *bench.Kernel, p *device.Platform, wg int64) (PrepResult, error) {
	key := prepKey{kernel: k.CacheKey(), wg: wg, platform: p.Name}
	e, created, coalesced := c.entry(key)
	outcome := PrepCached
	switch {
	case created:
		outcome = PrepComputed
		go c.fill(context.WithoutCancel(ctx), k, p, []*fillJob{{key: key, e: e, wg: wg}}, 1)
	case coalesced:
		outcome = PrepCoalesced
	}
	select {
	case <-ctx.Done():
		return PrepResult{Outcome: outcome}, ctx.Err()
	case <-e.done:
	}
	if e.err != nil {
		return PrepResult{Outcome: outcome}, e.err
	}
	return PrepResult{An: e.an, Outcome: outcome, Source: e.src}, nil
}

// Analyses returns the kernel's per-WG-size analysis map on platform p
// (the shape HeuristicSearch consumes), computing any missing entries.
func (c *PrepCache) Analyses(k *bench.Kernel, p *device.Platform) (map[int64]*model.Analysis, error) {
	wgs := k.WGSizes()
	entries, _, err := c.prepare(context.Background(), k, p, wgs, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	out := make(map[int64]*model.Analysis, len(wgs))
	for i, wg := range wgs {
		out[wg] = entries[i].an
	}
	return out, nil
}

// Analysis returns the prepared analysis for one WG size, computing and
// caching it on first use. Explore and HeuristicSearch share the same
// entries; deadline-carrying callers should prefer AnalysisContext.
func (c *PrepCache) Analysis(k *bench.Kernel, p *device.Platform, wg int64) (*model.Analysis, error) {
	entries, _, err := c.prepare(context.Background(), k, p, []int64{wg}, 1)
	if err != nil {
		return nil, err
	}
	return entries[0].an, nil
}

// Len returns the number of resident entries (completed + in flight).
func (c *PrepCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Cap returns the completed-entry capacity (negative = unbounded).
func (c *PrepCache) Cap() int { return c.cap }

// Stats returns a snapshot of the cache's hit/miss counters. A lookup
// counts as a miss when it created the entry and a hit when the entry
// already existed — so an Explore over w WG sizes makes w lookups: w
// misses on a fresh cache, w hits when a previous exploration filled
// it.
//
// Computes counts the entries filled by compile+analyze, one per WG
// size even when one shared profile fills several (misses answered by
// the artifact store instead appear in DiskHits). Coalesced counts
// lookups that joined a fill still in flight, and Evictions counts
// completed entries dropped by the capacity bound.
func (c *PrepCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
