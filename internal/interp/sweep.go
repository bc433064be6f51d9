package interp

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/interp/static"
	"repro/internal/ir"
	"repro/internal/obs"
)

// ErrNotShareable reports that ProfileSweep cannot serve its launches
// from one run. It is an expected outcome, not a fault: profile each
// launch on its own instead.
var ErrNotShareable = errors.New("interp: launches cannot share one profile")

// ProfileSweep profiles one launch of f at several work-group sizes with
// one execution. cfg binds the launch (global size, buffers, scalars);
// locals lists the work-group geometries to profile, and the result
// holds one profile per entry, each exactly what ProfileStream(f, cfg
// at that local size, maxGroups, sinks[i]) returns on the static path,
// with sinks[i] fed the same groups in the same order.
//
// Sharing is sound when the kernel's static profile slice reads no
// work-group geometry (static.Plan.GlobalOnly): a work-item's trace,
// trip counts and barriers are then a function of its global ID, so the
// static executor runs the largest launch's profiled groups once and
// every launch whose profiled groups lie inside them takes its
// work-items' results from that run. Otherwise ProfileSweep returns an
// error wrapping ErrNotShareable before executing anything.
//
// Each group's work-items are split over workers goroutines (see
// runSweep). Block counts, barriers and work-items are summed as
// integers per launch, so the profiles are bitwise the per-launch ones
// at any worker count. On an execution fault the sinks have seen a
// partial sweep and the error is returned; the caller must profile each
// launch on its own to get the reference error and partial profile.
func ProfileSweep(f *ir.Func, cfg *Config, locals [][3]int64, maxGroups, workers int, sinks []GroupSink) ([]*Profile, error) {
	if len(sinks) != len(locals) {
		return nil, fmt.Errorf("interp: sweep of %d launches with %d sinks", len(locals), len(sinks))
	}
	e := planFor(f)
	if e.plan == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotShareable, e.reason)
	}
	if !e.plan.GlobalOnly {
		return nil, fmt.Errorf("%w: the profile slice reads the work-group geometry", ErrNotShareable)
	}
	profs, err := runSweep(e.plan, cfg, locals, prefixSample(maxGroups), workers, sinks)
	if err != nil {
		return nil, err
	}
	obs.Global().Counter("profile_static_total", "").Add(uint64(len(locals)))
	return profs, nil
}

// runSweep is the static slice executor's one driver: every static
// profile, of one launch or of a shared sweep, runs through it. It
// executes the sampled groups of the launch with the largest work-group
// among locals one at a time, each split over workers goroutines, and
// after each group hands every launch the groups of its own sample that
// are now complete, in its own dispatch order (nil sinks are skipped).
// The executed launch is handed its groups by ordinal, so sample may be
// any group sample when locals holds one launch; with several it must
// be a prefix, and every other launch's profiled groups must lie inside
// the executed ones (else an error wrapping ErrNotShareable). Buffers
// are never mutated. On a fault it returns no profiles and the error of
// a faulting work-item, the first in dispatch order on one worker.
//
// The chunks' trace buffers live as long as the sweep: a group's are
// reused by a later group of the same sweep once no hand-off reads them,
// and a sink that keeps a trace copies it (GroupSink).
func runSweep(p *static.Plan, cfg *Config, locals [][3]int64, sample groupSample, workers int, sinks []GroupSink) ([]*Profile, error) {
	if err := validateArgs(p.Fn, cfg); err != nil {
		return nil, err
	}
	s, err := newSweep(cfg, locals, sample, sinks)
	if err != nil {
		return nil, err
	}
	if err := s.start(p, cfg, max(workers, 1)); err != nil {
		return nil, err
	}
	if err := s.run(); err != nil {
		return nil, err
	}
	return s.profiles(), nil
}

// sweepLaunch is one work-group size of a sweep.
type sweepLaunch struct {
	nd     NDRange
	ng     [3]int64   // groups per dimension
	groups [][3]int64 // profiled group coordinates, in dispatch order
	// handAt[j] is the ordinal of the executed group after whose
	// completion group j, and every group before it, is complete.
	handAt []int
	next   int // next group to hand over
	sink   GroupSink
	wis    [][]Access // the views of one handed group, reused
}

// member reports whether the work-item at global ID gid lies in one of
// l's profiled groups, which form a prefix of l's launch.
func (l *sweepLaunch) member(gid [3]int64) bool {
	var lin, stride int64 = 0, 1
	for d := 0; d < 3; d++ {
		q := gid[d] / l.nd.Local[d]
		if q >= l.ng[d] {
			return false
		}
		lin += q * stride
		stride *= l.ng[d]
	}
	return lin < int64(len(l.groups))
}

// sweepChunk is one execution task's share of an executed group:
// work-items [lo, hi) in local order, their traces back to back in acc,
// ends[i] the end of work-item lo+i's trace.
type sweepChunk struct {
	lo, hi int
	acc    []Access
	ends   []int
}

// sweepGroup holds one executed group's traces.
type sweepGroup struct{ chunks []sweepChunk }

// sweepWorker is one goroutine's executor and per-launch sums.
type sweepWorker struct {
	x        *planExec
	counts   [][]int64 // per launch, per block
	barriers []int64
	wis      []int
	err      error
	// first traces the first work-item of a chunk that has no buffer
	// yet, which then sizes its own from that trace; reused for every
	// such chunk of the sweep, and dropped with it.
	first []Access
}

// sweepTask is one unit of a step: execute one chunk of the current
// group, or hand a launch its complete groups.
type sweepTask struct {
	launch *sweepLaunch
	chunk  *sweepChunk
}

// sweep is the state of one runSweep.
type sweep struct {
	launches []*sweepLaunch
	big      *sweepLaunch // the launch whose profiled groups are executed
	// releaseAt[b] is the last executed group after which group b is
	// handed to a launch; kept[b] holds its traces until then.
	releaseAt []int
	kept      []*sweepGroup
	free      []*sweepGroup
	chunkLen  int
	workers   []*sweepWorker

	cur int // the executed group of the current step
}

// newSweep lays the launches out under sample and checks that every
// other launch's profiled groups lie inside the executed launch's.
func newSweep(cfg *Config, locals [][3]int64, sample groupSample, sinks []GroupSink) (*sweep, error) {
	s := &sweep{}
	for i, local := range locals {
		nd := NDRange{Global: cfg.Range.Global, Local: local}.Normalize()
		if nd.WorkGroupSize() <= 0 {
			return nil, fmt.Errorf("interp: empty work-group")
		}
		l := &sweepLaunch{nd: nd, ng: nd.NumGroups(), sink: sinks[i], wis: make([][]Access, nd.WorkGroupSize())}
		sample.each(nd, func(_ int, g [3]int64) error {
			l.groups = append(l.groups, g)
			return nil
		})
		if s.big == nil || nd.WorkGroupSize() > s.big.nd.WorkGroupSize() {
			s.big = l
		}
		s.launches = append(s.launches, l)
	}
	big := s.big
	s.releaseAt = make([]int, len(big.groups))
	s.kept = make([]*sweepGroup, len(big.groups))
	big.handAt = make([]int, len(big.groups))
	for b := range big.groups {
		big.handAt[b], s.releaseAt[b] = b, b
	}
	for _, l := range s.launches {
		if l == big {
			continue
		}
		l.handAt = make([]int, len(l.groups))
		hand := 0
		for j, g := range l.groups {
			// The executed groups overlapping this one, per dimension.
			var lo, hi [3]int64
			for d := 0; d < 3; d++ {
				lo[d] = g[d] * l.nd.Local[d] / big.nd.Local[d]
				hi[d] = ((g[d]+1)*l.nd.Local[d] - 1) / big.nd.Local[d]
				if hi[d] >= big.ng[d] {
					return nil, fmt.Errorf("%w: a local size %v group leaves the local size %v groups", ErrNotShareable, l.nd.Local, big.nd.Local)
				}
			}
			need := int(hi[0] + hi[1]*big.ng[0] + hi[2]*big.ng[0]*big.ng[1])
			if need >= len(big.groups) {
				return nil, fmt.Errorf("%w: a local size %v group lies outside the local size %v profile", ErrNotShareable, l.nd.Local, big.nd.Local)
			}
			hand = max(hand, need)
			l.handAt[j] = hand
			for z := lo[2]; z <= hi[2]; z++ {
				for y := lo[1]; y <= hi[1]; y++ {
					for x := lo[0]; x <= hi[0]; x++ {
						b := int(x + y*big.ng[0] + z*big.ng[0]*big.ng[1])
						s.releaseAt[b] = max(s.releaseAt[b], hand)
					}
				}
			}
		}
	}
	return s, nil
}

// start builds one executor per worker. One worker executes each group
// as one chunk; more split its work-items into up to four chunks per
// worker, so uneven work-items still balance across them.
func (s *sweep) start(p *static.Plan, cfg *Config, workers int) error {
	wgSize := int(s.big.nd.WorkGroupSize())
	workers = min(workers, wgSize)
	chunks := 1
	if workers > 1 {
		chunks = min(wgSize, 4*workers)
	}
	s.chunkLen = (wgSize + chunks - 1) / chunks
	for w := 0; w < workers; w++ {
		x, err := newPlanExec(p, cfg, s.big.nd)
		if err != nil {
			return err
		}
		sw := &sweepWorker{
			x:        x,
			counts:   make([][]int64, len(s.launches)),
			barriers: make([]int64, len(s.launches)),
			wis:      make([]int, len(s.launches)),
		}
		for i := range sw.counts {
			sw.counts[i] = make([]int64, len(p.Fn.Blocks))
		}
		s.workers = append(s.workers, sw)
	}
	return nil
}

// run executes the largest launch's profiled groups one step at a time.
// Step b executes group b over the workers, then hands every launch
// what group b completed, then recycles the groups no later hand-off
// reads.
func (s *sweep) run() error {
	var tasks []sweepTask
	for b := range s.big.groups {
		s.cur = b
		g := s.take()
		s.kept[b] = g
		tasks = tasks[:0]
		for i := range g.chunks {
			tasks = append(tasks, sweepTask{chunk: &g.chunks[i]})
		}
		if err := s.step(tasks); err != nil {
			return err
		}
		tasks = tasks[:0]
		for _, l := range s.launches {
			if l.sink != nil && l.next < len(l.groups) && l.handAt[l.next] <= b {
				tasks = append(tasks, sweepTask{launch: l})
			}
		}
		s.step(tasks) // a hand-off cannot fail
		for i, r := range s.releaseAt {
			if r == b {
				s.free = append(s.free, s.kept[i])
				s.kept[i] = nil
			}
		}
	}
	return nil
}

// take returns a group record for the next execution, recycling a
// released one when there is one.
func (s *sweep) take() *sweepGroup {
	if n := len(s.free); n > 0 {
		g := s.free[n-1]
		s.free = s.free[:n-1]
		return g
	}
	wgSize := int(s.big.nd.WorkGroupSize())
	g := &sweepGroup{}
	for lo := 0; lo < wgSize; lo += s.chunkLen {
		hi := min(lo+s.chunkLen, wgSize)
		g.chunks = append(g.chunks, sweepChunk{lo: lo, hi: hi, ends: make([]int, hi-lo)})
	}
	return g
}

// step runs one step's tasks over the workers, which pull them in order
// until none is left or one fails. The first worker runs on the calling
// goroutine, so a one-worker sweep starts none.
func (s *sweep) step(tasks []sweepTask) error {
	var next atomic.Int64
	var failed atomic.Bool
	work := func(w *sweepWorker) {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= len(tasks) {
				return
			}
			t := tasks[i]
			if t.launch != nil {
				s.handOff(t.launch)
				continue
			}
			if err := s.execute(w, t.chunk); err != nil {
				w.err = err
				failed.Store(true)
				return
			}
		}
	}
	workers := s.workers[:min(len(s.workers), len(tasks))]
	var wg sync.WaitGroup
	for _, w := range workers[min(1, len(workers)):] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	if len(workers) > 0 {
		work(workers[0])
	}
	wg.Wait()
	for _, w := range s.workers {
		if w.err != nil {
			return w.err
		}
	}
	return nil
}

// execute runs one chunk of the current group on w's executor, sizing
// the chunk's trace buffer from its first work-item's trace, and adds
// every work-item's counts to the executed launch and to each other
// launch that profiles it. A chunk without a buffer traces its first
// work-item into w.first, then allocates its buffer once and copies
// that trace in, so no chunk buffer grows from nothing.
func (s *sweep) execute(w *sweepWorker, c *sweepChunk) error {
	x := w.x
	local := s.big.nd.Local
	group := s.big.groups[s.cur]
	x.group = group
	x.accesses = c.acc[:0]
	if c.acc == nil {
		x.accesses = w.first[:0]
	}
	for li := c.lo; li < c.hi; li++ {
		l := int64(li)
		x.local = [3]int64{l % local[0], l / local[0] % local[1], l / (local[0] * local[1])}
		for d := 0; d < 3; d++ {
			x.global[d] = group[d]*local[d] + x.local[d]
		}
		if err := x.runWI(); err != nil {
			return err
		}
		if li == c.lo {
			want := len(x.accesses) * (c.hi - c.lo)
			if c.acc == nil {
				w.first = x.accesses
			}
			if c.acc == nil || cap(x.accesses) < want {
				x.accesses = append(make([]Access, 0, want), x.accesses...)
			}
		}
		c.ends[li-c.lo] = len(x.accesses)
		for k, l := range s.launches {
			if l != s.big && !l.member(x.global) {
				continue
			}
			w.wis[k]++
			w.barriers[k] += int64(x.barriers)
			counts := w.counts[k]
			for bi, n := range x.counts {
				if n != 0 {
					counts[bi] += n
				}
			}
		}
	}
	c.acc = x.accesses
	return nil
}

// handOff hands l every group of its sample that the executed groups
// now cover, in l's dispatch order: the executed launch its current
// group by ordinal, any other launch the groups of its prefix by the
// global IDs of their work-items.
func (s *sweep) handOff(l *sweepLaunch) {
	local := l.nd.Local
	for l.next < len(l.groups) && l.handAt[l.next] <= s.cur {
		if l == s.big {
			for li := range l.wis {
				l.wis[li] = s.trace(s.kept[l.next], li)
			}
		} else {
			g := l.groups[l.next]
			i := 0
			for lz := int64(0); lz < local[2]; lz++ {
				for ly := int64(0); ly < local[1]; ly++ {
					for lx := int64(0); lx < local[0]; lx++ {
						l.wis[i] = s.view([3]int64{g[0]*local[0] + lx, g[1]*local[1] + ly, g[2]*local[2] + lz})
						i++
					}
				}
			}
		}
		l.sink(l.next, l.wis)
		l.next++
	}
}

// view returns the trace of the work-item at global ID gid, from the
// kept executed group that ran it. The executed groups are a prefix, so
// a group's ordinal is its linear group ID.
func (s *sweep) view(gid [3]int64) []Access {
	local, ng := s.big.nd.Local, s.big.ng
	var q, r [3]int64
	for d := 0; d < 3; d++ {
		q[d], r[d] = gid[d]/local[d], gid[d]%local[d]
	}
	return s.trace(s.kept[q[0]+q[1]*ng[0]+q[2]*ng[0]*ng[1]], int(r[0]+r[1]*local[0]+r[2]*local[0]*local[1]))
}

// trace returns the trace of the work-item at local index li of the
// executed group g.
func (s *sweep) trace(g *sweepGroup, li int) []Access {
	c := &g.chunks[li/s.chunkLen]
	k := li - c.lo
	lo := 0
	if k > 0 {
		lo = c.ends[k-1]
	}
	hi := c.ends[k]
	return c.acc[lo:hi:hi]
}

// profiles sums the workers' counts into one finalized profile per
// launch. Every sum is an integer below 2^53, so each is bitwise the
// float accumulation the interpreter performs.
func (s *sweep) profiles() []*Profile {
	blocks := s.workers[0].x.plan.Fn.Blocks
	out := make([]*Profile, len(s.launches))
	for k := range s.launches {
		prof := &Profile{BlockCounts: make(map[*ir.Block]float64), Source: SourceStatic}
		var barriers int64
		for bi, b := range blocks {
			var n int64
			for _, w := range s.workers {
				n += w.counts[k][bi]
			}
			if n != 0 {
				prof.BlockCounts[b] = float64(n)
			}
		}
		for _, w := range s.workers {
			barriers += w.barriers[k]
			prof.WorkItems += w.wis[k]
		}
		prof.Barriers = float64(barriers)
		finalizeProfile(prof)
		out[k] = prof
	}
	return out
}
