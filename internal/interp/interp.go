// Package interp executes FlexCL IR functionally. It plays two roles from
// the paper (§3.2): the dynamic profiler that runs "a few work-groups" of
// a kernel to collect loop trip counts and the global-memory access trace
// when static analysis cannot determine them, and the reference executor
// used to validate kernel translations against Go implementations.
package interp

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/ir"
	"repro/internal/opencl/ast"
)

// Val is a runtime scalar or vector value.
type Val struct {
	I   int64
	F   float64
	Vec []Val // non-nil for vectors; lanes are scalars
}

// IntVal makes an integer scalar.
func IntVal(v int64) Val { return Val{I: v} }

// FloatVal makes a floating scalar.
func FloatVal(v float64) Val { return Val{F: v} }

// Buffer is a global/constant memory buffer bound to a kernel pointer
// argument. Data is stored as flattened scalars; vector element types use
// lane-major order.
type Buffer struct {
	Elem ast.Type // pointee element type of the kernel argument
	// Exactly one of I/F is used, by Elem.Base.IsFloat().
	I []int64
	F []float64
}

// NewIntBuffer allocates an integer buffer of n elements of kind k.
func NewIntBuffer(k ast.BaseKind, n int) *Buffer {
	return &Buffer{Elem: ast.Scalar(k), I: make([]int64, n)}
}

// NewFloatBuffer allocates a float buffer of n elements of kind k.
func NewFloatBuffer(k ast.BaseKind, n int) *Buffer {
	return &Buffer{Elem: ast.Scalar(k), F: make([]float64, n)}
}

// Len returns the element count (scalar slots / lanes).
func (b *Buffer) Len() int {
	if b.Elem.Base.IsFloat() {
		return len(b.F)
	}
	return len(b.I)
}

// Access is one recorded global-memory access of a work-item.
type Access struct {
	Param *ir.Param // which buffer argument
	Index int64     // element index into the buffer (scalar slots)
	Bytes int       // access width in bytes
	Write bool
}

// NDRange is the kernel launch geometry.
type NDRange struct {
	Global [3]int64 // global work size per dimension (0 → 1)
	Local  [3]int64 // work-group size per dimension (0 → 1)
}

// Normalize fills unset dimensions with 1.
func (n NDRange) Normalize() NDRange {
	for d := 0; d < 3; d++ {
		if n.Global[d] <= 0 {
			n.Global[d] = 1
		}
		if n.Local[d] <= 0 {
			n.Local[d] = 1
		}
	}
	return n
}

// NumGroups returns the work-group count per dimension.
func (n NDRange) NumGroups() [3]int64 {
	var g [3]int64
	for d := 0; d < 3; d++ {
		g[d] = (n.Global[d] + n.Local[d] - 1) / n.Local[d]
	}
	return g
}

// TotalWorkItems returns the NDRange size.
func (n NDRange) TotalWorkItems() int64 {
	return n.Global[0] * n.Global[1] * n.Global[2]
}

// WorkGroupSize returns work-items per work-group.
func (n NDRange) WorkGroupSize() int64 {
	return n.Local[0] * n.Local[1] * n.Local[2]
}

// TotalGroups returns the total work-group count.
func (n NDRange) TotalGroups() int64 {
	g := n.NumGroups()
	return g[0] * g[1] * g[2]
}

// Config binds a kernel launch: geometry, buffers and scalar arguments.
type Config struct {
	Range NDRange
	// Buffers maps pointer-parameter names to buffers.
	Buffers map[string]*Buffer
	// Scalars maps value-parameter names to values.
	Scalars map[string]Val
}

// Profile is the dynamic-profiling result.
type Profile struct {
	// BlockCounts is the average execution count of each block per
	// work-item (the trip-count information of §3.2).
	BlockCounts map[*ir.Block]float64
	// Traces holds the per-work-item global access sequences, in
	// work-item issue order within each profiled group. Only the
	// materializing entry points (ProfileKernel, ProfileKernelSpread,
	// StaticProfile, InterpProfile) fill it; ProfileStream hands each
	// group's traces to its sink instead and leaves Traces nil.
	Traces [][]Access
	// WorkItems is the number of profiled work-items.
	WorkItems int
	// Barriers is the number of barrier crossings per work-item.
	Barriers float64
	// Source records which profiling path produced the profile (see
	// fastpath.go); it is informational and excluded from Diff.
	Source Source
}

// Run executes every work-group of the kernel, mutating the buffers.
// It returns an execution error (bad memory access, missing argument).
func Run(f *ir.Func, cfg *Config) error {
	_, err := execute(f, cfg, prefixSample(-1), nil)
	return err
}

// GroupSink receives one profiled work-group's global-memory traces,
// one slice per work-item in work-item issue order, as soon as every
// work-item of the group has completed. ord numbers the sampled groups
// in dispatch order from 0. The slices are reused once the sink
// returns, so a sink that keeps them must copy.
type GroupSink func(ord int, wis [][]Access)

// ProfileKernel collects trip counts and global-memory traces for up to
// maxGroups work-groups (default 2). The profiled groups are the first
// maxGroups of the launch — FlexCL's own choice (§3.2), whose sampling
// bias is part of the modeled error.
//
// The profile is produced by the cheapest path that yields the exact
// interpreted result (see fastpath.go): the static slice executor when
// the kernel analyzes, else the sequential interpreter. Profile.Source
// records the path taken. Buffers are mutated only on the interpreted
// path.
func ProfileKernel(f *ir.Func, cfg *Config, maxGroups int) (*Profile, error) {
	return materialize(func(sink GroupSink) (*Profile, error) {
		return ProfileStream(f, cfg, maxGroups, sink)
	})
}

// ProfileStream is ProfileKernel that streams the memory traces instead
// of materializing them: each profiled work-group's traces go to sink
// (when non-nil) as the group completes, and the returned profile's
// Traces is nil. When the static executor faults, the dispatcher reruns
// the launch on the interpreter, which streams again from ordinal 0: a
// sink must treat ordinal 0 as a fresh start, so the rerun replaces what
// the faulting run streamed instead of adding to it.
func ProfileStream(f *ir.Func, cfg *Config, maxGroups int, sink GroupSink) (*Profile, error) {
	if maxGroups <= 0 {
		maxGroups = 2
	}
	return profileDispatch(f, cfg, sampleFor(cfg, maxGroups, false), sink)
}

// ProfileKernelSpread is ProfileKernel with representative sampling:
// the maxGroups profiled work-groups are spread evenly across the whole
// launch instead of taken from its start. Ground-truth consumers
// (rtlsim) use this so extrapolating a sample to the full launch is not
// biased by atypical leading groups (boundary tiles, early-exit rows);
// the analytical model deliberately keeps the paper's prefix sampling.
// Work-groups of one launch are independent (OpenCL offers no
// inter-group ordering), so any subset is as valid to execute as a
// prefix. Buffers are mutated only on the interpreted path (see
// ProfileKernel).
func ProfileKernelSpread(f *ir.Func, cfg *Config, maxGroups int) (*Profile, error) {
	if maxGroups <= 0 {
		maxGroups = 2
	}
	sample := sampleFor(cfg, maxGroups, true)
	return materialize(func(sink GroupSink) (*Profile, error) {
		return profileDispatch(f, cfg, sample, sink)
	})
}

// materialize runs a streaming profile with a sink that keeps a copy of
// every group's traces and returns them as Profile.Traces. A rerun
// restarts at ordinal 0 and replaces what the run before it kept; a
// rerun that faults in its first group streams nothing, so the kept
// traces are cut to the work-items the returned profile counts.
func materialize(run func(GroupSink) (*Profile, error)) (*Profile, error) {
	var kept [][]Access
	prof, err := run(func(ord int, wis [][]Access) {
		if ord == 0 {
			kept = kept[:0]
		}
		for _, tr := range wis {
			kept = append(kept, slices.Clone(tr))
		}
	})
	if prof != nil {
		prof.Traces = kept[:prof.WorkItems]
	}
	return prof, err
}

// sampleFor builds the group sample of a profiling run: the prefix of
// the launch, or — for spread sampling with more groups than the sample
// — exactly maxGroups groups spread evenly across the launch. Include
// gid iff ⌊(gid+1)·m/t⌋ > ⌊gid·m/t⌋: deterministic, in dispatch order.
func sampleFor(cfg *Config, maxGroups int, spread bool) groupSample {
	if !spread {
		return prefixSample(maxGroups)
	}
	total := cfg.Range.Normalize().TotalGroups()
	if int64(maxGroups) >= total {
		return prefixSample(maxGroups)
	}
	m, t := int64(maxGroups), total
	sel := func(gid int64) bool {
		return (gid+1)*m/t > gid*m/t
	}
	return groupSample{sel: sel, last: t - 1}
}

// groupSample selects which work-groups (by linear dispatch index) an
// execution runs. last bounds the scan so prefix runs stop early.
type groupSample struct {
	sel  func(gid int64) bool
	last int64 // highest gid worth visiting; -1 = all
}

// prefixSample selects the first n groups (n < 0 = every group).
func prefixSample(n int) groupSample {
	if n < 0 {
		return groupSample{sel: func(int64) bool { return true }, last: -1}
	}
	return groupSample{sel: func(gid int64) bool { return gid < int64(n) }, last: int64(n) - 1}
}

// each calls fn with the ordinal and group coordinates of every sampled
// work-group of nd, in dispatch order, stopping at fn's first error.
func (s groupSample) each(nd NDRange, fn func(ord int, group [3]int64) error) error {
	groups := nd.NumGroups()
	gid := int64(0)
	ord := 0
	for gz := int64(0); gz < groups[2]; gz++ {
		for gy := int64(0); gy < groups[1]; gy++ {
			for gx := int64(0); gx < groups[0]; gx++ {
				if s.last >= 0 && gid > s.last {
					return nil
				}
				if s.sel(gid) {
					if err := fn(ord, [3]int64{gx, gy, gz}); err != nil {
						return err
					}
					ord++
				}
				gid++
			}
		}
	}
	return nil
}

// errGroupAborted marks work-items unwound because a peer died.
var errGroupAborted = errors.New("interp: work-group aborted after a peer error")

// execError aborts a work-item with a diagnostic.
type execError struct{ err error }

// execute interprets the sampled work-groups one after another. With a
// non-nil sink it traces global accesses and hands each completed
// group's traces to the sink; a faulting group is not handed over.
func execute(f *ir.Func, cfg *Config, sample groupSample, sink GroupSink) (*Profile, error) {
	nd := cfg.Range.Normalize()
	wgSize := nd.WorkGroupSize()
	if wgSize <= 0 {
		return nil, fmt.Errorf("interp: empty work-group")
	}
	if err := validateArgs(f, cfg); err != nil {
		return nil, err
	}

	prof := &Profile{BlockCounts: make(map[*ir.Block]float64), Source: SourceInterp}
	var mu sync.Mutex // guards atomics
	var traces [][]Access
	if sink != nil {
		// One trace buffer per work-item slot, reused by every group.
		traces = make([][]Access, wgSize)
	}
	err := sample.each(nd, func(ord int, group [3]int64) error {
		if err := runGroup(f, cfg, nd, group, traces, prof, &mu); err != nil {
			return err
		}
		if sink != nil {
			sink(ord, traces)
		}
		return nil
	})
	if err != nil {
		return prof, err
	}
	finalizeProfile(prof)
	return prof, nil
}

// validateArgs checks that every kernel parameter is bound in cfg, with
// the same errors on every profiling path.
func validateArgs(f *ir.Func, cfg *Config) error {
	for _, p := range f.Params {
		if p.T.Ptr {
			if cfg.Buffers[p.PName] == nil {
				return fmt.Errorf("interp: missing buffer for parameter %s", p.PName)
			}
		} else if _, ok := cfg.Scalars[p.PName]; !ok {
			return fmt.Errorf("interp: missing scalar argument %s", p.PName)
		}
	}
	return nil
}

func finalizeProfile(p *Profile) {
	if p.WorkItems > 0 {
		for b := range p.BlockCounts {
			p.BlockCounts[b] /= float64(p.WorkItems)
		}
		p.Barriers /= float64(p.WorkItems)
	}
}

// wgBarrier is a reusable barrier for one work-group.
type wgBarrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	phase int
}

func newWGBarrier(n int) *wgBarrier {
	b := &wgBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until every live work-item of the group arrives. It
// reports false when the group has been aborted (a peer died), in which
// case the caller must unwind instead of touching shared state again.
func (b *wgBarrier) wait() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.n <= 0 { // aborted group
		return false
	}
	phase := b.phase
	b.count++
	if b.count >= b.n {
		b.count = 0
		b.phase++
		b.cond.Broadcast()
		return true
	}
	for phase == b.phase {
		if b.n <= 0 {
			return false
		}
		b.cond.Wait()
	}
	return b.n > 0
}

// runGroup interprets one work-group, one goroutine per work-item. A
// non-nil traces has one buffer per work-item slot: each work-item
// appends its global accesses to its slot's buffer, truncated first.
// The group contributes to prof only when every work-item completes.
func runGroup(f *ir.Func, cfg *Config, nd NDRange, group [3]int64, traces [][]Access,
	prof *Profile, mu *sync.Mutex) error {

	wgSize := nd.WorkGroupSize()
	// Local memory shared by the group.
	locals := make(map[*ir.Alloca][]Val)
	for _, a := range f.Allocas {
		if a.AS == ast.ASLocal {
			locals[a] = make([]Val, a.Count)
		}
	}
	bar := newWGBarrier(int(wgSize))

	wis := make([]*wiState, 0, wgSize)
	for lz := int64(0); lz < nd.Local[2]; lz++ {
		for ly := int64(0); ly < nd.Local[1]; ly++ {
			for lx := int64(0); lx < nd.Local[0]; lx++ {
				gid := [3]int64{
					group[0]*nd.Local[0] + lx,
					group[1]*nd.Local[1] + ly,
					group[2]*nd.Local[2] + lz,
				}
				// Work-items beyond the global size still participate in
				// barriers (OpenCL requires uniform group sizes; our
				// kernels guard with if (gid < n)).
				w := &wiState{
					f: f, cfg: cfg, nd: nd, group: group,
					local: [3]int64{lx, ly, lz}, global: gid,
					locals: locals, bar: bar, trace: traces != nil,
					blockCounts: make(map[*ir.Block]int64),
					mu:          mu,
				}
				if w.trace {
					w.accesses = traces[len(wis)][:0]
				}
				wis = append(wis, w)
			}
		}
	}

	var wg sync.WaitGroup
	for _, w := range wis {
		wg.Add(1)
		go func(w *wiState) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if ee, ok := r.(execError); ok {
						w.err = ee.err
					} else {
						w.err = fmt.Errorf("interp: panic: %v", r)
					}
					// Release peers stuck at barriers.
					w.bar.abort()
				}
			}()
			w.run()
		}(w)
	}
	wg.Wait()

	// Report the root cause, not the induced group-abort unwinds.
	var aborted error
	for _, w := range wis {
		if w.err != nil {
			if errors.Is(w.err, errGroupAborted) {
				aborted = w.err
				continue
			}
			return w.err
		}
	}
	if aborted != nil {
		return aborted
	}
	for i, w := range wis {
		prof.WorkItems++
		for b, c := range w.blockCounts {
			prof.BlockCounts[b] += float64(c)
		}
		prof.Barriers += float64(w.barriers)
		if w.trace {
			traces[i] = w.accesses
		}
	}
	return nil
}

// abort releases all waiters after a work-item died so the group does not
// deadlock; subsequent waits pass through immediately.
func (b *wgBarrier) abort() {
	b.mu.Lock()
	b.n = 0
	b.phase++
	b.cond.Broadcast()
	b.mu.Unlock()
}

type wiState struct {
	f      *ir.Func
	cfg    *Config
	nd     NDRange
	group  [3]int64
	local  [3]int64
	global [3]int64

	locals map[*ir.Alloca][]Val
	priv   map[*ir.Alloca][]Val
	regs   map[*ir.Instr]Val
	bar    *wgBarrier

	trace       bool
	accesses    []Access
	blockCounts map[*ir.Block]int64
	barriers    int
	mu          *sync.Mutex
	err         error
}

func (w *wiState) fail(format string, args ...any) {
	panic(execError{fmt.Errorf("interp: "+format, args...)})
}

func (w *wiState) run() {
	w.priv = make(map[*ir.Alloca][]Val)
	for _, a := range w.f.Allocas {
		if a.AS != ast.ASLocal {
			w.priv[a] = make([]Val, a.Count)
		}
	}
	w.regs = make(map[*ir.Instr]Val)

	maxSteps := int(profStepLimit) // runaway-loop guard
	steps := 0
	blk := w.f.Entry()
	for blk != nil {
		w.blockCounts[blk]++
		var next *ir.Block
		for _, in := range blk.Instrs {
			steps++
			if steps > maxSteps {
				w.fail("work-item exceeded %d steps (infinite loop?)", maxSteps)
			}
			switch in.Op {
			case ir.OpBr:
				next = in.To
			case ir.OpCondBr:
				if truthy(w.eval(in.Args[0])) {
					next = in.To
				} else {
					next = in.Else
				}
			case ir.OpRet:
				return
			default:
				w.exec(in)
			}
		}
		blk = next
	}
}

func truthy(v Val) bool {
	if v.Vec != nil {
		for _, l := range v.Vec {
			if l.I != 0 || l.F != 0 {
				return true
			}
		}
		return false
	}
	return v.I != 0 || v.F != 0
}

func (w *wiState) eval(v ir.Value) Val {
	switch x := v.(type) {
	case *ir.Const:
		if x.T.Base.IsFloat() {
			return FloatVal(x.F)
		}
		return IntVal(x.I)
	case *ir.Param:
		sv, ok := w.cfg.Scalars[x.PName]
		if !ok {
			w.fail("read of unbound parameter %s", x.PName)
		}
		return sv
	case *ir.Instr:
		return w.regs[x]
	}
	w.fail("unknown value %T", v)
	return Val{}
}
