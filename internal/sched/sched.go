// Package sched implements the scheduling algorithms of FlexCL's
// processing-element model (paper §3.2–3.3.1):
//
//   - a resource-aware, priority-ordered list scheduler (ASAP policy) that
//     estimates the execution latency of each basic block under local
//     memory port and DSP constraints;
//   - the frequency-weighted critical path through the acyclic control
//     flow graph, which gives each block its start offset (Build);
//   - the minimum initiation interval MII = max(RecMII, ResMII), with
//     RecMII derived from inter-work-item data dependences found by affine
//     index analysis, and ResMII from Eq. 3–4;
//   - a Swing-Modulo-Scheduling-style refinement that searches for the
//     smallest feasible II at or above MII using a modulo reservation
//     table, and reports the pipeline depth.
package sched

import (
	"math"
	"slices"

	"repro/internal/device"
	"repro/internal/ir"
	"repro/internal/opencl/ast"
)

// Resources are the per-PE issue constraints visible to the scheduler.
type Resources struct {
	LocalRead  int // local-memory read ports
	LocalWrite int // local-memory write ports
	Global     int // global-memory interface ports
	DSPSlots   int // DSP-backed cores available (issues per cycle)
}

// Sane returns a copy with non-positive limits raised to 1.
func (r Resources) Sane() Resources {
	if r.LocalRead <= 0 {
		r.LocalRead = 1
	}
	if r.LocalWrite <= 0 {
		r.LocalWrite = 1
	}
	if r.Global <= 0 {
		r.Global = 1
	}
	if r.DSPSlots <= 0 {
		r.DSPSlots = 1
	}
	return r
}

// Config parameterizes scheduling.
type Config struct {
	// Table supplies profiled average latencies (the analytical model's
	// view).
	Table *device.LatencyTable
	// Variant, when non-nil, overrides the latency of individual
	// instructions (the simulator's exact view).
	Variant func(*ir.Instr) int
	Res     Resources
}

// Latency returns the scheduling latency of one instruction in cycles.
func (c *Config) Latency(in *ir.Instr) int {
	if c.Variant != nil {
		return c.Variant(in)
	}
	cl := device.Classify(in)
	return int(math.Ceil(c.Table.Latency(cl)))
}

// resKind distinguishes the per-cycle resources.
type resKind int

const (
	resNone resKind = iota
	resLocalRead
	resLocalWrite
	resGlobal
	resDSP
	numResKinds // the number of kinds, for tables indexed by kind
)

// resourceOf maps an instruction to the issue resource it occupies.
func (c *Config) resourceOf(in *ir.Instr) resKind {
	cl := device.Classify(in)
	switch cl {
	case device.ClassLocalLoad:
		return resLocalRead
	case device.ClassLocalStore:
		return resLocalWrite
	case device.ClassGlobalLoad, device.ClassGlobalStore, device.ClassAtomic:
		return resGlobal
	}
	if c.Table.DSPCost(cl) > 0 {
		return resDSP
	}
	return resNone
}

func (r Resources) limit(k resKind) int {
	switch k {
	case resLocalRead:
		return r.LocalRead
	case resLocalWrite:
		return r.LocalWrite
	case resGlobal:
		return r.Global
	case resDSP:
		return r.DSPSlots
	default:
		return 0
	}
}

// dfgEdge is a dependence with a latency delay.
type dfgEdge struct {
	to    int
	delay int
}

// blockScratch holds the per-block tables of the dependence graph and
// the list schedule. Build reuses one for every block of a schedule:
// each table keeps its storage from block to block, truncated or
// cleared, so a schedule allocates them about once instead of once per
// block. What dfg and schedule return is valid until the next block.
type blockScratch struct {
	succ, pred [][]dfgEdge
	pos        []int32
	lastWrite  map[ir.Storage]int
	readers    map[ir.Storage][]int

	prio, order, ready, remaining, start, cand []int
	scheduled                                  []bool
	usage                                      [numResKinds][]int
}

// zeroed returns s resized to n zero elements, in s's own array when it
// is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// edgeLists returns l resized to n empty edge lists, each keeping the
// storage it had.
func edgeLists(l [][]dfgEdge, n int) [][]dfgEdge {
	if cap(l) < n {
		l = append(l[:cap(l)], make([][]dfgEdge, n-cap(l))...)
	}
	l = l[:n]
	for i := range l {
		l[i] = l[i][:0]
	}
	return l
}

// blockDFG builds the intra-block dependence graph: def-use edges plus
// memory-ordering edges on the same storage object, with barriers and
// atomics acting as fences.
func blockDFG(instrs []*ir.Instr, latOf func(*ir.Instr) int) ([][]dfgEdge, [][]dfgEdge) {
	return new(blockScratch).dfg(instrs, latOf)
}

// dfg is blockDFG on s's tables.
func (s *blockScratch) dfg(instrs []*ir.Instr, latOf func(*ir.Instr) int) ([][]dfgEdge, [][]dfgEdge) {
	n := len(instrs)
	succ := edgeLists(s.succ, n)
	pred := edgeLists(s.pred, n)
	s.succ, s.pred = succ, pred
	add := func(from, to int) {
		d := latOf(instrs[from])
		if d < 1 {
			d = 1 // chained dependences still take a cycle boundary
		}
		succ[from] = append(succ[from], dfgEdge{to: to, delay: d})
		pred[to] = append(pred[to], dfgEdge{to: from, delay: d})
	}

	// Def-use edges. pos[id-lo] is the position of the block's
	// instruction with ID id, or -1: IDs are dense per function, so the
	// block's span of them bounds the table.
	lo, hi := 0, -1
	for i, in := range instrs {
		if i == 0 || in.ID < lo {
			lo = in.ID
		}
		hi = max(hi, in.ID)
	}
	pos := zeroed(s.pos, hi-lo+1)
	s.pos = pos
	for i := range pos {
		pos[i] = -1
	}
	for i, in := range instrs {
		pos[in.ID-lo] = int32(i)
	}
	for i, in := range instrs {
		for _, a := range in.Args {
			if def, ok := a.(*ir.Instr); ok && def.ID >= lo && def.ID <= hi {
				if j := int(pos[def.ID-lo]); j >= 0 && j < i {
					add(j, i)
				}
			}
		}
	}

	// Memory ordering: last writer / readers per storage.
	if s.lastWrite == nil {
		s.lastWrite, s.readers = map[ir.Storage]int{}, map[ir.Storage][]int{}
	}
	lastWrite, readers := s.lastWrite, s.readers
	clear(lastWrite)
	clear(readers)
	lastFence := -1
	for i, in := range instrs {
		switch in.Op {
		case ir.OpLoad:
			if w, ok := lastWrite[in.Mem]; ok {
				add(w, i)
			}
			if lastFence >= 0 {
				add(lastFence, i)
			}
			readers[in.Mem] = append(readers[in.Mem], i)
		case ir.OpStore, ir.OpAtomic:
			if w, ok := lastWrite[in.Mem]; ok {
				add(w, i)
			}
			for _, r := range readers[in.Mem] {
				add(r, i)
			}
			if lastFence >= 0 {
				add(lastFence, i)
			}
			lastWrite[in.Mem] = i
			readers[in.Mem] = nil
		case ir.OpBarrier:
			// Full fence: order against every prior memory op.
			for st, w := range lastWrite {
				add(w, i)
				delete(lastWrite, st)
			}
			for st, rs := range readers {
				for _, r := range rs {
					add(r, i)
				}
				delete(readers, st)
			}
			lastFence = i
		}
	}
	return succ, pred
}

// ScheduleBlock returns the list-scheduled length of one basic block in
// cycles.
func ScheduleBlock(b *ir.Block, cfg *Config) int {
	var s blockScratch
	succ, pred := s.dfg(b.Instrs, cfg.Latency)
	_, length := s.schedule(b.Instrs, succ, pred, cfg)
	return length
}

// asapTimes writes each instruction's earliest start in its block,
// ignoring resources, into at[in.ID]: pred holds only edges from earlier
// instructions, so one forward pass settles every time.
func asapTimes(instrs []*ir.Instr, pred [][]dfgEdge, at []int) {
	for i, in := range instrs {
		t := 0
		for _, e := range pred[i] {
			if v := at[instrs[e.to].ID] + e.delay; v > t {
				t = v
			}
		}
		at[in.ID] = t
	}
}

// listSchedule runs resource-aware list scheduling (ASAP with
// critical-path priority) over instrs, whose dependence graph is
// succ/pred, and returns each instruction's start cycle and the
// makespan.
func listSchedule(instrs []*ir.Instr, succ, pred [][]dfgEdge, cfg *Config) (start []int, length int) {
	return new(blockScratch).schedule(instrs, succ, pred, cfg)
}

// schedule is listSchedule on s's tables.
func (s *blockScratch) schedule(instrs []*ir.Instr, succ, pred [][]dfgEdge, cfg *Config) (start []int, length int) {
	res := cfg.Res.Sane()
	n := len(instrs)

	// Priority: longest path to any sink (classic critical-path).
	prio := zeroed(s.prio, n)
	s.prio = prio
	for i := n - 1; i >= 0; i-- {
		best := cfg.Latency(instrs[i])
		for _, e := range succ[i] {
			if v := e.delay + prio[e.to]; v > best {
				best = v
			}
		}
		prio[i] = best
	}

	// Candidates are taken highest priority first, then lowest index:
	// a fixed order, so sort once and filter it every cycle.
	order := zeroed(s.order, n)
	s.order = order
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if prio[a] != prio[b] {
			return prio[b] - prio[a]
		}
		return a - b
	})

	// Earliest start from predecessors (updated as nodes are placed).
	ready := zeroed(s.ready, n) // earliest cycle by dependences
	remaining := zeroed(s.remaining, n)
	for i := range instrs {
		remaining[i] = len(pred[i])
	}
	scheduled := zeroed(s.scheduled, n)
	start = zeroed(s.start, n)
	cand := slices.Grow(s.cand[:0], n)
	s.ready, s.remaining, s.scheduled, s.start = ready, remaining, scheduled, start

	// Per-cycle resource usage by kind, grown on demand.
	usage := &s.usage
	for k := range usage {
		usage[k] = usage[k][:0]
	}

	placed := 0
	cycle := 0
	const maxCycles = 1 << 22
	for placed < n && cycle < maxCycles {
		// Collect ready nodes at this cycle, in priority order.
		cand = cand[:0]
		for _, i := range order {
			if !scheduled[i] && remaining[i] == 0 && ready[i] <= cycle {
				cand = append(cand, i)
			}
		}
		for _, i := range cand {
			k := cfg.resourceOf(instrs[i])
			if k != resNone {
				u := usage[k]
				if cycle >= len(u) {
					u = append(u, make([]int, cycle+1-len(u))...)
					usage[k] = u
				}
				if u[cycle] >= res.limit(k) {
					continue // resource conflict; try next cycle
				}
				u[cycle]++
			}
			scheduled[i] = true
			start[i] = cycle
			placed++
			for _, e := range succ[i] {
				if t := cycle + e.delay; t > ready[e.to] {
					ready[e.to] = t
				}
				remaining[e.to]--
			}
		}
		cycle++
	}
	s.cand = cand

	for i, in := range instrs {
		if end := start[i] + cfg.Latency(in); end > length {
			length = end
		}
	}
	return start, length
}

// FuncTotals aggregates frequency-weighted resource counts over the whole
// work-item (N_read, N_write etc. of Eq. 4, where the counts are the
// maxima over the work-item pipeline).
type FuncTotals struct {
	LocalReads  float64
	LocalWrites float64
	DSPOps      float64
}

// Totals computes frequency-weighted operation totals per work-item.
// freq maps blocks to average executions per work-item (1 if absent).
func Totals(f *ir.Func, freq map[*ir.Block]float64, cfg *Config) FuncTotals {
	var t FuncTotals
	for _, b := range f.Blocks {
		w, ok := freq[b]
		if !ok {
			w = 1
		}
		for _, in := range b.Instrs {
			switch device.Classify(in) {
			case device.ClassLocalLoad:
				t.LocalReads += w
			case device.ClassLocalStore:
				t.LocalWrites += w
			}
			if cfg.Table != nil && cfg.Table.DSPCost(device.Classify(in)) > 0 {
				t.DSPOps += w
			}
		}
	}
	return t
}

// ResMII implements Eq. 3–4: the resource-constrained minimum initiation
// interval from local-memory ports and DSP cores.
func ResMII(t FuncTotals, res Resources) int {
	res = res.Sane()
	mii := 1
	if v := int(math.Ceil(t.LocalReads / float64(res.LocalRead))); v > mii {
		mii = v
	}
	if v := int(math.Ceil(t.LocalWrites / float64(res.LocalWrite))); v > mii {
		mii = v
	}
	if v := int(math.Ceil(t.DSPOps / float64(res.DSPSlots))); v > mii {
		mii = v
	}
	return mii
}

// typeIsIdx reports an integer scalar suitable for index chains.
func typeIsIdx(t ast.Type) bool { return t.IsScalar() && t.Base.IsInteger() }
