package interp

import (
	"fmt"
	"sort"

	"repro/internal/interp/static"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/opencl/ast"
)

// Source identifies which profiling path produced a Profile.
type Source string

// Profiling paths, cheapest first. Every path yields the exact same
// Profile for a given (kernel, launch, sample) — the "profile" check
// family and TestStaticVsInterpCorpus enforce it corpus-wide.
const (
	// SourceStatic: the static slice executor walked only the control
	// flow and address computations, without running work-groups.
	SourceStatic Source = "static"
	// SourceInterp: the reference sequential interpreter.
	SourceInterp Source = "interp"
)

// profStepLimit is the per-work-item runaway-loop guard shared by the
// interpreter and the plan executor; tests lower it to exercise the
// guard without burning 64M steps (see export_test.go).
var profStepLimit int64 = 64 << 20

type planEntry struct {
	plan   *static.Plan // nil when the kernel declined analysis
	reason string       // decline reason when plan is nil
}

// planFor returns f's static analysis, computed once per function and
// stored on it (ir.Func.Plan), so it lives exactly as long as f.
func planFor(f *ir.Func) *planEntry {
	return f.Plan(buildPlan).(*planEntry)
}

func buildPlan(f *ir.Func) any {
	e := &planEntry{}
	plan, err := static.Analyze(f, static.Options{
		KnownCall:   KnownBuiltin,
		KnownAtomic: KnownAtomic,
	})
	if err != nil {
		e.reason = err.Error()
	} else {
		e.plan = plan
	}
	return e
}

// StaticAnalyzable reports whether f's profile can be produced by the
// static fast path, with the decline reason when it cannot.
func StaticAnalyzable(f *ir.Func) (bool, string) {
	e := planFor(f)
	return e.plan != nil, e.reason
}

// profileDispatch tries the profiling paths cheapest-first, streaming
// each completed group to sink.
func profileDispatch(f *ir.Func, cfg *Config, sample groupSample, sink GroupSink) (*Profile, error) {
	if e := planFor(f); e.plan != nil {
		prof, err := runPlan(e.plan, cfg, sample, sink)
		if err == nil {
			obs.Global().Counter("profile_static_total", "").Inc()
			return prof, nil
		}
		// The launch faults. Rerun on the interpreter so the error and
		// the partial profile are byte-identical to the reference path
		// (the slice executor has not touched the buffers, so the rerun
		// starts from the same state). The rerun streams from ordinal 0
		// again, which tells sink to drop what the faulting run streamed.
	}
	obs.Global().Counter("profile_interp_total", "").Inc()
	return execute(f, cfg, sample, sink)
}

// InterpProfile profiles f with the sequential interpreter, bypassing
// the static fast path. Exported so tests and benchmarks can pin the
// path; callers wanting the fast path use ProfileKernel/
// ProfileKernelSpread.
func InterpProfile(f *ir.Func, cfg *Config, maxGroups int, spread bool) (*Profile, error) {
	if maxGroups <= 0 {
		maxGroups = 2
	}
	sample := sampleFor(cfg, maxGroups, spread)
	return materialize(func(sink GroupSink) (*Profile, error) {
		return execute(f, cfg, sample, sink)
	})
}

// StaticProfile profiles f using only the static slice executor. ok
// reports whether the kernel is statically analyzable; when false the
// profile and error are nil and the caller must interpret instead.
func StaticProfile(f *ir.Func, cfg *Config, maxGroups int, spread bool) (*Profile, bool, error) {
	if maxGroups <= 0 {
		maxGroups = 2
	}
	e := planFor(f)
	if e.plan == nil {
		return nil, false, nil
	}
	sample := sampleFor(cfg, maxGroups, spread)
	prof, err := materialize(func(sink GroupSink) (*Profile, error) {
		return runPlan(e.plan, cfg, sample, sink)
	})
	return prof, true, err
}

// Diff compares two profiles field for field (Source excluded: it
// records provenance, not content) and describes the first difference,
// or returns "" when they are identical. Float comparisons are bitwise:
// the fast paths promise exact equality, not approximation.
func (p *Profile) Diff(q *Profile) string {
	if p == nil || q == nil {
		if p == q {
			return ""
		}
		return fmt.Sprintf("nil mismatch: %v vs %v", p == nil, q == nil)
	}
	if p.WorkItems != q.WorkItems {
		return fmt.Sprintf("WorkItems %d vs %d", p.WorkItems, q.WorkItems)
	}
	if p.Barriers != q.Barriers {
		return fmt.Sprintf("Barriers %v vs %v", p.Barriers, q.Barriers)
	}
	if len(p.BlockCounts) != len(q.BlockCounts) {
		return fmt.Sprintf("BlockCounts size %d vs %d", len(p.BlockCounts), len(q.BlockCounts))
	}
	type bc struct {
		label string
		a, b  float64
		only  bool
	}
	var diffs []bc
	for b, c := range p.BlockCounts {
		c2, ok := q.BlockCounts[b]
		if !ok {
			diffs = append(diffs, bc{label: b.Label(), a: c, only: true})
		} else if c != c2 {
			diffs = append(diffs, bc{label: b.Label(), a: c, b: c2})
		}
	}
	if len(diffs) > 0 {
		sort.Slice(diffs, func(i, j int) bool { return diffs[i].label < diffs[j].label })
		d := diffs[0]
		if d.only {
			return fmt.Sprintf("BlockCounts[%s] %v vs missing", d.label, d.a)
		}
		return fmt.Sprintf("BlockCounts[%s] %v vs %v", d.label, d.a, d.b)
	}
	if len(p.Traces) != len(q.Traces) {
		return fmt.Sprintf("Traces len %d vs %d", len(p.Traces), len(q.Traces))
	}
	for i := range p.Traces {
		ta, tb := p.Traces[i], q.Traces[i]
		if len(ta) != len(tb) {
			return fmt.Sprintf("Traces[%d] len %d vs %d", i, len(ta), len(tb))
		}
		for j := range ta {
			if ta[j] != tb[j] {
				return fmt.Sprintf("Traces[%d][%d] %+v vs %+v", i, j, ta[j], tb[j])
			}
		}
	}
	return ""
}

// ---- static plan executor ----

// Operand source kinds: where a step reads each operand from.
const (
	srcZero uint8 = iota // value never computed by the slice (and never used)
	srcImm               // immediate: IR constant or launch scalar, resolved at compile
	srcReg               // slice register
)

// opSrc is one pre-resolved operand: immediates carry their value,
// register operands their dense slot — the hot loop never touches a map
// or a type switch to read an operand.
type opSrc struct {
	v    Val
	reg  int32
	kind uint8
}

// Step action kinds: the per-step dispatch is numeric, with the memory
// target's storage class decided at compile time.
const (
	aCompute uint8 = iota
	aBarrier
	aLoadParam
	aLoadAlloca
	aStoreParam
	aStoreAlloca
	aAtomicParam
	aAtomicAlloca
	aWorkItem
	aIntArith   // scalar integer arithmetic without a fault path
	aFloatArith // scalar float arithmetic
	aCmp        // scalar comparison
)

// Work-item query kinds. Queries that depend only on the NDRange fold
// to immediates at compile time (wiConst).
const (
	wiGlobalID uint8 = iota
	wiLocalID
	wiGroupID
	wiConst
)

// planStep is one pre-resolved executor step.
type planStep struct {
	in   *ir.Instr
	args []opSrc
	reg  int32 // result register, -1 when the value is not in the slice

	// Memory access pre-resolution (aLoad*/aStore*/aAtomic*).
	prm   *ir.Param // access target for the trace
	buf   *Buffer   // bound buffer (param accesses)
	cells []Val     // tracked alloca contents (nil: bounds-check only)
	count int64     // alloca cell count
	lanes int64     // element lanes of the access
	bytes int       // traced bytes of the access

	// Work-item query pre-resolution (aWorkItem).
	wi    uint8
	dim   int
	wiVal int64 // immediate for wiConst

	castFrom ast.Type // source type of an OpCast

	act uint8
}

// Terminator kinds.
const (
	tBr uint8 = iota
	tCondBr
	tRet
)

// blockPlan is the compiled form of one basic block: its non-terminator
// steps plus direct pointers to the successor plans, so walking the CFG
// costs no map lookups.
type blockPlan struct {
	idx     int
	nInstr  int64 // full instruction count, for the step guard
	steps   []planStep
	term    uint8
	to, els *blockPlan
	cond    opSrc
}

// planExec executes the profile slice of one plan. One instance serves
// a whole profiling run; all mutable state is reset per work-item.
type planExec struct {
	plan  *static.Plan
	cfg   *Config
	nd    NDRange
	entry *blockPlan

	group, local, global [3]int64

	regs    []Val
	tracked [][]Val // cell slices, for the per-work-item reset
	counts  []int64 // per-block visit counts of the current work-item
	gCounts []float64

	// The current group's global accesses, all work-items back to back in
	// one buffer reused by every group; ends[i] is where work-item i's
	// trace ends and wis views each trace for the sink.
	accesses []Access
	ends     []int
	wis      [][]Access

	barriers int
	steps    int64
}

func newPlanExec(p *static.Plan, cfg *Config, nd NDRange) *planExec {
	wgSize := nd.WorkGroupSize()
	x := &planExec{
		plan:    p,
		cfg:     cfg,
		nd:      nd,
		regs:    make([]Val, p.NumRegs),
		counts:  make([]int64, len(p.Fn.Blocks)),
		gCounts: make([]float64, len(p.Fn.Blocks)),
		ends:    make([]int, wgSize),
		wis:     make([][]Access, wgSize),
	}
	cells := make(map[*ir.Alloca][]Val, len(p.TrackedAllocas))
	for a := range p.TrackedAllocas {
		c := make([]Val, a.Count*int64(a.Elem.Lanes()))
		cells[a] = c
		x.tracked = append(x.tracked, c)
	}

	// Two passes: allocate every block plan first so branch targets can
	// link directly.
	plans := make(map[*ir.Block]*blockPlan, len(p.Fn.Blocks))
	for _, b := range p.Fn.Blocks {
		plans[b] = &blockPlan{idx: p.BlockIndex[b], nInstr: int64(len(b.Instrs))}
	}
	for _, b := range p.Fn.Blocks {
		bp := plans[b]
		for _, in := range p.Steps[b] {
			if in.Op.IsTerminator() {
				switch in.Op {
				case ir.OpBr:
					bp.term, bp.to = tBr, plans[in.To]
				case ir.OpCondBr:
					bp.term, bp.to, bp.els = tCondBr, plans[in.To], plans[in.Else]
					bp.cond = x.compileSrc(in.Args[0])
				case ir.OpRet:
					bp.term = tRet
				}
				continue
			}
			bp.steps = append(bp.steps, x.compileStep(in, cells))
		}
	}
	x.entry = plans[p.Fn.Entry()]
	return x
}

// compileSrc resolves one operand to its source.
func (x *planExec) compileSrc(v ir.Value) opSrc {
	switch t := v.(type) {
	case *ir.Const:
		if t.T.Base.IsFloat() {
			return opSrc{kind: srcImm, v: FloatVal(t.F)}
		}
		return opSrc{kind: srcImm, v: IntVal(t.I)}
	case *ir.Param:
		return opSrc{kind: srcImm, v: x.cfg.Scalars[t.PName]} // presence validated up front
	case *ir.Instr:
		if ri, ok := x.plan.RegIndex[t]; ok {
			return opSrc{kind: srcReg, reg: int32(ri)}
		}
	}
	return opSrc{kind: srcZero}
}

// compileStep pre-resolves one non-terminator step.
func (x *planExec) compileStep(in *ir.Instr, cells map[*ir.Alloca][]Val) planStep {
	st := planStep{in: in, reg: -1, act: aCompute}
	if ri, ok := x.plan.RegIndex[in]; ok {
		st.reg = int32(ri)
	}
	st.args = make([]opSrc, len(in.Args))
	for i, a := range in.Args {
		st.args[i] = x.compileSrc(a)
	}
	switch in.Op {
	case ir.OpBarrier:
		st.act = aBarrier
	case ir.OpAdd, ir.OpSub, ir.OpMul,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr:
		// Scalar integer ops have no fault path (Div/Rem stay on the
		// generic path for their division-by-zero errors) and dominate
		// address arithmetic — worth an inline fast path.
		if !in.T.IsVector() {
			st.act = aIntArith
		}
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		if !in.T.IsVector() {
			st.act = aFloatArith
		}
	case ir.OpICmp, ir.OpFCmp:
		if !in.T.IsVector() {
			st.act = aCmp
		}
	case ir.OpCast:
		st.castFrom = in.Args[0].Type()
	case ir.OpLoad:
		st.lanes = int64(in.T.Lanes())
		st.bytes = in.T.ElemSize()
		switch s := in.Mem.(type) {
		case *ir.Param:
			st.act, st.prm, st.buf = aLoadParam, s, x.cfg.Buffers[s.PName]
		case *ir.Alloca:
			st.act, st.count = aLoadAlloca, s.Count
			st.cells = cells[s]
		}
	case ir.OpStore:
		switch s := in.Mem.(type) {
		case *ir.Param:
			t := s.Elem()
			st.act, st.prm, st.buf = aStoreParam, s, x.cfg.Buffers[s.PName]
			st.lanes, st.bytes = int64(t.Lanes()), t.ElemSize()
		case *ir.Alloca:
			st.act, st.count = aStoreAlloca, s.Count
			st.lanes = int64(s.Elem.Lanes())
			st.cells = cells[s]
		}
	case ir.OpAtomic:
		switch s := in.Mem.(type) {
		case *ir.Param:
			t := s.Elem()
			st.act, st.prm, st.buf = aAtomicParam, s, x.cfg.Buffers[s.PName]
			st.lanes, st.bytes = int64(t.Lanes()), t.ElemSize()
		case *ir.Alloca:
			st.act, st.count = aAtomicAlloca, s.Count
			st.lanes = int64(s.Elem.Lanes())
		}
	case ir.OpWorkItem:
		st.act = aWorkItem
		st.dim = in.Dim
		if st.dim < 0 || st.dim > 2 {
			st.dim = 0
		}
		switch in.Fn {
		case "get_global_id":
			st.wi = wiGlobalID
		case "get_local_id":
			st.wi = wiLocalID
		case "get_group_id":
			st.wi = wiGroupID
		default:
			// NDRange-only queries are launch constants.
			n, _ := workItemVal(in.Fn, in.Dim, x.nd, [3]int64{}, [3]int64{}, [3]int64{})
			st.wi, st.wiVal = wiConst, n
		}
	}
	return st
}

// runPlan profiles the sampled work-groups of a launch by executing
// only the plan's slice, reproducing the interpreter's group and
// work-item iteration order, trace emission, bounds checks and profile
// accumulation exactly, and hands each completed group's traces to sink
// (when non-nil). Buffers are never mutated.
func runPlan(p *static.Plan, cfg *Config, sample groupSample, sink GroupSink) (*Profile, error) {
	nd := cfg.Range.Normalize()
	if nd.WorkGroupSize() <= 0 {
		return nil, fmt.Errorf("interp: empty work-group")
	}
	if err := validateArgs(p.Fn, cfg); err != nil {
		return nil, err
	}

	prof := &Profile{BlockCounts: make(map[*ir.Block]float64), Source: SourceStatic}
	x := newPlanExec(p, cfg, nd)
	err := sample.each(nd, func(ord int, group [3]int64) error {
		if err := x.runGroup(group, prof); err != nil {
			return err
		}
		if sink != nil {
			lo := 0
			for i, hi := range x.ends {
				x.wis[i] = x.accesses[lo:hi:hi]
				lo = hi
			}
			sink(ord, x.wis)
		}
		return nil
	})
	if err != nil {
		return prof, err
	}
	finalizeProfile(prof)
	return prof, nil
}

// runGroup executes every work-item of one group, leaving their traces
// in x.accesses. Like the interpreter, a group contributes to the
// profile only when every one of its work-items completes.
func (x *planExec) runGroup(group [3]int64, prof *Profile) error {
	x.group = group
	nd := x.nd
	blocks := x.plan.Fn.Blocks

	gWIs := 0
	gBarriers := 0.0
	for i := range x.gCounts {
		x.gCounts[i] = 0
	}
	x.accesses = x.accesses[:0]

	for lz := int64(0); lz < nd.Local[2]; lz++ {
		for ly := int64(0); ly < nd.Local[1]; ly++ {
			for lx := int64(0); lx < nd.Local[0]; lx++ {
				x.local = [3]int64{lx, ly, lz}
				x.global = [3]int64{
					group[0]*nd.Local[0] + lx,
					group[1]*nd.Local[1] + ly,
					group[2]*nd.Local[2] + lz,
				}
				if err := x.runWI(); err != nil {
					return err
				}
				if gWIs == 0 {
					// The work-items of one kernel trace near-identical
					// access counts: size the buffer for the whole group
					// from the first, instead of growing it by appends.
					if want := len(x.accesses) * len(x.ends); cap(x.accesses) < want {
						x.accesses = append(make([]Access, 0, want), x.accesses...)
					}
				}
				x.ends[gWIs] = len(x.accesses)
				gWIs++
				for bi, c := range x.counts {
					if c != 0 {
						x.gCounts[bi] += float64(c)
					}
				}
				gBarriers += float64(x.barriers)
			}
		}
	}

	prof.WorkItems += gWIs
	for bi, c := range x.gCounts {
		if c != 0 {
			prof.BlockCounts[blocks[bi]] += c
		}
	}
	prof.Barriers += gBarriers
	return nil
}

// runWI executes the slice for one work-item, appending its global
// accesses to x.accesses.
func (x *planExec) runWI() error {
	for i := range x.regs {
		x.regs[i] = Val{}
	}
	for _, cells := range x.tracked {
		for i := range cells {
			cells[i] = Val{}
		}
	}
	for i := range x.counts {
		x.counts[i] = 0
	}
	x.barriers = 0
	x.steps = 0

	bp := x.entry
	for {
		x.counts[bp.idx]++
		x.steps += bp.nInstr
		if x.steps > profStepLimit {
			return fmt.Errorf("interp: work-item exceeded %d steps (infinite loop?)", profStepLimit)
		}
		for i := range bp.steps {
			if err := x.step(&bp.steps[i]); err != nil {
				return err
			}
		}
		switch bp.term {
		case tBr:
			bp = bp.to
		case tCondBr:
			if truthy(x.src(bp.cond)) {
				bp = bp.to
			} else {
				bp = bp.els
			}
		default: // tRet
			return nil
		}
	}
}

// src reads one pre-resolved operand.
func (x *planExec) src(s opSrc) Val {
	if s.kind == srcReg {
		return x.regs[s.reg]
	}
	return s.v
}

// step executes one non-terminator slice step.
func (x *planExec) step(st *planStep) error {
	switch st.act {
	case aBarrier:
		// No synchronization: nothing in the slice crosses work-items.
		x.barriers++
		return nil
	case aWorkItem:
		if st.reg >= 0 {
			var n int64
			switch st.wi {
			case wiGlobalID:
				n = x.global[st.dim]
			case wiLocalID:
				n = x.local[st.dim]
			case wiGroupID:
				n = x.group[st.dim]
			default:
				n = st.wiVal
			}
			x.regs[st.reg] = IntVal(n)
		}
		return nil
	case aIntArith:
		// Mirrors scalarArithVal's integer cases exactly (64-bit, no
		// width truncation) minus the call and error plumbing.
		a, b := x.src(st.args[0]), x.src(st.args[1])
		var n int64
		switch st.in.Op {
		case ir.OpAdd:
			n = a.I + b.I
		case ir.OpSub:
			n = a.I - b.I
		case ir.OpMul:
			n = a.I * b.I
		case ir.OpAnd:
			n = a.I & b.I
		case ir.OpOr:
			n = a.I | b.I
		case ir.OpXor:
			n = a.I ^ b.I
		case ir.OpShl:
			n = a.I << uint(b.I&63)
		case ir.OpLShr:
			n = int64(uint64(a.I) >> uint(b.I&63))
		default: // ir.OpAShr
			n = a.I >> uint(b.I&63)
		}
		if st.reg >= 0 {
			x.regs[st.reg] = IntVal(n)
		}
		return nil
	case aFloatArith:
		a, b := x.src(st.args[0]), x.src(st.args[1])
		var f float64
		switch st.in.Op {
		case ir.OpFAdd:
			f = a.F + b.F
		case ir.OpFSub:
			f = a.F - b.F
		case ir.OpFMul:
			f = a.F * b.F
		default: // ir.OpFDiv
			f = a.F / b.F
		}
		if st.reg >= 0 {
			x.regs[st.reg] = FloatVal(f)
		}
		return nil
	case aCmp:
		// Mirrors compareVal's scalar path exactly.
		if st.reg >= 0 {
			a, b := x.src(st.args[0]), x.src(st.args[1])
			var r bool
			if st.in.Op == ir.OpFCmp {
				switch st.in.Pr {
				case ir.PredEQ:
					r = a.F == b.F
				case ir.PredNE:
					r = a.F != b.F
				case ir.PredLT:
					r = a.F < b.F
				case ir.PredLE:
					r = a.F <= b.F
				case ir.PredGT:
					r = a.F > b.F
				case ir.PredGE:
					r = a.F >= b.F
				}
			} else {
				switch st.in.Pr {
				case ir.PredEQ:
					r = a.I == b.I
				case ir.PredNE:
					r = a.I != b.I
				case ir.PredLT:
					r = a.I < b.I
				case ir.PredLE:
					r = a.I <= b.I
				case ir.PredGT:
					r = a.I > b.I
				case ir.PredGE:
					r = a.I >= b.I
				}
			}
			if r {
				x.regs[st.reg] = IntVal(1)
			} else {
				x.regs[st.reg] = IntVal(0)
			}
		}
		return nil
	case aLoadParam:
		idx := x.src(st.args[0]).I
		base := idx * st.lanes
		if base < 0 || base+st.lanes > int64(st.buf.Len()) {
			return fmt.Errorf("interp: load out of bounds: %s[%d] (len %d)", st.prm.PName, idx, st.buf.Len()/int(st.lanes))
		}
		x.accesses = append(x.accesses, Access{
			Param: st.prm, Index: idx, Bytes: st.bytes, Write: false,
		})
		if st.reg >= 0 {
			x.regs[st.reg] = readBufPlain(st.buf, base, st.lanes)
		}
		return nil
	case aLoadAlloca:
		idx := x.src(st.args[0]).I
		base := idx * st.lanes
		want := st.count * st.lanes
		if base < 0 || base+st.lanes > want {
			return fmt.Errorf("interp: load out of bounds: %s[%d] (len %d)", st.in.Mem.(*ir.Alloca).AName, idx, st.count)
		}
		if st.reg >= 0 {
			if st.lanes == 1 {
				x.regs[st.reg] = st.cells[base]
			} else {
				out := Val{Vec: make([]Val, st.lanes)}
				copy(out.Vec, st.cells[base:base+st.lanes])
				x.regs[st.reg] = out
			}
		}
		return nil
	case aStoreParam:
		// Global buffers are left untouched — no statically analyzable
		// kernel reads back what it wrote (that is the analyzability
		// criterion) — so the store only traces and bounds-checks.
		idx := x.src(st.args[0]).I
		base := idx * st.lanes
		if base < 0 || base+st.lanes > int64(st.buf.Len()) {
			return fmt.Errorf("interp: store out of bounds: %s[%d] (len %d)", st.prm.PName, idx, st.buf.Len()/int(st.lanes))
		}
		x.accesses = append(x.accesses, Access{
			Param: st.prm, Index: idx, Bytes: st.bytes, Write: true,
		})
		return nil
	case aStoreAlloca:
		idx := x.src(st.args[0]).I
		base := idx * st.lanes
		want := st.count * st.lanes
		if base < 0 || base+st.lanes > want {
			return fmt.Errorf("interp: store out of bounds: %s[%d] (len %d)", st.in.Mem.(*ir.Alloca).AName, idx, st.count)
		}
		if st.cells != nil { // tracked: contents modelled exactly
			v := x.src(st.args[1])
			if st.lanes == 1 {
				st.cells[base] = v
			} else {
				for i := int64(0); i < st.lanes; i++ {
					st.cells[base+i] = lane(v, int(i))
				}
			}
		}
		return nil
	case aAtomicParam:
		// An atomic whose result the slice never consumes (the analyzer
		// declines otherwise): trace the read-modify-write pair, leave
		// the cell alone — its value can only feed data computation.
		idx := x.src(st.args[0]).I
		base := idx * st.lanes
		if base < 0 || base+st.lanes > int64(st.buf.Len()) {
			return fmt.Errorf("interp: load out of bounds: %s[%d] (len %d)", st.prm.PName, idx, st.buf.Len()/int(st.lanes))
		}
		x.accesses = append(x.accesses,
			Access{Param: st.prm, Index: idx, Bytes: st.bytes, Write: false},
			Access{Param: st.prm, Index: idx, Bytes: st.bytes, Write: true})
		return nil
	case aAtomicAlloca:
		idx := x.src(st.args[0]).I
		base := idx * st.lanes
		want := st.count * st.lanes
		if base < 0 || base+st.lanes > want {
			return fmt.Errorf("interp: load out of bounds: %s[%d] (len %d)", st.in.Mem.(*ir.Alloca).AName, idx, st.count)
		}
		return nil
	}

	// The remaining steps are needed pure computations.
	in := st.in
	var v Val
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr,
		ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		av, err := arithVal(in, x.src(st.args[0]), x.src(st.args[1]))
		if err != nil {
			return err
		}
		v = av
	case ir.OpICmp, ir.OpFCmp:
		v = compareVal(in, x.src(st.args[0]), x.src(st.args[1]))
	case ir.OpSelect:
		v = selectVal(in, x.src(st.args[0]), x.src(st.args[1]), x.src(st.args[2]))
	case ir.OpCast:
		v = castVal(x.src(st.args[0]), st.castFrom, in.T)
	case ir.OpCall:
		args := make([]Val, len(st.args))
		for i := range st.args {
			args[i] = x.src(st.args[i])
		}
		bv, err := builtinVal(in, args)
		if err != nil {
			return err
		}
		v = bv
	case ir.OpVecBuild:
		args := make([]Val, len(st.args))
		for i := range st.args {
			args[i] = x.src(st.args[i])
		}
		v = vecBuildVal(args)
	case ir.OpVecExtract:
		v = vecExtractVal(in, x.src(st.args[0]))
	case ir.OpVecInsert:
		args := make([]Val, len(st.args))
		for i := range st.args {
			args[i] = x.src(st.args[i])
		}
		v = vecInsertVal(in, args)
	default:
		return fmt.Errorf("interp: static executor met unplanned op %v", in.Op)
	}
	if st.reg >= 0 {
		x.regs[st.reg] = v
	}
	return nil
}

// readBufPlain mirrors readBuf without per-element atomics.
func readBufPlain(b *Buffer, base, lanes int64) Val {
	get := func(i int64) Val {
		if b.Elem.Base.IsFloat() {
			return FloatVal(b.F[i])
		}
		return IntVal(b.I[i])
	}
	if lanes == 1 {
		return get(base)
	}
	out := Val{Vec: make([]Val, lanes)}
	for i := int64(0); i < lanes; i++ {
		out.Vec[i] = get(base + i)
	}
	return out
}
