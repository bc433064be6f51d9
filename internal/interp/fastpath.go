package interp

import (
	"fmt"
	"math"
	"slices"
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
	sample := sampleFor(cfg, maxGroups, spread)
	return materialize(func(sink GroupSink) (*Profile, error) {
		return execute(f, cfg, sample, sink)
	})
}

// StaticProfile profiles f using only the static slice executor. ok
// reports whether the kernel is statically analyzable; when false the
// profile and error are nil and the caller must interpret instead. A
// launch that faults returns the first faulting work-item's error and
// no profile.
func StaticProfile(f *ir.Func, cfg *Config, maxGroups int, spread bool) (*Profile, bool, error) {
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

// Register banks. Every value the slice reads sits in one bank, fixed
// from its IR type when the plan compiles (bankOf): scalar integers,
// bool included, in []int64, scalar floats in []float64 and vectors in
// []Val. Each bank holds the slice's registers, then the cells of the
// tracked allocas of its element type, then constant slots: IR
// constants, launch scalars, NDRange-only work-item queries and the zero
// a value the slice never computes reads as, filled once per executor.
// Only registers and cells are reset per work-item.
//
// Exactness rests on one invariant: a typed slot holds exactly the field
// of the interpreter's Val that the value's IR type selects (I for
// integers, F for floats), and that Val's other field is zero, so the
// slot read back as IntVal or FloatVal is the interpreter's Val bitwise.
// IR constants meet it by construction; launch scalars and buffer
// elements because validateArgs rejects a value that does not fit its
// parameter's type; typed steps because they compute the selected field
// with the interpreter's own scalar helpers; generic steps because
// pureVal fits every scalar result to its type; and tracked cells
// because irgen converts every stored value to its cell's type.
// FuzzAffineAnalyzer's seeds cross every bank boundary.
const (
	bInt uint8 = iota
	bFlt
	bVal
)

// bankOf is the bank of a value of type t.
func bankOf(t ast.Type) uint8 {
	switch {
	case t.IsVector():
		return bVal
	case t.Base.IsFloat():
		return bFlt
	}
	return bInt
}

// opSrc is one pre-resolved operand or result: a slot of one bank.
type opSrc struct {
	bank uint8
	slot int32
}

// Step action kinds: the per-step dispatch is numeric, with each
// operand's bank and the memory target's storage class decided at
// compile time. Typed steps work on the int64/float64 slots of the banks
// their kind names; the others move Vals through get and put.
const (
	aGeneric    uint8 = iota // put(dst, pureVal(in, get(args...)))
	aBarrier                 // no synchronization: nothing in the slice crosses work-items
	aWorkItem                // ints[dst] = the work-item query
	aIntArith                // ints[dst] = intArith(op, ints[a], ints[b])
	aFloatArith              // flts[dst] = floatArith(op, flts[a], flts[b])
	aIntCmp                  // ints[dst] = compare(pr, ints[a], ints[b])
	aFloatCmp                // ints[dst] = compare(pr, flts[a], flts[b])
	aCastII                  // ints[dst] = truncInt(ints[a], kind)
	aCastIF                  // flts[dst] = intToFloat(ints[a])
	aCastFI                  // ints[dst] = floatToInt(flts[a], kind)
	aCastFF                  // flts[dst] = floatToFloat(flts[a], kind)

	// Memory steps index with ints[a]. A tracked alloca's cells are
	// slots mem.cell.slot onwards of bank mem.cell.bank.
	aLoadParam     // ints or flts[dst] = the buffer cell
	aLoadParamVal  // put(dst, readBuf(...)): vector loads
	aLoadAlloca    // bank[dst] = bank[cell]: a scalar cell of dst's bank
	aLoadAllocaVal // put(dst, the cells' Val): vector cells
	aStoreParam
	aStoreAlloca    // bank[cell] = bank[b]: a scalar cell of the value's bank
	aStoreAllocaVal // the lanes of get(val) put into the cells
	aAtomicParam
	aAtomicAlloca
)

// Work-item query kinds. Queries that depend only on the NDRange fold
// to a constant slot at compile time (wiConst reads ints[a]).
const (
	wiGlobalID uint8 = iota
	wiLocalID
	wiGroupID
	wiConst
)

// planStep is one pre-resolved executor step, 64 bytes, so a typed step
// reads one cache line. Every non-memory step is in the slice because
// the slice needs its value, so it has a dst; a memory step's dst.slot
// is -1 when the slice never reads the value.
type planStep struct {
	act  uint8
	op   uint8 // typed arithmetic's ir.Op
	pr   uint8 // typed comparison's ir.Pred
	kind uint8 // typed cast's target ast.BaseKind
	wi   uint8 // aWorkItem's query kind
	dim  uint8 // aWorkItem's dimension
	a, b int32 // typed operand slots, in the banks act implies
	dst  opSrc

	in   *ir.Instr // generic evaluation and fault messages
	args []opSrc   // generic step's operands
	mem  *memStep  // memory step's target
}

// memStep is a memory step's pre-resolved target.
type memStep struct {
	prm   uint16  // the traced parameter's index (param accesses)
	bytes uint8   // traced bytes of the access
	buf   *Buffer // bound buffer (param accesses)
	cell  opSrc   // first cell of a tracked alloca (slot -1: untracked)
	val   opSrc   // aStoreAllocaVal's value
	n     int64   // scalar cells of the target
	lanes int64   // element lanes of the access
	elems int64   // whole elements of the access in the target: n / lanes
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

// planExec executes the profile slice of one plan for one worker of a
// sweep (see sweep.go); all mutable state is reset per work-item.
type planExec struct {
	plan  *static.Plan
	entry *blockPlan

	group, local, global [3]int64

	ints  []int64
	flts  []float64
	vals  []Val
	reset [3]int32 // per bank, the register and cell slots before the constants
	args  []Val    // generic step's operand scratch

	counts []int64 // per-block visit counts of the current work-item

	// accesses collects the global accesses of the chunk being executed,
	// its work-items back to back; the sweep owns the buffer.
	accesses []Access

	barriers int
	steps    int64
}

// planCompiler lays out one executor's banks and compiles its steps.
type planCompiler struct {
	p    *static.Plan
	cfg  *Config
	nd   NDRange
	size [3]int64 // slots allocated per bank

	regs   []opSrc // by static.Plan.RegIndex
	cells  map[*ir.Alloca]opSrc
	intK   map[int64]opSrc
	fltK   map[uint64]opSrc // by bits
	consts []constSlot
	mems   []memStep // every memory step's target, allocated at once
	srcs   []opSrc   // operand scratch
	err    error     // the first step that cannot be compiled
}

type constSlot struct {
	at opSrc
	v  Val
}

func newPlanExec(p *static.Plan, cfg *Config, nd NDRange) (*planExec, error) {
	c := &planCompiler{
		p: p, cfg: cfg, nd: nd,
		regs:  make([]opSrc, p.NumRegs),
		cells: make(map[*ir.Alloca]opSrc, len(p.TrackedAllocas)),
		intK:  make(map[int64]opSrc),
		fltK:  make(map[uint64]opSrc),
	}
	// Registers, then tracked cells: the slots reset per work-item.
	nmem := 0
	for _, b := range p.Fn.Blocks {
		for _, in := range p.Steps[b] {
			if ri, ok := p.RegIndex[in]; ok {
				c.regs[ri] = c.alloc(bankOf(in.T), 1)
			}
			if in.Op.IsMemAccess() {
				nmem++
			}
		}
	}
	c.mems = make([]memStep, 0, nmem)
	for _, a := range p.Fn.Allocas {
		if p.TrackedAllocas[a] {
			c.cells[a] = c.alloc(bankOf(a.Elem), a.Count*int64(a.Elem.Lanes()))
		}
	}
	reset := c.size

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
					bp.cond = c.src(in.Args[0])
				case ir.OpRet:
					bp.term = tRet
				}
				continue
			}
			bp.steps = append(bp.steps, c.step(in))
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	for _, n := range c.size {
		if n > math.MaxInt32 {
			return nil, fmt.Errorf("interp: static executor: %d register and cell slots exceed its slot range", n)
		}
	}

	x := &planExec{
		plan:   p,
		entry:  plans[p.Fn.Entry()],
		ints:   make([]int64, c.size[bInt]),
		flts:   make([]float64, c.size[bFlt]),
		vals:   make([]Val, c.size[bVal]),
		reset:  [3]int32{int32(reset[bInt]), int32(reset[bFlt]), int32(reset[bVal])},
		counts: make([]int64, len(p.Fn.Blocks)),
	}
	for _, k := range c.consts {
		x.put(k.at, k.v)
	}
	return x, nil
}

// alloc reserves n consecutive slots of bank and returns the first.
// Sizes past the int32 slot range fail newPlanExec before any use.
func (c *planCompiler) alloc(bank uint8, n int64) opSrc {
	s := opSrc{bank: bank, slot: int32(c.size[bank])}
	c.size[bank] += n
	return s
}

// constant returns a slot holding v as a value of type t holds it, one
// slot per distinct scalar.
func (c *planCompiler) constant(t ast.Type, v Val) opSrc {
	var s opSrc
	switch bank := bankOf(t); bank {
	case bInt:
		if k, ok := c.intK[v.I]; ok {
			return k
		}
		s = c.alloc(bank, 1)
		c.intK[v.I] = s
	case bFlt:
		if k, ok := c.fltK[math.Float64bits(v.F)]; ok {
			return k
		}
		s = c.alloc(bank, 1)
		c.fltK[math.Float64bits(v.F)] = s
	default:
		s = c.alloc(bank, 1)
	}
	c.consts = append(c.consts, constSlot{at: s, v: v})
	return s
}

// src resolves one operand to its slot.
func (c *planCompiler) src(v ir.Value) opSrc {
	switch t := v.(type) {
	case *ir.Const:
		if t.T.Base.IsFloat() {
			return c.constant(t.T, FloatVal(t.F))
		}
		return c.constant(t.T, IntVal(t.I))
	case *ir.Param:
		return c.constant(t.T, c.cfg.Scalars[t.PName]) // validated up front
	case *ir.Instr:
		if ri, ok := c.p.RegIndex[t]; ok {
			return c.regs[ri]
		}
	}
	// Outside the slice: no step reads it, since the analyzer puts every
	// operand of a needed instruction in the slice.
	return c.constant(v.Type(), Val{})
}

// index resolves a memory access's index to an int slot. irgen converts
// every index to long; an index of any other type would read as the
// interpreter's Val.I of it, zero by the slot invariant.
func (c *planCompiler) index(v ir.Value) int32 {
	s := c.src(v)
	if s.bank != bInt {
		s = c.constant(ast.Scalar(ast.KLong), Val{})
	}
	return s.slot
}

// step pre-resolves one non-terminator step: a typed step when its
// operands and result sit in the banks the operation works on, else a
// generic one.
func (c *planCompiler) step(in *ir.Instr) planStep {
	st := planStep{act: aGeneric, in: in, dst: opSrc{slot: -1}}
	if ri, ok := c.p.RegIndex[in]; ok {
		st.dst = c.regs[ri]
	}
	switch in.Op {
	case ir.OpBarrier:
		st.act = aBarrier
		return st
	case ir.OpWorkItem:
		st.act = aWorkItem
		if in.Dim >= 0 && in.Dim <= 2 {
			st.dim = uint8(in.Dim)
		}
		switch in.Fn {
		case "get_global_id":
			st.wi = wiGlobalID
		case "get_local_id":
			st.wi = wiLocalID
		case "get_group_id":
			st.wi = wiGroupID
		default:
			// NDRange-only queries are launch constants, read from ints[a].
			n, _ := workItemVal(in.Fn, in.Dim, c.nd, [3]int64{}, [3]int64{}, [3]int64{})
			st.wi, st.a = wiConst, c.constant(in.T, IntVal(n)).slot
		}
		return st
	case ir.OpLoad, ir.OpStore, ir.OpAtomic:
		c.memStep(in, &st)
		return st
	}

	args := c.srcs[:0]
	for _, a := range in.Args {
		args = append(args, c.src(a))
	}
	c.srcs = args
	typed := func(res, opd uint8) bool {
		if st.dst.bank != res || len(args) == 0 {
			return false
		}
		for _, a := range args {
			if a.bank != opd {
				return false
			}
		}
		return true
	}
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr:
		if typed(bInt, bInt) {
			st.act, st.op = aIntArith, uint8(in.Op)
		}
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		if typed(bFlt, bFlt) {
			st.act, st.op = aFloatArith, uint8(in.Op)
		}
	case ir.OpICmp:
		if typed(bInt, bInt) {
			st.act, st.pr = aIntCmp, uint8(in.Pr)
		}
	case ir.OpFCmp:
		if typed(bInt, bFlt) {
			st.act, st.pr = aFloatCmp, uint8(in.Pr)
		}
	case ir.OpCast:
		switch {
		case typed(bInt, bInt):
			st.act = aCastII
		case typed(bFlt, bInt):
			st.act = aCastIF
		case typed(bInt, bFlt):
			st.act = aCastFI
		case typed(bFlt, bFlt):
			st.act = aCastFF
		}
		st.kind = uint8(in.T.Base)
	}
	if st.act == aGeneric {
		st.args = slices.Clone(args)
	} else {
		st.a = args[0].slot
		if len(args) > 1 {
			st.b = args[1].slot
		}
	}
	return st
}

// memStep pre-resolves a load, store or atomic: its index, bounds and
// trace record, and the bank a tracked alloca's value moves through.
func (c *planCompiler) memStep(in *ir.Instr, st *planStep) {
	st.a = c.index(in.Args[0])
	c.mems = append(c.mems, memStep{cell: opSrc{slot: -1}})
	m := &c.mems[len(c.mems)-1]
	st.mem = m
	// A load moves an element of its own type, a store or an atomic one
	// of its target's.
	elem := in.T
	switch s := in.Mem.(type) {
	case *ir.Param:
		if in.Op != ir.OpLoad {
			elem = s.Elem()
		}
		bytes, err := accessWidth(elem)
		if err != nil && c.err == nil {
			c.err = err
		}
		m.lanes, m.bytes = int64(elem.Lanes()), bytes
		m.prm, m.buf = uint16(s.Index), c.cfg.Buffers[s.PName]
		m.n = int64(m.buf.Len())
		m.elems = m.n / m.lanes
		switch in.Op {
		case ir.OpLoad:
			st.act = aLoadParamVal
			if st.dst.bank != bVal && (st.dst.bank == bFlt) == m.buf.Elem.Base.IsFloat() {
				st.act = aLoadParam
			}
		case ir.OpStore:
			st.act = aStoreParam
		default:
			st.act = aAtomicParam
		}
	case *ir.Alloca:
		if in.Op != ir.OpLoad {
			elem = s.Elem
		}
		m.lanes = int64(elem.Lanes())
		m.n = s.Count * int64(s.Elem.Lanes())
		m.elems = m.n / m.lanes
		if cell, ok := c.cells[s]; ok {
			m.cell = cell
		}
		switch in.Op {
		case ir.OpLoad:
			st.act = aLoadAllocaVal
			if st.dst.bank != bVal && st.dst.bank == m.cell.bank {
				st.act = aLoadAlloca
			}
		case ir.OpStore:
			st.act = aStoreAlloca
			if m.cell.slot >= 0 { // tracked: contents modelled exactly
				m.val = c.src(in.Args[1])
				st.b = m.val.slot
				if m.val.bank == bVal || m.val.bank != m.cell.bank {
					st.act = aStoreAllocaVal
				}
			}
		default:
			st.act = aAtomicAlloca
		}
	}
}

// runPlan profiles one launch with the static slice executor: a sweep
// of that launch alone, on one worker, under sample (see runSweep).
func runPlan(p *static.Plan, cfg *Config, sample groupSample, sink GroupSink) (*Profile, error) {
	profs, err := runSweep(p, cfg, [][3]int64{cfg.Range.Local}, sample, 1, []GroupSink{sink})
	if err != nil {
		return nil, err
	}
	return profs[0], nil
}

// get reads a slot as the interpreter's Val.
func (x *planExec) get(s opSrc) Val {
	switch s.bank {
	case bInt:
		return IntVal(x.ints[s.slot])
	case bFlt:
		return FloatVal(x.flts[s.slot])
	}
	return x.vals[s.slot]
}

// put writes v to a slot, keeping the field the slot's bank holds (v
// fits it by the slot invariant).
func (x *planExec) put(s opSrc, v Val) {
	switch s.bank {
	case bInt:
		x.ints[s.slot] = v.I
	case bFlt:
		x.flts[s.slot] = v.F
	default:
		x.vals[s.slot] = v
	}
}

// runWI executes the slice for one work-item, appending its global
// accesses to x.accesses.
func (x *planExec) runWI() error {
	clear(x.ints[:x.reset[bInt]])
	clear(x.flts[:x.reset[bFlt]])
	clear(x.vals[:x.reset[bVal]])
	clear(x.counts)
	x.barriers = 0
	x.steps = 0

	ints, flts := x.ints, x.flts
	bp := x.entry
	for {
		x.counts[bp.idx]++
		x.steps += bp.nInstr
		if x.steps > profStepLimit {
			return fmt.Errorf("interp: work-item exceeded %d steps (infinite loop?)", profStepLimit)
		}
		for i := range bp.steps {
			st := &bp.steps[i]
			switch st.act {
			case aIntArith:
				ints[st.dst.slot] = intArith(ir.Op(st.op), ints[st.a], ints[st.b])
			case aFloatArith:
				flts[st.dst.slot] = floatArith(ir.Op(st.op), flts[st.a], flts[st.b])
			case aIntCmp:
				ints[st.dst.slot] = boolInt(compare(ir.Pred(st.pr), ints[st.a], ints[st.b]))
			case aFloatCmp:
				ints[st.dst.slot] = boolInt(compare(ir.Pred(st.pr), flts[st.a], flts[st.b]))
			case aCastII:
				ints[st.dst.slot] = truncInt(ints[st.a], ast.BaseKind(st.kind))
			case aCastIF:
				flts[st.dst.slot] = intToFloat(ints[st.a])
			case aCastFI:
				ints[st.dst.slot] = floatToInt(flts[st.a], ast.BaseKind(st.kind))
			case aCastFF:
				flts[st.dst.slot] = floatToFloat(flts[st.a], ast.BaseKind(st.kind))
			case aWorkItem:
				switch st.wi {
				case wiGlobalID:
					ints[st.dst.slot] = x.global[st.dim]
				case wiLocalID:
					ints[st.dst.slot] = x.local[st.dim]
				case wiGroupID:
					ints[st.dst.slot] = x.group[st.dim]
				default:
					ints[st.dst.slot] = ints[st.a]
				}
			case aBarrier:
				x.barriers++
			case aGeneric:
				args := x.args[:0]
				for _, s := range st.args {
					args = append(args, x.get(s))
				}
				x.args = args
				v, err := pureVal(st.in, args)
				if err != nil {
					return err
				}
				x.put(st.dst, v)
			default:
				// A memory step: the interpreter's bounds check, the trace
				// record of a global access, a tracked alloca's contents.
				// Global buffers are never written: no statically
				// analyzable kernel reads back what it wrote (that is the
				// analyzability criterion), so a store or an atomic only
				// traces and bounds-checks.
				m := st.mem
				idx := ints[st.a]
				if idx < 0 || idx >= m.elems { // inBounds, with n / lanes taken once
					return outOfBounds(st, idx)
				}
				base := idx * m.lanes
				switch st.act {
				case aLoadParam:
					x.accesses = append(x.accesses, Access{Param: m.prm, Index: uint32(idx), Bytes: m.bytes})
					if st.dst.slot >= 0 {
						if st.dst.bank == bFlt {
							flts[st.dst.slot] = loadFloat(m.buf, base)
						} else {
							ints[st.dst.slot] = loadInt(m.buf, base)
						}
					}
				case aLoadParamVal:
					x.accesses = append(x.accesses, Access{Param: m.prm, Index: uint32(idx), Bytes: m.bytes})
					if st.dst.slot >= 0 {
						x.put(st.dst, readBuf(m.buf, base, m.lanes))
					}
				case aLoadAlloca:
					if st.dst.slot >= 0 {
						at := int64(m.cell.slot) + base
						if st.dst.bank == bFlt {
							flts[st.dst.slot] = flts[at]
						} else {
							ints[st.dst.slot] = ints[at]
						}
					}
				case aLoadAllocaVal:
					if st.dst.slot >= 0 {
						x.put(st.dst, x.cellsVal(m.cell, base, m.lanes))
					}
				case aStoreParam:
					x.accesses = append(x.accesses, Access{Param: m.prm, Index: uint32(idx), Bytes: m.bytes, Write: true})
				case aStoreAlloca:
					if m.cell.slot >= 0 {
						at := int64(m.cell.slot) + base
						if m.cell.bank == bFlt {
							flts[at] = flts[st.b]
						} else {
							ints[at] = ints[st.b]
						}
					}
				case aStoreAllocaVal:
					v := x.get(m.val)
					for i := int64(0); i < m.lanes; i++ {
						x.put(opSrc{bank: m.cell.bank, slot: m.cell.slot + int32(base+i)}, lane(v, int(i)))
					}
				case aAtomicParam:
					// An atomic whose result the slice never consumes (the
					// analyzer declines otherwise): trace the
					// read-modify-write pair, leave the cell alone — its
					// value can only feed data computation.
					x.accesses = append(x.accesses,
						Access{Param: m.prm, Index: uint32(idx), Bytes: m.bytes, Write: false},
						Access{Param: m.prm, Index: uint32(idx), Bytes: m.bytes, Write: true})
				}
			}
		}
		switch bp.term {
		case tBr:
			bp = bp.to
		case tCondBr:
			if truthy(x.get(bp.cond)) {
				bp = bp.to
			} else {
				bp = bp.els
			}
		default: // tRet
			return nil
		}
	}
}

// cellsVal reads lanes cells from cell+base as the interpreter's Val.
func (x *planExec) cellsVal(cell opSrc, base, lanes int64) Val {
	cell.slot += int32(base)
	if lanes == 1 {
		return x.get(cell)
	}
	out := Val{Vec: make([]Val, lanes)}
	for i := range out.Vec {
		out.Vec[i] = x.get(cell)
		cell.slot++
	}
	return out
}

// outOfBounds is the interpreter's error for memory step st at index
// idx.
func outOfBounds(st *planStep, idx int64) error {
	verb := "load"
	if st.act == aStoreParam || st.act == aStoreAlloca || st.act == aStoreAllocaVal {
		verb = "store"
	}
	return fmt.Errorf("interp: %s out of bounds: %s[%d] (len %d)", verb, st.in.Mem.StorageName(), idx, st.mem.n/st.mem.lanes)
}
