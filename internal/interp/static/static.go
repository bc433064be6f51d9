// Package static decides whether a kernel's dynamic profile — loop trip
// counts, barrier crossings and the global-memory access trace of §3.2 —
// can be produced without executing its work-groups, and prepares the
// executable plan for doing so.
//
// The profile consumed by the model depends only on the kernel's
// control flow and its memory *addresses*, never on the floating-point
// data it computes. For regular kernels (most of PolyBench) both are
// functions of compile-time constants, scalar arguments, work-item IDs
// and loop induction variables. The analyzer computes the backward
// slice of every branch condition and address expression; when that
// slice never reads a value the kernel itself may have written to
// global or __local memory, the profile is statically derivable: a
// plan executor can walk just the slice — skipping every data
// computation, every goroutine, every atomic — and emit a profile
// bitwise-identical to the interpreter's (enforced corpus-wide by the
// "profile" check family).
//
// The package deliberately depends only on the IR: package interp
// imports it to build the fast path, not the other way around.
package static

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/opencl/ast"
)

// DeclineError explains why a kernel is not statically analyzable. It
// is a normal, expected outcome — the dispatcher falls back to the
// interpreter — but the reason is kept for diagnostics and metrics.
type DeclineError struct {
	Reason string
}

func (e *DeclineError) Error() string { return "static: " + e.Reason }

func decline(format string, args ...any) error {
	return &DeclineError{Reason: fmt.Sprintf(format, args...)}
}

// Options tunes Analyze. The evaluability of call instructions lives in
// the executing package (interp knows its builtins), so it is injected.
type Options struct {
	// KnownCall reports whether the executor can evaluate the builtin;
	// nil accepts every name (the executor will fail at run time).
	KnownCall func(name string) bool
	// KnownAtomic reports whether the executor understands the atomic
	// operation; nil accepts every name.
	KnownAtomic func(name string) bool
}

// Plan is the result of a successful analysis: everything the slice
// executor needs to reproduce the interpreter's profile for any launch
// configuration of the function.
type Plan struct {
	Fn *ir.Func

	// RegIndex assigns a dense register slot to each instruction whose
	// result value must actually be computed: the backward slice of
	// branch conditions, memory addresses, tracked stores and integer
	// div/rem fault checks.
	RegIndex map[*ir.Instr]int
	// NumRegs is the register file size.
	NumRegs int

	// TrackedAllocas are the private (or store-free __local) allocas
	// whose contents the executor must model because slice loads read
	// them. Indexed by Alloca.Idx truth.
	TrackedAllocas map[*ir.Alloca]bool
	// SliceParams are the pointer parameters the slice loads from; all
	// are provably read-only in the kernel, so their values come from
	// the initial launch buffers.
	SliceParams map[*ir.Param]bool

	// Steps lists, per block, the instructions the executor visits:
	// terminators, barriers, memory accesses (for the trace and bounds
	// checks) and every needed instruction, in original program order.
	Steps map[*ir.Block][]*ir.Instr

	// BlockIndex gives each block a dense slot for trip counting.
	BlockIndex map[*ir.Block]int

	// GlobalOnly reports that every work-item query in the slice reads
	// launch-global geometry only (get_global_id, get_global_size,
	// get_work_dim, get_global_offset). A work-item's profile then
	// depends on its global ID alone, never on the work-group size, so
	// one run over the union of several launches' profiled work-items
	// serves them all (interp.ProfileSweep).
	GlobalOnly bool
}

// Analyze computes the profile slice of f and reports whether the
// profile is statically derivable. The returned error is a
// *DeclineError for expected analyzability limits.
func Analyze(f *ir.Func, opts Options) (*Plan, error) {
	if f == nil || f.Entry() == nil {
		return nil, decline("empty function")
	}
	f.EnsureLoops()

	a := &analyzer{
		f:       f,
		opts:    opts,
		need:    make(map[*ir.Instr]bool),
		written: make(map[ir.Storage]bool),
		atomics: make(map[ir.Storage]bool),
		stores:  make(map[ir.Storage][]*ir.Instr),
		loads:   make(map[ir.Storage]bool),
		tracked: make(map[ir.Storage]bool),
	}
	if err := a.prescan(); err != nil {
		return nil, err
	}
	if err := a.seed(); err != nil {
		return nil, err
	}
	if err := a.fix(); err != nil {
		return nil, err
	}
	return a.plan(), nil
}

// Analyzable reports whether f's profile is statically derivable, with
// the decline reason when it is not.
func Analyzable(f *ir.Func, opts Options) (bool, string) {
	if _, err := Analyze(f, opts); err != nil {
		var de *DeclineError
		if ok := asDecline(err, &de); ok {
			return false, de.Reason
		}
		return false, err.Error()
	}
	return true, ""
}

func asDecline(err error, out **DeclineError) bool {
	de, ok := err.(*DeclineError)
	if ok {
		*out = de
	}
	return ok
}

type analyzer struct {
	f    *ir.Func
	opts Options

	need    map[*ir.Instr]bool
	written map[ir.Storage]bool // any store/atomic targets the storage
	atomics map[ir.Storage]bool // any atomic targets the storage
	stores  map[ir.Storage][]*ir.Instr
	loads   map[ir.Storage]bool
	tracked map[ir.Storage]bool // slice loads read the storage's contents

	queue []*ir.Instr
}

// prescan indexes stores per storage object and rejects instructions
// the slice executor could never evaluate, wherever they appear: an
// unknown builtin or atomic that the interpreter would fault on is only
// reachable knowledge at run time, so the analyzer declines up front
// rather than risk diverging.
func (a *analyzer) prescan() error {
	for _, b := range a.f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
				ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr,
				ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv,
				ir.OpICmp, ir.OpFCmp, ir.OpSelect, ir.OpCast,
				ir.OpVecBuild, ir.OpVecExtract, ir.OpVecInsert,
				ir.OpBr, ir.OpCondBr, ir.OpRet, ir.OpBarrier:
				// Always evaluable.
			case ir.OpWorkItem:
				switch in.Fn {
				case "get_global_id", "get_local_id", "get_group_id",
					"get_global_size", "get_local_size", "get_num_groups",
					"get_work_dim", "get_global_offset":
				default:
					return decline("unknown work-item query %s", in.Fn)
				}
			case ir.OpCall:
				if a.opts.KnownCall != nil && !a.opts.KnownCall(in.Fn) {
					return decline("unknown builtin %s", in.Fn)
				}
			case ir.OpLoad:
				a.loads[in.Mem] = true
			case ir.OpStore:
				a.written[in.Mem] = true
				a.stores[in.Mem] = append(a.stores[in.Mem], in)
			case ir.OpAtomic:
				if a.opts.KnownAtomic != nil && !a.opts.KnownAtomic(in.Fn) {
					return decline("unknown atomic %s", in.Fn)
				}
				a.written[in.Mem] = true
				a.atomics[in.Mem] = true
				// The atomic reads the cell too.
				a.loads[in.Mem] = true
			default:
				return decline("unsupported op %v", in.Op)
			}
		}
	}
	return nil
}

// seed marks the roots of the slice: branch conditions, every memory
// address, and integer div/rem instructions (which must execute so the
// fast path faults on a zero divisor exactly where the interpreter
// does).
func (a *analyzer) seed() error {
	for _, b := range a.f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpCondBr:
				a.needValue(in.Args[0])
			case ir.OpLoad, ir.OpStore, ir.OpAtomic:
				a.needValue(in.Args[0])
			case ir.OpDiv, ir.OpRem:
				a.needInstr(in)
			}
		}
	}
	return nil
}

// needValue marks a value as required by the slice.
func (a *analyzer) needValue(v ir.Value) {
	in, ok := v.(*ir.Instr)
	if !ok {
		return // constants and scalar parameters need no computation
	}
	a.needInstr(in)
}

func (a *analyzer) needInstr(in *ir.Instr) {
	if a.need[in] {
		return
	}
	a.need[in] = true
	a.queue = append(a.queue, in)
}

// fix processes the worklist to transitive closure, tracking storage
// contents as loads enter the slice.
func (a *analyzer) fix() error {
	for len(a.queue) > 0 {
		in := a.queue[len(a.queue)-1]
		a.queue = a.queue[:len(a.queue)-1]
		switch in.Op {
		case ir.OpLoad:
			if err := a.track(in.Mem); err != nil {
				return err
			}
			// The index operand is already seeded.
		case ir.OpAtomic:
			// The result of an atomic read-modify-write is the racing
			// pre-image of concurrent peers: not statically derivable.
			return decline("atomic result feeds control flow or addressing")
		case ir.OpWorkItem:
			// Pure function of the work-item's coordinates.
		default:
			for _, arg := range in.Args {
				a.needValue(arg)
			}
		}
	}
	return nil
}

// track records that slice loads read st's contents, so the executor
// must model them exactly.
func (a *analyzer) track(st ir.Storage) error {
	if a.tracked[st] {
		return nil
	}
	a.tracked[st] = true
	switch s := st.(type) {
	case *ir.Param:
		// Values come from the initial launch buffers — valid only if
		// the kernel itself never writes the buffer (another work-group
		// could otherwise have written it first; the interpreter runs
		// sampled groups in dispatch order and would observe that).
		if a.written[st] {
			return decline("address or branch depends on buffer %s, which the kernel writes", s.PName)
		}
	case *ir.Alloca:
		if a.atomics[st] {
			return decline("address or branch depends on atomically updated %s", s.AName)
		}
		if s.AS == ast.ASLocal && a.written[st] {
			// __local contents are produced cooperatively by the whole
			// work-group across barrier phases; modelling that is
			// cross-work-item scheduling, not slicing.
			return decline("address or branch depends on __local array %s written by the group", s.AName)
		}
		// Private alloca (or a never-written local, which stays zero):
		// every store's value joins the slice so contents stay exact.
		for _, st2 := range a.stores[st] {
			a.needValue(st2.Args[1])
		}
	default:
		return decline("unknown storage %T", st)
	}
	return nil
}

// plan freezes the analysis into the executable form.
func (a *analyzer) plan() *Plan {
	p := &Plan{
		Fn:             a.f,
		RegIndex:       make(map[*ir.Instr]int, len(a.need)),
		TrackedAllocas: make(map[*ir.Alloca]bool),
		SliceParams:    make(map[*ir.Param]bool),
		Steps:          make(map[*ir.Block][]*ir.Instr, len(a.f.Blocks)),
		BlockIndex:     make(map[*ir.Block]int, len(a.f.Blocks)),
		GlobalOnly:     true,
	}
	for st := range a.tracked {
		switch s := st.(type) {
		case *ir.Alloca:
			p.TrackedAllocas[s] = true
		case *ir.Param:
			p.SliceParams[s] = true
		}
	}
	for bi, b := range a.f.Blocks {
		p.BlockIndex[b] = bi
		var steps []*ir.Instr
		for _, in := range b.Instrs {
			if a.need[in] || in.Op.IsTerminator() || in.Op.IsMemAccess() || in.Op == ir.OpBarrier {
				steps = append(steps, in)
			}
			if a.need[in] && in.Op == ir.OpWorkItem {
				switch in.Fn {
				case "get_local_id", "get_group_id", "get_local_size", "get_num_groups":
					p.GlobalOnly = false
				}
			}
			if a.need[in] {
				if _, ok := p.RegIndex[in]; !ok {
					p.RegIndex[in] = p.NumRegs
					p.NumRegs++
				}
			}
		}
		p.Steps[b] = steps
	}
	return p
}
