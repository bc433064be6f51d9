// Package ir defines the intermediate representation FlexCL analyzes: a
// typed, register-based IR organized as a control-flow graph of basic
// blocks. Memory is accessed through explicit storage objects (kernel
// buffer parameters and allocas) with element indices, which keeps
// address expressions analyzable for the memory model.
//
// The IR deliberately resembles the subset of LLVM IR that FlexCL's kernel
// analysis consumes: every instruction maps to one FPGA IP core with a
// latency entry in the device database (paper §3.2).
package ir

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/opencl/ast"
)

// Op is an IR opcode.
type Op int

// IR opcodes.
const (
	OpInvalid Op = iota

	// Integer arithmetic.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLShr
	OpAShr

	// Floating-point arithmetic.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv

	// Comparisons; Pred holds the predicate.
	OpICmp
	OpFCmp

	// OpSelect chooses Args[1] or Args[2] by Args[0].
	OpSelect

	// OpCast converts Args[0] to the instruction type.
	OpCast

	// Memory. Load: Args[0] = element index. Store: Args[0] = element
	// index, Args[1] = value. Mem names the storage object.
	OpLoad
	OpStore

	// OpAtomic is an atomic read-modify-write on Mem[Args[0]] with
	// operand Args[1] (absent for inc/dec); Fn holds the operation.
	OpAtomic

	// OpCall invokes the builtin named Fn with Args.
	OpCall

	// OpWorkItem reads an NDRange coordinate; Fn holds the query name and
	// Dim the dimension.
	OpWorkItem

	// Vector ops. VecBuild packs Args into a vector. VecExtract reads
	// Lanes from Args[0]. VecInsert writes Args[1..] into Lanes of a copy
	// of Args[0].
	OpVecBuild
	OpVecExtract
	OpVecInsert

	// Terminators.
	OpBr     // unconditional: To
	OpCondBr // Args[0] cond: To (true), Else (false)
	OpRet    // optional Args[0]

	// OpBarrier is a work-group barrier; Fn records "local"/"global"/
	// "local|global".
	OpBarrier
)

var opNames = map[Op]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpLShr: "lshr",
	OpAShr: "ashr",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpICmp: "icmp", OpFCmp: "fcmp", OpSelect: "select", OpCast: "cast",
	OpLoad: "load", OpStore: "store", OpAtomic: "atomic", OpCall: "call",
	OpWorkItem: "workitem",
	OpVecBuild: "vec.build", OpVecExtract: "vec.extract", OpVecInsert: "vec.insert",
	OpBr: "br", OpCondBr: "condbr", OpRet: "ret", OpBarrier: "barrier",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsTerminator reports whether the op ends a basic block.
func (o Op) IsTerminator() bool { return o == OpBr || o == OpCondBr || o == OpRet }

// IsMemAccess reports whether the op reads or writes a storage object.
func (o Op) IsMemAccess() bool { return o == OpLoad || o == OpStore || o == OpAtomic }

// Pred is a comparison predicate.
type Pred int

// Comparison predicates (shared by ICmp and FCmp).
const (
	PredEQ Pred = iota
	PredNE
	PredLT
	PredLE
	PredGT
	PredGE
)

func (p Pred) String() string {
	return [...]string{"eq", "ne", "lt", "le", "gt", "ge"}[p]
}

// Value is anything usable as an instruction operand.
type Value interface {
	Type() ast.Type
	Name() string
}

// Const is a compile-time constant scalar or splat.
type Const struct {
	T ast.Type
	I int64   // integer payload
	F float64 // float payload
}

// IntConst returns an integer constant of the given kind.
func IntConst(k ast.BaseKind, v int64) *Const {
	return &Const{T: ast.Scalar(k), I: v}
}

// FloatConst returns a floating constant of the given kind.
func FloatConst(k ast.BaseKind, v float64) *Const {
	return &Const{T: ast.Scalar(k), F: v}
}

// Type returns the constant's type.
func (c *Const) Type() ast.Type { return c.T }

// Name returns the printed form of the constant.
func (c *Const) Name() string {
	if c.T.Base.IsFloat() {
		return fmt.Sprintf("%g", c.F)
	}
	return fmt.Sprintf("%d", c.I)
}

// IsZero reports whether the constant is zero.
func (c *Const) IsZero() bool {
	if c.T.Base.IsFloat() {
		return c.F == 0
	}
	return c.I == 0
}

// Param is a kernel argument. Pointer parameters double as storage
// objects for global/local/constant buffers.
type Param struct {
	PName string
	T     ast.Type
	Index int
}

// Type returns the parameter type.
func (p *Param) Type() ast.Type { return p.T }

// Name returns the parameter name.
func (p *Param) Name() string { return "%" + p.PName }

// Space returns the address space of a pointer parameter.
func (p *Param) Space() ast.AddrSpace { return p.T.Space }

// Elem returns the pointee element type of a pointer parameter.
func (p *Param) Elem() ast.Type { return p.T.Elem() }

// StorageName returns the buffer name used in traces.
func (p *Param) StorageName() string { return p.PName }

// Alloca is a private variable or a private/local array.
type Alloca struct {
	AName string
	Elem  ast.Type
	Count int64 // flattened element count; 1 for scalars
	Dims  []int64
	AS    ast.AddrSpace // ASPrivate or ASLocal
	Idx   int           // position within Func.Allocas
}

// Type returns the element type (allocas are referenced via Load/Store,
// never as first-class pointer values).
func (a *Alloca) Type() ast.Type { return a.Elem }

// Name returns the printed form of the alloca.
func (a *Alloca) Name() string { return "@" + a.AName }

// Space returns the address space of the alloca.
func (a *Alloca) Space() ast.AddrSpace { return a.AS }

// StorageName returns the buffer name used in traces.
func (a *Alloca) StorageName() string { return a.AName }

// IsArray reports whether the alloca has more than one element.
func (a *Alloca) IsArray() bool { return a.Count > 1 }

// Storage is a memory object addressable by Load/Store: a pointer Param
// or an Alloca.
type Storage interface {
	Value
	Space() ast.AddrSpace
	StorageName() string
}

// Instr is one IR instruction; it is also a Value (its result).
type Instr struct {
	ID   int
	Op   Op
	T    ast.Type
	Args []Value
	Pr   Pred    // for ICmp/FCmp
	Mem  Storage // for Load/Store/Atomic
	Fn   string  // for Call/Atomic/WorkItem/Barrier
	Dim  int     // for WorkItem
	// Lanes for VecExtract/VecInsert.
	Lanes []int
	// To/Else are branch targets.
	To, Else *Block
	Blk      *Block
}

// Type returns the result type.
func (i *Instr) Type() ast.Type { return i.T }

// Name returns the SSA-style name of the result.
func (i *Instr) Name() string { return fmt.Sprintf("%%v%d", i.ID) }

// String renders the instruction in a readable single-line form.
func (i *Instr) String() string {
	var sb strings.Builder
	if !i.T.IsVoid() && !i.Op.IsTerminator() && i.Op != OpStore && i.Op != OpBarrier {
		fmt.Fprintf(&sb, "%s = ", i.Name())
	}
	sb.WriteString(i.Op.String())
	if i.Op == OpICmp || i.Op == OpFCmp {
		sb.WriteByte('.')
		sb.WriteString(i.Pr.String())
	}
	if i.Fn != "" {
		sb.WriteByte(' ')
		sb.WriteString(i.Fn)
	}
	if i.Mem != nil {
		fmt.Fprintf(&sb, " %s[", i.Mem.Name())
		if len(i.Args) > 0 {
			sb.WriteString(i.Args[0].Name())
		}
		sb.WriteByte(']')
		for _, a := range i.Args[1:] {
			sb.WriteString(", ")
			sb.WriteString(a.Name())
		}
	} else {
		for n, a := range i.Args {
			if n == 0 {
				sb.WriteByte(' ')
			} else {
				sb.WriteString(", ")
			}
			sb.WriteString(a.Name())
		}
	}
	if i.To != nil {
		fmt.Fprintf(&sb, " -> %s", i.To.Label())
	}
	if i.Else != nil {
		fmt.Fprintf(&sb, " / %s", i.Else.Label())
	}
	if len(i.Lanes) > 0 {
		fmt.Fprintf(&sb, " lanes%v", i.Lanes)
	}
	return sb.String()
}

// Block is a basic block.
type Block struct {
	ID     int
	BName  string
	Instrs []*Instr // terminator is the last instruction
	Preds  []*Block
	Succs  []*Block
}

// Label returns the printable block label.
func (b *Block) Label() string { return fmt.Sprintf("b%d.%s", b.ID, b.BName) }

// Term returns the block terminator, or nil if the block is unterminated.
func (b *Block) Term() *Instr {
	if n := len(b.Instrs); n > 0 && b.Instrs[n-1].Op.IsTerminator() {
		return b.Instrs[n-1]
	}
	return nil
}

// Loop describes one natural loop discovered in the CFG or annotated by
// the IR generator.
type Loop struct {
	Header *Block
	Latch  *Block
	Blocks map[*Block]bool
	Parent *Loop
	// StaticTrip is the compile-time trip count, or -1 if unknown and to
	// be obtained by profiling.
	StaticTrip int64
	// Unroll is the requested unroll factor (0 none, -1 full).
	Unroll int
}

// Depth returns the nesting depth (outermost = 1).
func (l *Loop) Depth() int {
	d := 0
	for cur := l; cur != nil; cur = cur.Parent {
		d++
	}
	return d
}

// Contains reports whether the loop body includes b.
func (l *Loop) Contains(b *Block) bool { return l.Blocks[b] }

// Func is one IR function (a fully inlined kernel).
type Func struct {
	Name    string
	Params  []*Param
	Allocas []*Alloca
	Blocks  []*Block
	Kernel  bool
	Attrs   []ast.Attr
	// Loops is populated by AnalyzeLoops; entries are annotated by irgen
	// with static trip counts and unroll hints via TripHints.
	Loops []*Loop
	// TripHints maps loop header blocks to statically known trip counts.
	TripHints map[*Block]int64
	// UnrollHints maps loop header blocks to unroll factors.
	UnrollHints map[*Block]int
	// HasBarrier reports whether any block contains a barrier.
	HasBarrier bool

	nextInstrID int
	nextBlockID int

	// loopsOnce backs EnsureLoops: the one-time loop analysis that makes
	// a fully built function shareable across goroutines.
	loopsOnce sync.Once

	// planOnce and plan back Plan.
	planOnce sync.Once
	plan     any
}

// Plan returns build(f), calling build at most once per function; every
// later call returns the first result. It lets a consumer (the
// interpreter's static profiling plan) keep an analysis of the finished
// function on the function itself, so the analysis is collected with
// the function instead of keeping it reachable from a package-level map.
func (f *Func) Plan(build func(*Func) any) any {
	f.planOnce.Do(func() { f.plan = build(f) })
	return f.plan
}

// NewFunc returns an empty function.
func NewFunc(name string, kernel bool) *Func {
	return &Func{
		Name:        name,
		Kernel:      kernel,
		TripHints:   make(map[*Block]int64),
		UnrollHints: make(map[*Block]int),
	}
}

// NewBlock appends a fresh block.
func (f *Func) NewBlock(name string) *Block {
	b := &Block{ID: f.nextBlockID, BName: name}
	f.nextBlockID++
	f.Blocks = append(f.Blocks, b)
	return b
}

// NewInstr creates an instruction without inserting it.
func (f *Func) NewInstr(op Op, t ast.Type) *Instr {
	in := &Instr{ID: f.nextInstrID, Op: op, T: t}
	f.nextInstrID++
	return in
}

// InstrIDs bounds the instruction IDs of f: every Instr.ID that NewInstr
// handed out is below it, so a slice of this length can be indexed by
// ID.
func (f *Func) InstrIDs() int { return f.nextInstrID }

// BlockIDs bounds the block IDs of f the same way.
func (f *Func) BlockIDs() int { return f.nextBlockID }

// Append places in at the end of b.
func (f *Func) Append(b *Block, in *Instr) *Instr {
	in.Blk = b
	b.Instrs = append(b.Instrs, in)
	return in
}

// Entry returns the entry block.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// Param returns the parameter named name, or nil.
func (f *Func) Param(name string) *Param {
	for _, p := range f.Params {
		if p.PName == name {
			return p
		}
	}
	return nil
}

// GlobalParams returns pointer parameters in the global/constant spaces —
// the kernel's off-chip buffers.
func (f *Func) GlobalParams() []*Param {
	var out []*Param
	for _, p := range f.Params {
		if p.T.Ptr && (p.T.Space == ast.ASGlobal || p.T.Space == ast.ASConstant) {
			out = append(out, p)
		}
	}
	return out
}

// LocalAllocas returns the __local arrays of the kernel.
func (f *Func) LocalAllocas() []*Alloca {
	var out []*Alloca
	for _, a := range f.Allocas {
		if a.AS == ast.ASLocal {
			out = append(out, a)
		}
	}
	return out
}

// String dumps the function as text.
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s(", f.Name)
	for n, p := range f.Params {
		if n > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s %v", p.Name(), p.T)
	}
	sb.WriteString(")\n")
	for _, a := range f.Allocas {
		fmt.Fprintf(&sb, "  %s = alloca %v x %d (%v)\n", a.Name(), a.Elem, a.Count, a.AS)
	}
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "%s:\n", b.Label())
		for _, in := range b.Instrs {
			fmt.Fprintf(&sb, "  %s\n", in)
		}
	}
	return sb.String()
}

// SameCode reports whether f and g are the same code: name, parameters,
// allocas, attributes, blocks and every instruction operand by operand,
// plus the loop trip-count and unroll hints that feed Loop.StaticTrip
// and Loop.Unroll. Two compilations of one kernel at different
// work-group sizes are the same code when the code never reads the WG
// macro. String alone cannot tell: it omits the hints, result types and
// work-item dimensions.
func (f *Func) SameCode(g *Func) bool {
	if f.Name != g.Name || f.Kernel != g.Kernel || f.HasBarrier != g.HasBarrier ||
		len(f.Params) != len(g.Params) || len(f.Allocas) != len(g.Allocas) ||
		len(f.Attrs) != len(g.Attrs) || len(f.Blocks) != len(g.Blocks) {
		return false
	}
	for i, p := range f.Params {
		if *p != *g.Params[i] {
			return false
		}
	}
	for i, a := range f.Allocas {
		b := g.Allocas[i]
		if a.AName != b.AName || a.Elem != b.Elem || a.Count != b.Count ||
			a.AS != b.AS || a.Idx != b.Idx || !slices.Equal(a.Dims, b.Dims) {
			return false
		}
	}
	for i, a := range f.Attrs {
		if a.Name != g.Attrs[i].Name || !slices.Equal(a.Args, g.Attrs[i].Args) {
			return false
		}
	}
	trips, unrolls := 0, 0
	for i, fb := range f.Blocks {
		gb := g.Blocks[i]
		if fb.ID != gb.ID || fb.BName != gb.BName || len(fb.Instrs) != len(gb.Instrs) {
			return false
		}
		for j, in := range fb.Instrs {
			if !in.sameAs(gb.Instrs[j]) {
				return false
			}
		}
		ft, fok := f.TripHints[fb]
		gt, gok := g.TripHints[gb]
		fu, fuok := f.UnrollHints[fb]
		gu, guok := g.UnrollHints[gb]
		if fok != gok || ft != gt || fuok != guok || fu != gu {
			return false
		}
		if fok {
			trips++
		}
		if fuok {
			unrolls++
		}
	}
	// Hints keyed by blocks outside Blocks would escape the walk above.
	return trips == len(f.TripHints) && trips == len(g.TripHints) &&
		unrolls == len(f.UnrollHints) && unrolls == len(g.UnrollHints)
}

// sameAs compares two instructions of SameCode's walk: every field,
// with operands, storage and branch targets matched by position.
func (i *Instr) sameAs(j *Instr) bool {
	if i.ID != j.ID || i.Op != j.Op || i.T != j.T || i.Pr != j.Pr || i.Fn != j.Fn ||
		i.Dim != j.Dim || !slices.Equal(i.Lanes, j.Lanes) || len(i.Args) != len(j.Args) ||
		!sameBlock(i.To, j.To) || !sameBlock(i.Else, j.Else) || !sameBlock(i.Blk, j.Blk) {
		return false
	}
	if (i.Mem == nil) != (j.Mem == nil) || (i.Mem != nil && !sameValue(i.Mem, j.Mem)) {
		return false
	}
	for n, a := range i.Args {
		if !sameValue(a, j.Args[n]) {
			return false
		}
	}
	return true
}

func sameBlock(a, b *Block) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.ID == b.ID
}

// sameValue matches operands by position: constants by type and bits,
// parameters and allocas by index, instructions by ID.
func sameValue(a, b Value) bool {
	switch x := a.(type) {
	case *Const:
		y, ok := b.(*Const)
		return ok && x.T == y.T && x.I == y.I && math.Float64bits(x.F) == math.Float64bits(y.F)
	case *Param:
		y, ok := b.(*Param)
		return ok && x.Index == y.Index
	case *Alloca:
		y, ok := b.(*Alloca)
		return ok && x.Idx == y.Idx
	case *Instr:
		y, ok := b.(*Instr)
		return ok && x.ID == y.ID
	}
	return false
}
