package interp

import (
	"fmt"
	"math"
	"sync/atomic"
	"unsafe"

	"repro/internal/ir"
	"repro/internal/opencl/ast"
)

// exec evaluates one non-terminator instruction.
func (w *wiState) exec(in *ir.Instr) {
	switch in.Op {
	// Arithmetic, comparisons, selects and casts make values that fit
	// their type by construction (see pureVal), so the interpreter
	// evaluates them directly.
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr,
		ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		a := w.eval(in.Args[0])
		b := w.eval(in.Args[1])
		w.regs[in.ID] = w.arith(in, a, b)

	case ir.OpICmp, ir.OpFCmp:
		a := w.eval(in.Args[0])
		b := w.eval(in.Args[1])
		w.regs[in.ID] = compareVal(in, a, b)

	case ir.OpSelect:
		c := w.eval(in.Args[0])
		a := w.eval(in.Args[1])
		b := w.eval(in.Args[2])
		w.regs[in.ID] = selectVal(in, c, a, b)

	case ir.OpCast:
		w.regs[in.ID] = castVal(w.eval(in.Args[0]), in.Args[0].Type(), in.T)

	case ir.OpLoad:
		idx := w.eval(in.Args[0]).I
		w.regs[in.ID] = w.loadElem(in.Mem, idx, in.T)

	case ir.OpStore:
		idx := w.eval(in.Args[0]).I
		v := w.eval(in.Args[1])
		w.storeElem(in.Mem, idx, v)

	case ir.OpAtomic:
		idx := w.eval(in.Args[0]).I
		var operand Val
		if len(in.Args) > 1 {
			operand = w.eval(in.Args[1])
		}
		w.regs[in.ID] = w.atomic(in, idx, operand)

	case ir.OpWorkItem:
		w.regs[in.ID] = IntVal(w.workItem(in.Fn, in.Dim))

	case ir.OpBarrier:
		w.barriers++
		if !w.bar.wait() {
			// A peer died; unwind without touching shared state again.
			panic(execError{errGroupAborted})
		}

	default: // calls and vector ops
		args := w.args[:0]
		for _, a := range in.Args {
			args = append(args, w.eval(a))
		}
		w.args = args
		v, err := pureVal(in, args)
		if err != nil {
			panic(execError{err})
		}
		w.regs[in.ID] = v
	}
}

// lane extracts lane i of a (possibly scalar) value.
func lane(v Val, i int) Val {
	if v.Vec == nil {
		return v
	}
	if i >= len(v.Vec) {
		return Val{}
	}
	return v.Vec[i]
}

// The evaluators below are pure functions of (instruction, operand
// values) shared by the work-item interpreter and the static-profile
// plan executor, so the two paths cannot drift: one switch defines each
// operation's semantics. The scalar helpers under them (intArith,
// floatArith, compare and the casts) are what the executor's typed
// steps call directly.

func (w *wiState) arith(in *ir.Instr, a, b Val) Val {
	v, err := arithVal(in, a, b)
	if err != nil {
		panic(execError{err})
	}
	return v
}

// pureVal evaluates an instruction that touches no memory and no
// work-item state over its evaluated operands (not retained). A scalar
// result is fitted to the instruction's type, so it holds only the
// field that type selects: the static executor's typed banks keep
// exactly that field (see bankOf), and an evaluator that hands back an
// operand of another type (max(int, float), a vector literal's lanes)
// reads the same on both executors.
func pureVal(in *ir.Instr, args []Val) (Val, error) {
	var v Val
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr,
		ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		av, err := arithVal(in, args[0], args[1])
		if err != nil {
			return Val{}, err
		}
		v = av
	case ir.OpICmp, ir.OpFCmp:
		v = compareVal(in, args[0], args[1])
	case ir.OpSelect:
		v = selectVal(in, args[0], args[1], args[2])
	case ir.OpCast:
		v = castVal(args[0], in.Args[0].Type(), in.T)
	case ir.OpCall:
		bv, err := builtinVal(in, args)
		if err != nil {
			return Val{}, err
		}
		v = bv
	case ir.OpVecBuild:
		v = vecBuildVal(args)
	case ir.OpVecExtract:
		v = vecExtractVal(in, args[0])
	case ir.OpVecInsert:
		v = vecInsertVal(in, args)
	default:
		return Val{}, fmt.Errorf("interp: unsupported op %v", in.Op)
	}
	return fit(v, in.T), nil
}

// fit returns v as a value of type t holds it: a scalar keeps only the
// field t selects, a vector is kept whole.
func fit(v Val, t ast.Type) Val {
	switch {
	case t.IsVector():
		return v
	case t.Base.IsFloat():
		return FloatVal(v.F)
	}
	return IntVal(v.I)
}

func arithVal(in *ir.Instr, a, b Val) (Val, error) {
	t := in.T
	if t.IsVector() {
		out := Val{Vec: make([]Val, t.Lanes())}
		for i := range out.Vec {
			v, err := scalarArithVal(in, lane(a, i), lane(b, i))
			if err != nil {
				return Val{}, err
			}
			out.Vec[i] = v
		}
		return out, nil
	}
	return scalarArithVal(in, a, b)
}

func scalarArithVal(in *ir.Instr, a, b Val) (Val, error) {
	switch in.Op {
	case ir.OpDiv:
		if b.I == 0 {
			return Val{}, fmt.Errorf("interp: integer division by zero")
		}
		if in.T.Base.IsUnsigned() {
			return IntVal(int64(uint64(a.I) / uint64(b.I))), nil
		}
		return IntVal(a.I / b.I), nil
	case ir.OpRem:
		if b.I == 0 {
			return Val{}, fmt.Errorf("interp: integer remainder by zero")
		}
		if in.T.Base.IsUnsigned() {
			return IntVal(int64(uint64(a.I) % uint64(b.I))), nil
		}
		return IntVal(a.I % b.I), nil
	case ir.OpAdd, ir.OpSub, ir.OpMul,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr:
		return IntVal(intArith(in.Op, a.I, b.I)), nil
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		return FloatVal(floatArith(in.Op, a.F, b.F)), nil
	}
	return Val{}, fmt.Errorf("interp: bad arith op %v", in.Op)
}

// intArith applies an integer operation without a fault path (every one
// but Div and Rem): 64-bit, no width truncation.
func intArith(op ir.Op, a, b int64) int64 {
	switch op {
	case ir.OpAdd:
		return a + b
	case ir.OpSub:
		return a - b
	case ir.OpMul:
		return a * b
	case ir.OpAnd:
		return a & b
	case ir.OpOr:
		return a | b
	case ir.OpXor:
		return a ^ b
	case ir.OpShl:
		return a << uint(b&63)
	case ir.OpLShr:
		return int64(uint64(a) >> uint(b&63))
	}
	return a >> uint(b&63) // ir.OpAShr
}

// floatArith applies a float operation.
func floatArith(op ir.Op, a, b float64) float64 {
	switch op {
	case ir.OpFAdd:
		return a + b
	case ir.OpFSub:
		return a - b
	case ir.OpFMul:
		return a * b
	}
	return a / b // ir.OpFDiv
}

// selectVal implements OpSelect over evaluated operands.
func selectVal(in *ir.Instr, c, a, b Val) Val {
	if in.T.IsVector() && c.Vec != nil {
		out := Val{Vec: make([]Val, in.T.Lanes())}
		for i := range out.Vec {
			if lane(c, i).I != 0 || lane(c, i).F != 0 {
				out.Vec[i] = lane(a, i)
			} else {
				out.Vec[i] = lane(b, i)
			}
		}
		return out
	}
	if truthy(c) {
		return a
	}
	return b
}

// vecBuildVal packs evaluated args into a vector.
func vecBuildVal(args []Val) Val {
	out := Val{Vec: make([]Val, len(args))}
	copy(out.Vec, args)
	return out
}

// vecExtractVal implements OpVecExtract over an evaluated operand.
func vecExtractVal(in *ir.Instr, v Val) Val {
	if len(in.Lanes) == 1 {
		return lane(v, in.Lanes[0])
	}
	out := Val{Vec: make([]Val, len(in.Lanes))}
	for i, l := range in.Lanes {
		out.Vec[i] = lane(v, l)
	}
	return out
}

// vecInsertVal implements OpVecInsert; args holds every evaluated
// operand (the base vector followed by the inserted lanes).
func vecInsertVal(in *ir.Instr, args []Val) Val {
	lanes := in.T.Lanes()
	out := Val{Vec: make([]Val, lanes)}
	for i := 0; i < lanes; i++ {
		out.Vec[i] = lane(args[0], i)
	}
	for i, l := range in.Lanes {
		out.Vec[l] = args[1+i]
	}
	return out
}

func compareVal(in *ir.Instr, a, b Val) Val {
	cmp := func(a, b Val) Val {
		if in.Op == ir.OpFCmp {
			return IntVal(boolInt(compare(in.Pr, a.F, b.F)))
		}
		return IntVal(boolInt(compare(in.Pr, a.I, b.I)))
	}
	if in.T.IsVector() {
		out := Val{Vec: make([]Val, in.T.Lanes())}
		for i := range out.Vec {
			out.Vec[i] = cmp(lane(a, i), lane(b, i))
		}
		return out
	}
	return cmp(a, b)
}

// compare evaluates a comparison predicate on integers or floats.
func compare[T int64 | float64](pr ir.Pred, a, b T) bool {
	switch pr {
	case ir.PredEQ:
		return a == b
	case ir.PredNE:
		return a != b
	case ir.PredLT:
		return a < b
	case ir.PredLE:
		return a <= b
	case ir.PredGT:
		return a > b
	case ir.PredGE:
		return a >= b
	}
	return false
}

// boolInt is a comparison's value: 1 or 0.
func boolInt(r bool) int64 {
	if r {
		return 1
	}
	return 0
}

// castVal converts v from type 'from' to type 'to'.
func castVal(v Val, from, to ast.Type) Val {
	if to.IsVector() {
		out := Val{Vec: make([]Val, to.Lanes())}
		fs := ast.Scalar(from.Base)
		ts := ast.Scalar(to.Base)
		for i := range out.Vec {
			out.Vec[i] = castVal(lane(v, i), fs, ts)
		}
		return out
	}
	switch {
	case to.Base.IsFloat() && from.Base.IsFloat():
		return FloatVal(floatToFloat(v.F, to.Base))
	case to.Base.IsFloat():
		return FloatVal(intToFloat(v.I))
	case from.Base.IsFloat():
		return IntVal(floatToInt(v.F, to.Base))
	default:
		return IntVal(truncInt(v.I, to.Base))
	}
}

// The scalar casts: to a float kind, and from a float to an integer
// kind k (integer to integer is truncInt).
func floatToFloat(f float64, k ast.BaseKind) float64 {
	if k == ast.KFloat {
		return float64(float32(f))
	}
	return f
}

func intToFloat(v int64) float64 { return float64(v) }

func floatToInt(f float64, k ast.BaseKind) int64 { return truncInt(int64(f), k) }

// truncInt wraps an integer to the width of kind k.
func truncInt(v int64, k ast.BaseKind) int64 {
	switch k {
	case ast.KBool:
		if v != 0 {
			return 1
		}
		return 0
	case ast.KChar:
		return int64(int8(v))
	case ast.KUChar:
		return int64(uint8(v))
	case ast.KShort:
		return int64(int16(v))
	case ast.KUShort:
		return int64(uint16(v))
	case ast.KInt:
		return int64(int32(v))
	case ast.KUInt:
		return int64(uint32(v))
	default:
		return v
	}
}

// ---- memory ----

func (w *wiState) loadElem(store ir.Storage, idx int64, t ast.Type) Val {
	lanes := int64(t.Lanes())
	switch s := store.(type) {
	case *ir.Param:
		buf := w.cfg.Buffers[s.PName]
		if !inBounds(idx, lanes, int64(buf.Len())) {
			w.fail("load out of bounds: %s[%d] (len %d)", s.PName, idx, buf.Len()/int(lanes))
		}
		if w.trace {
			w.accesses = append(w.accesses, Access{
				Param: uint16(s.Index), Index: uint32(idx), Bytes: w.width(t), Write: false,
			})
		}
		return readBuf(buf, idx*lanes, lanes)
	case *ir.Alloca:
		cells := w.cells(s)
		if !inBounds(idx, lanes, int64(len(cells))) {
			w.fail("load out of bounds: %s[%d] (len %d)", s.AName, idx, int64(len(cells))/lanes)
		}
		base := idx * lanes
		if lanes == 1 {
			return cells[base]
		}
		out := Val{Vec: make([]Val, lanes)}
		copy(out.Vec, cells[base:base+lanes])
		return out
	}
	w.fail("unknown storage %T", store)
	return Val{}
}

func (w *wiState) storeElem(store ir.Storage, idx int64, v Val) {
	switch s := store.(type) {
	case *ir.Param:
		buf := w.cfg.Buffers[s.PName]
		t := s.Elem()
		lanes := int64(t.Lanes())
		if !inBounds(idx, lanes, int64(buf.Len())) {
			w.fail("store out of bounds: %s[%d] (len %d)", s.PName, idx, buf.Len()/int(lanes))
		}
		if w.trace {
			w.accesses = append(w.accesses, Access{
				Param: uint16(s.Index), Index: uint32(idx), Bytes: w.width(t), Write: true,
			})
		}
		writeBuf(buf, idx*lanes, lanes, v)
	case *ir.Alloca:
		cells := w.cells(s)
		lanes := int64(s.Elem.Lanes())
		if !inBounds(idx, lanes, int64(len(cells))) {
			w.fail("store out of bounds: %s[%d] (len %d)", s.AName, idx, int64(len(cells))/lanes)
		}
		base := idx * lanes
		if lanes == 1 {
			cells[base] = v
			return
		}
		for i := int64(0); i < lanes; i++ {
			cells[base+i] = lane(v, int(i))
		}
	default:
		w.fail("unknown storage %T", store)
	}
}

// inBounds reports whether element idx of lanes scalar cells lies in
// storage of n cells: 0 ≤ idx and (idx+1)·lanes ≤ n, tested without the
// product, which a huge idx would overflow into range. A recorded index
// is therefore below n, and fits Access.Index (see MaxBufferLen).
func inBounds(idx, lanes, n int64) bool { return idx >= 0 && idx < n/lanes }

// width is Access.Bytes of an access to an element of type t; a type
// wider than an Access holds fails the work-item (see accessWidth).
func (w *wiState) width(t ast.Type) uint8 {
	n, err := accessWidth(t)
	if err != nil {
		panic(execError{err})
	}
	return n
}

// accessWidth is Access.Bytes of an access to an element of type t. The
// widest OpenCL element, double16 or long16, is 128 bytes; a wider type
// cannot be traced.
func accessWidth(t ast.Type) (uint8, error) {
	n := t.ElemSize()
	if n > math.MaxUint8 {
		return 0, fmt.Errorf("interp: a %d-byte %s access is wider than a trace record holds", n, t)
	}
	return uint8(n), nil
}

// cells returns the backing storage of an alloca for this work-item
// (private) or its group (local): Count×Lanes cells, vector elements
// stored lane by lane.
func (w *wiState) cells(a *ir.Alloca) []Val { return w.mem[a.Idx] }

// Work-items of a group run as concurrent goroutines, and OpenCL lets
// unsynchronized work-items race on global memory with an undefined
// value but a well-formed program (bfs work-items all storing the same
// termination flag, streamcluster accumulating switch costs). Plain Go
// slice accesses would make those kernels data races under the Go
// memory model, so buffer cells are read and written with per-element
// atomics: the winning value stays unspecified, exactly as in OpenCL,
// but the execution is defined.
func readBuf(b *Buffer, base, lanes int64) Val {
	get := func(i int64) Val {
		if b.Elem.Base.IsFloat() {
			return FloatVal(loadFloat(b, i))
		}
		return IntVal(loadInt(b, i))
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

// loadInt and loadFloat read one cell of an integer or a float buffer.
func loadInt(b *Buffer, i int64) int64 { return atomic.LoadInt64(&b.I[i]) }

func loadFloat(b *Buffer, i int64) float64 {
	return math.Float64frombits(atomic.LoadUint64((*uint64)(unsafe.Pointer(&b.F[i]))))
}

func writeBuf(b *Buffer, base, lanes int64, v Val) {
	put := func(i int64, s Val) {
		if b.Elem.Base.IsFloat() {
			atomic.StoreUint64((*uint64)(unsafe.Pointer(&b.F[i])), math.Float64bits(s.F))
		} else {
			atomic.StoreInt64(&b.I[i], s.I)
		}
	}
	if lanes == 1 {
		put(base, v)
		return
	}
	for i := int64(0); i < lanes; i++ {
		put(base+i, lane(v, int(i)))
	}
}

func (w *wiState) atomic(in *ir.Instr, idx int64, operand Val) Val {
	w.mu.Lock()
	defer w.mu.Unlock()
	old := w.loadElemNoTrace(in.Mem, idx)
	var nv int64
	switch in.Fn {
	case "atomic_add":
		nv = old.I + operand.I
	case "atomic_sub":
		nv = old.I - operand.I
	case "atomic_inc":
		nv = old.I + 1
	case "atomic_dec":
		nv = old.I - 1
	case "atomic_min":
		nv = old.I
		if operand.I < nv {
			nv = operand.I
		}
	case "atomic_max":
		nv = old.I
		if operand.I > nv {
			nv = operand.I
		}
	case "atomic_xchg":
		nv = operand.I
	case "atomic_cmpxchg":
		// Args: idx, cmp, val — operand holds cmp; third arg is val.
		val := w.eval(in.Args[2])
		if old.I == operand.I {
			nv = val.I
		} else {
			nv = old.I
		}
	default:
		w.fail("unknown atomic %s", in.Fn)
	}
	// Record as one read + one write for the memory trace.
	if w.trace {
		if p, ok := in.Mem.(*ir.Param); ok {
			prm, sz := uint16(p.Index), w.width(p.Elem())
			w.accesses = append(w.accesses,
				Access{Param: prm, Index: uint32(idx), Bytes: sz, Write: false},
				Access{Param: prm, Index: uint32(idx), Bytes: sz, Write: true})
		}
	}
	w.storeElemNoTrace(in.Mem, idx, IntVal(nv))
	return old
}

func (w *wiState) loadElemNoTrace(store ir.Storage, idx int64) Val {
	saved := w.trace
	w.trace = false
	v := w.loadElem(store, idx, elemTypeOfStorage(store))
	w.trace = saved
	return v
}

func (w *wiState) storeElemNoTrace(store ir.Storage, idx int64, v Val) {
	saved := w.trace
	w.trace = false
	w.storeElem(store, idx, v)
	w.trace = saved
}

func elemTypeOfStorage(store ir.Storage) ast.Type {
	switch s := store.(type) {
	case *ir.Param:
		return s.Elem()
	case *ir.Alloca:
		return s.Elem
	}
	return ast.Scalar(ast.KInt)
}

func (w *wiState) workItem(fn string, dim int) int64 {
	v, ok := workItemVal(fn, dim, w.nd, w.group, w.local, w.global)
	if !ok {
		w.fail("unknown work-item query %s", fn)
	}
	return v
}

// workItemVal evaluates an NDRange coordinate query as a pure function
// of the work-item's position; ok is false for unknown queries.
func workItemVal(fn string, dim int, nd NDRange, group, local, global [3]int64) (int64, bool) {
	if dim < 0 || dim > 2 {
		dim = 0
	}
	switch fn {
	case "get_global_id":
		return global[dim], true
	case "get_local_id":
		return local[dim], true
	case "get_group_id":
		return group[dim], true
	case "get_global_size":
		return nd.Global[dim], true
	case "get_local_size":
		return nd.Local[dim], true
	case "get_num_groups":
		return nd.NumGroups()[dim], true
	case "get_work_dim":
		d := int64(1)
		if nd.Global[1] > 1 {
			d = 2
		}
		if nd.Global[2] > 1 {
			d = 3
		}
		return d, true
	case "get_global_offset":
		return 0, true
	}
	return 0, false
}

// knownBuiltins lists every builtin both executors evaluate; the static
// analyzer consults KnownBuiltin so the fast path never meets a call it
// cannot execute.
var knownBuiltins = map[string]bool{
	"sqrt": true, "native_sqrt": true, "rsqrt": true, "fabs": true,
	"exp": true, "native_exp": true, "exp2": true,
	"log": true, "native_log": true, "log2": true,
	"sin": true, "cos": true, "tan": true,
	"floor": true, "ceil": true, "round": true, "abs": true,
	"pow": true, "fmax": true, "fmin": true, "fmod": true,
	"atan2": true, "hypot": true, "max": true, "min": true,
	"mad": true, "fma": true, "clamp": true, "select": true, "dot": true,
}

// KnownBuiltin reports whether the interpreter can evaluate the builtin.
func KnownBuiltin(fn string) bool { return knownBuiltins[fn] }

// knownAtomics lists the atomic operations wiState.atomic implements.
var knownAtomics = map[string]bool{
	"atomic_add": true, "atomic_sub": true, "atomic_inc": true,
	"atomic_dec": true, "atomic_min": true, "atomic_max": true,
	"atomic_xchg": true, "atomic_cmpxchg": true,
}

// KnownAtomic reports whether the interpreter can execute the atomic op.
func KnownAtomic(fn string) bool { return knownAtomics[fn] }

// builtinVal evaluates a builtin call over fully evaluated operands,
// splitting lanes for vector-result calls like the interpreter.
func builtinVal(in *ir.Instr, args []Val) (Val, error) {
	t := in.T
	if t.IsVector() {
		out := Val{Vec: make([]Val, t.Lanes())}
		for i := range out.Vec {
			ls := make([]Val, len(args))
			for j, a := range args {
				ls[j] = lane(a, i)
			}
			v, err := scalarBuiltinVal(in, ls, args, ast.Scalar(t.Base))
			if err != nil {
				return Val{}, err
			}
			out.Vec[i] = v
		}
		return out, nil
	}
	return scalarBuiltinVal(in, args, args, t)
}

// scalarBuiltinVal evaluates one scalar builtin application. a holds the
// per-lane operands, full the unsplit operands (for reductions like dot
// that consume whole vectors even when the result is scalar).
func scalarBuiltinVal(in *ir.Instr, a, full []Val, t ast.Type) (Val, error) {
	fn := in.Fn
	f1 := func(f func(float64) float64) Val { return FloatVal(f(a[0].F)) }
	isFloatArgs := len(in.Args) > 0 && in.Args[0].Type().Base.IsFloat()
	switch fn {
	case "sqrt", "native_sqrt":
		return f1(math.Sqrt), nil
	case "rsqrt":
		return FloatVal(1 / math.Sqrt(a[0].F)), nil
	case "fabs":
		return f1(math.Abs), nil
	case "exp", "native_exp":
		return f1(math.Exp), nil
	case "exp2":
		return f1(math.Exp2), nil
	case "log", "native_log":
		return f1(math.Log), nil
	case "log2":
		return f1(math.Log2), nil
	case "sin":
		return f1(math.Sin), nil
	case "cos":
		return f1(math.Cos), nil
	case "tan":
		return f1(math.Tan), nil
	case "floor":
		return f1(math.Floor), nil
	case "ceil":
		return f1(math.Ceil), nil
	case "round":
		return f1(math.Round), nil
	case "abs":
		if isFloatArgs {
			return f1(math.Abs), nil
		}
		if a[0].I < 0 {
			return IntVal(-a[0].I), nil
		}
		return a[0], nil
	case "pow":
		return FloatVal(math.Pow(a[0].F, a[1].F)), nil
	case "fmax":
		return FloatVal(math.Max(a[0].F, a[1].F)), nil
	case "fmin":
		return FloatVal(math.Min(a[0].F, a[1].F)), nil
	case "fmod":
		return FloatVal(math.Mod(a[0].F, a[1].F)), nil
	case "atan2":
		return FloatVal(math.Atan2(a[0].F, a[1].F)), nil
	case "hypot":
		return FloatVal(math.Hypot(a[0].F, a[1].F)), nil
	case "max":
		if isFloatArgs {
			return FloatVal(math.Max(a[0].F, a[1].F)), nil
		}
		if a[0].I > a[1].I {
			return a[0], nil
		}
		return a[1], nil
	case "min":
		if isFloatArgs {
			return FloatVal(math.Min(a[0].F, a[1].F)), nil
		}
		if a[0].I < a[1].I {
			return a[0], nil
		}
		return a[1], nil
	case "mad", "fma":
		if t.Base.IsFloat() {
			return FloatVal(a[0].F*a[1].F + a[2].F), nil
		}
		return IntVal(a[0].I*a[1].I + a[2].I), nil
	case "clamp":
		if isFloatArgs {
			return FloatVal(math.Min(math.Max(a[0].F, a[1].F), a[2].F)), nil
		}
		v := a[0].I
		if v < a[1].I {
			v = a[1].I
		}
		if v > a[2].I {
			v = a[2].I
		}
		return IntVal(v), nil
	case "select":
		// select(a, b, c): returns b when c is true (MSB set), else a.
		if truthy(a[2]) {
			return a[1], nil
		}
		return a[0], nil
	case "dot":
		x, y := full[0], full[1]
		sum := 0.0
		n := 1
		if x.Vec != nil {
			n = len(x.Vec)
		}
		for i := 0; i < n; i++ {
			sum += lane(x, i).F * lane(y, i).F
		}
		return FloatVal(sum), nil
	}
	return Val{}, fmt.Errorf("interp: unknown builtin %s", fn)
}
