package irgen

import (
	"repro/internal/ir"
	"repro/internal/opencl/ast"
	"repro/internal/opencl/sema"
	"repro/internal/opencl/token"
)

// indexValue materializes the element index of a memRef as a value.
func (g *generator) indexValue(ref memRef) ir.Value {
	if ref.index == nil {
		return ir.IntConst(ast.KLong, 0)
	}
	return ref.index
}

// loadFrom emits a load of one element from storage.
func (g *generator) loadFrom(store ir.Storage, index ir.Value, elem ast.Type) ir.Value {
	in := g.emit(ir.OpLoad, elem)
	in.Mem = store
	if index == nil {
		index = ir.IntConst(ast.KLong, 0)
	}
	in.Args = []ir.Value{index}
	return in
}

// storeTo emits a store of one element into storage.
func (g *generator) storeTo(store ir.Storage, index ir.Value, v ir.Value) {
	in := g.emit(ir.OpStore, ast.Scalar(ast.KVoid))
	in.Mem = store
	if index == nil {
		index = ir.IntConst(ast.KLong, 0)
	}
	in.Args = []ir.Value{index, v}
}

// elemOf returns the element type stored in a storage object.
func elemOf(store ir.Storage) ast.Type {
	switch s := store.(type) {
	case *ir.Param:
		return s.Elem()
	case *ir.Alloca:
		return s.Elem
	}
	return ast.Scalar(ast.KInt)
}

// coerce inserts a cast so v has type to (scalar widening, int<->float,
// scalar->vector splat).
func (g *generator) coerce(v ir.Value, to ast.Type) ir.Value {
	if v == nil {
		return ir.IntConst(ast.KInt, 0)
	}
	from := v.Type()
	if from.Equal(to) {
		return v
	}
	// Constant folding for scalar constants.
	if c, ok := v.(*ir.Const); ok && to.IsScalar() {
		nc := &ir.Const{T: to}
		if to.Base.IsFloat() {
			if from.Base.IsFloat() {
				nc.F = c.F
			} else {
				nc.F = float64(c.I)
			}
		} else {
			if from.Base.IsFloat() {
				nc.I = int64(c.F)
			} else {
				nc.I = c.I
			}
		}
		return nc
	}
	if from.IsScalar() && to.IsVector() {
		// Splat: build a vector from the scalar.
		sc := g.coerce(v, ast.Scalar(to.Base))
		in := g.emit(ir.OpVecBuild, to)
		for i := 0; i < to.Lanes(); i++ {
			in.Args = append(in.Args, sc)
		}
		return in
	}
	in := g.emit(ir.OpCast, to)
	in.Args = []ir.Value{v}
	return in
}

// ---- pointer expressions ----

// ptrExpr evaluates a pointer-typed expression to a symbolic memRef.
func (g *generator) ptrExpr(e ast.Expr) memRef {
	if g.err != nil {
		return memRef{}
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		sym := g.info.Uses[x]
		b := g.bindings[sym]
		if b == nil {
			g.fail(x.Pos(), "internal: unbound identifier %s", x.Name)
			return memRef{}
		}
		switch {
		case b.ptr != nil && b.ptrOff != nil:
			// Pointer variable: current offset from its cell.
			off := g.loadFrom(b.ptrOff, nil, ast.Scalar(ast.KLong))
			return memRef{store: b.ptr.store, index: off}
		case b.ptr != nil:
			return memRef{store: b.ptr.store, index: b.ptr.index}
		case b.alloca != nil && b.alloca.IsArray():
			rem := b.alloca.Dims
			if len(rem) > 0 {
				rem = rem[1:]
			}
			return memRef{store: b.alloca, rem: rem}
		default:
			g.fail(x.Pos(), "%s is not a pointer or array", x.Name)
			return memRef{}
		}
	case *ast.IndexExpr:
		base := g.ptrExpr(x.X)
		if base.store == nil {
			return memRef{}
		}
		idx := g.coerce(g.expr(x.Index), ast.Scalar(ast.KLong))
		if len(base.rem) > 0 {
			// Partially indexed multi-dim array: scale by the remaining
			// row size.
			row := int64(1)
			for _, d := range base.rem {
				row *= d
			}
			scaled := g.binOp(ir.OpMul, idx, ir.IntConst(ast.KLong, row))
			return memRef{
				store: base.store,
				index: g.addIndex(base.index, scaled),
				rem:   base.rem[1:],
			}
		}
		return memRef{store: base.store, index: g.addIndex(base.index, idx)}
	case *ast.UnaryExpr:
		switch x.Op {
		case token.AND: // &lv — address of an lvalue
			return g.addressOf(x.X)
		}
	case *ast.BinaryExpr:
		// Pointer arithmetic p + n / p - n.
		xt := x.X.TypeOf()
		yt := x.Y.TypeOf()
		var base memRef
		var offExpr ast.Expr
		neg := false
		switch {
		case xt.Ptr:
			base = g.ptrExpr(x.X)
			offExpr = x.Y
			neg = x.Op == token.SUB
		case yt.Ptr && x.Op == token.ADD:
			base = g.ptrExpr(x.Y)
			offExpr = x.X
		default:
			g.fail(x.Pos(), "unsupported pointer expression")
			return memRef{}
		}
		if base.store == nil {
			return memRef{}
		}
		off := g.coerce(g.expr(offExpr), ast.Scalar(ast.KLong))
		if neg {
			off = g.binOp(ir.OpSub, ir.IntConst(ast.KLong, 0), off)
		}
		return memRef{store: base.store, index: g.addIndex(base.index, off), rem: base.rem}
	case *ast.CastExpr:
		return g.ptrExpr(x.X)
	}
	g.fail(e.Pos(), "unsupported pointer expression %T", e)
	return memRef{}
}

// addressOf resolves &lvalue to a memRef.
func (g *generator) addressOf(e ast.Expr) memRef {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		sym := g.info.Uses[x]
		b := g.bindings[sym]
		if b == nil || b.alloca == nil {
			g.fail(x.Pos(), "cannot take address of %s", x.Name)
			return memRef{}
		}
		return memRef{store: b.alloca}
	case *ast.IndexExpr:
		return g.ptrExpr(x)
	case *ast.UnaryExpr:
		if x.Op == token.MUL {
			return g.ptrExpr(x.X)
		}
	}
	g.fail(e.Pos(), "cannot take address of expression %T", e)
	return memRef{}
}

// addIndex adds two element indices, folding the common nil/0 cases.
func (g *generator) addIndex(a, b ir.Value) ir.Value {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if c, ok := a.(*ir.Const); ok && c.IsZero() {
		return b
	}
	if c, ok := b.(*ir.Const); ok && c.IsZero() {
		return a
	}
	return g.binOp(ir.OpAdd, a, b)
}

// binOp emits a binary arithmetic instruction with both operands coerced
// to a common type.
func (g *generator) binOp(op ir.Op, a, b ir.Value) ir.Value {
	t := a.Type()
	b = g.coerce(b, t)
	// Constant fold integer add/sub/mul to keep index chains short.
	if ca, ok := a.(*ir.Const); ok {
		if cb, ok2 := b.(*ir.Const); ok2 && t.IsScalar() && t.Base.IsInteger() {
			switch op {
			case ir.OpAdd:
				return ir.IntConst(t.Base, ca.I+cb.I)
			case ir.OpSub:
				return ir.IntConst(t.Base, ca.I-cb.I)
			case ir.OpMul:
				return ir.IntConst(t.Base, ca.I*cb.I)
			}
		}
	}
	in := g.emit(op, t)
	in.Args = []ir.Value{a, b}
	return in
}

// ---- lvalues ----

// assignTo stores v into the lvalue lhs, returning the stored value.
func (g *generator) assignTo(lhs ast.Expr, v ir.Value) ir.Value {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		sym := g.info.Uses[x]
		b := g.bindings[sym]
		if b == nil {
			g.fail(x.Pos(), "internal: unbound identifier %s", x.Name)
			return v
		}
		if b.ptrOff != nil {
			// Pointer variable reassignment: only offsets within the same
			// storage object are representable (handled in assign()).
			g.fail(x.Pos(), "pointer reassignment must use += / -= on %s", x.Name)
			return v
		}
		if b.alloca == nil {
			g.fail(x.Pos(), "cannot assign to %s", x.Name)
			return v
		}
		v = g.coerce(v, b.alloca.Elem)
		g.storeTo(b.alloca, nil, v)
		return v
	case *ast.IndexExpr:
		ref := g.ptrExpr(x)
		if ref.store == nil {
			return v
		}
		v = g.coerce(v, elemOf(ref.store))
		g.storeTo(ref.store, g.indexValue(ref), v)
		return v
	case *ast.UnaryExpr:
		if x.Op == token.MUL {
			ref := g.ptrExpr(x.X)
			if ref.store == nil {
				return v
			}
			v = g.coerce(v, elemOf(ref.store))
			g.storeTo(ref.store, g.indexValue(ref), v)
			return v
		}
	case *ast.MemberExpr:
		// Vector component store: load, insert, store back.
		inner := ast.Unparen(x.X)
		switch base := inner.(type) {
		case *ast.Ident:
			sym := g.info.Uses[base]
			b := g.bindings[sym]
			if b == nil || b.alloca == nil {
				g.fail(x.Pos(), "cannot assign to component of %s", base.Name)
				return v
			}
			vec := g.loadFrom(b.alloca, nil, b.alloca.Elem)
			nv := g.vecInsert(vec, x.Lanes, v)
			g.storeTo(b.alloca, nil, nv)
			return v
		case *ast.IndexExpr:
			ref := g.ptrExpr(base)
			if ref.store == nil {
				return v
			}
			idx := g.indexValue(ref)
			vec := g.loadFrom(ref.store, idx, elemOf(ref.store))
			nv := g.vecInsert(vec, x.Lanes, v)
			g.storeTo(ref.store, idx, nv)
			return v
		}
	}
	g.fail(lhs.Pos(), "unsupported assignment target %T", lhs)
	return v
}

func (g *generator) vecInsert(vec ir.Value, lanes []int, v ir.Value) ir.Value {
	t := vec.Type()
	elemT := ast.Scalar(t.Base)
	args := []ir.Value{vec}
	if len(lanes) == 1 {
		args = append(args, g.coerce(v, elemT))
	} else {
		// Vector-into-lanes: extract each lane of v.
		for i := range lanes {
			ext := g.emit(ir.OpVecExtract, elemT)
			ext.Args = []ir.Value{v}
			ext.Lanes = []int{i}
			args = append(args, ext)
		}
	}
	in := g.emit(ir.OpVecInsert, t)
	in.Args = args
	in.Lanes = lanes
	return in
}

// loadLValue reads the current value of an lvalue expression.
func (g *generator) loadLValue(e ast.Expr) ir.Value {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		sym := g.info.Uses[x]
		b := g.bindings[sym]
		if b == nil {
			g.fail(x.Pos(), "internal: unbound identifier %s", x.Name)
			return ir.IntConst(ast.KInt, 0)
		}
		switch {
		case b.value != nil:
			return b.value
		case b.alloca != nil && !b.alloca.IsArray():
			return g.loadFrom(b.alloca, nil, b.alloca.Elem)
		default:
			g.fail(x.Pos(), "cannot read %s as a value", x.Name)
			return ir.IntConst(ast.KInt, 0)
		}
	case *ast.IndexExpr:
		ref := g.ptrExpr(x)
		if ref.store == nil {
			return ir.IntConst(ast.KInt, 0)
		}
		return g.loadFrom(ref.store, g.indexValue(ref), elemOf(ref.store))
	case *ast.UnaryExpr:
		if x.Op == token.MUL {
			ref := g.ptrExpr(x.X)
			if ref.store == nil {
				return ir.IntConst(ast.KInt, 0)
			}
			return g.loadFrom(ref.store, g.indexValue(ref), elemOf(ref.store))
		}
	}
	return g.expr(e)
}

// ---- expressions ----

func (g *generator) expr(e ast.Expr) ir.Value {
	if g.err != nil {
		return ir.IntConst(ast.KInt, 0)
	}
	switch x := e.(type) {
	case *ast.ParenExpr:
		return g.expr(x.X)
	case *ast.IntLit:
		return ir.IntConst(ast.KInt, x.Value)
	case *ast.FloatLit:
		return ir.FloatConst(ast.KFloat, x.Value)
	case *ast.Ident:
		return g.loadLValue(x)
	case *ast.IndexExpr:
		return g.loadLValue(x)
	case *ast.UnaryExpr:
		return g.unary(x)
	case *ast.BinaryExpr:
		return g.binary(x)
	case *ast.AssignExpr:
		return g.assign(x)
	case *ast.CondExpr:
		cond := g.expr(x.Cond)
		a := g.expr(x.Then)
		b := g.expr(x.Else)
		t := x.TypeOf()
		a = g.coerce(a, t)
		b = g.coerce(b, t)
		in := g.emit(ir.OpSelect, t)
		in.Args = []ir.Value{cond, a, b}
		return in
	case *ast.CallExpr:
		return g.call(x)
	case *ast.MemberExpr:
		vec := g.expr(x.X)
		t := x.TypeOf()
		in := g.emit(ir.OpVecExtract, t)
		in.Args = []ir.Value{vec}
		in.Lanes = x.Lanes
		return in
	case *ast.CastExpr:
		if x.To.Ptr {
			g.fail(x.Pos(), "pointer casts are not value expressions")
			return ir.IntConst(ast.KInt, 0)
		}
		return g.coerce(g.expr(x.X), x.To)
	case *ast.VecLit:
		return g.vecLit(x)
	}
	g.fail(e.Pos(), "unsupported expression %T", e)
	return ir.IntConst(ast.KInt, 0)
}

func (g *generator) vecLit(x *ast.VecLit) ir.Value {
	elemT := ast.Scalar(x.To.Base)
	var parts []ir.Value
	for _, el := range x.Elems {
		v := g.expr(el)
		if v.Type().IsVector() {
			for i := 0; i < v.Type().Lanes(); i++ {
				ext := g.emit(ir.OpVecExtract, elemT)
				ext.Args = []ir.Value{v}
				ext.Lanes = []int{i}
				parts = append(parts, ext)
			}
		} else {
			parts = append(parts, g.coerce(v, elemT))
		}
	}
	if len(parts) == 1 {
		// Splat.
		for len(parts) < x.To.Lanes() {
			parts = append(parts, parts[0])
		}
	}
	in := g.emit(ir.OpVecBuild, x.To)
	in.Args = parts
	return in
}

func (g *generator) unary(x *ast.UnaryExpr) ir.Value {
	switch x.Op {
	case token.ADD:
		return g.expr(x.X)
	case token.SUB:
		v := g.expr(x.X)
		t := v.Type()
		if c, ok := v.(*ir.Const); ok {
			if t.Base.IsFloat() {
				return ir.FloatConst(t.Base, -c.F)
			}
			return ir.IntConst(t.Base, -c.I)
		}
		op := ir.OpSub
		zero := ir.Value(ir.IntConst(t.Base, 0))
		if t.Base.IsFloat() {
			op = ir.OpFSub
			zero = ir.FloatConst(t.Base, 0)
		}
		if t.IsVector() {
			zero = g.coerce(zero, t)
		}
		in := g.emit(op, t)
		in.Args = []ir.Value{zero, v}
		return in
	case token.NOT:
		v := g.expr(x.X)
		in := g.emit(ir.OpICmp, ast.Scalar(ast.KInt))
		in.Pr = ir.PredEQ
		zero := ir.Value(ir.IntConst(v.Type().Base, 0))
		if v.Type().Base.IsFloat() {
			in.Op = ir.OpFCmp
			zero = ir.FloatConst(v.Type().Base, 0)
		}
		in.Args = []ir.Value{v, zero}
		return in
	case token.TILDE:
		v := g.expr(x.X)
		in := g.emit(ir.OpXor, v.Type())
		in.Args = []ir.Value{v, g.coerce(ir.IntConst(v.Type().Base, -1), v.Type())}
		return in
	case token.MUL:
		return g.loadLValue(x)
	case token.AND:
		g.fail(x.Pos(), "address-of is only supported in pointer contexts")
		return ir.IntConst(ast.KInt, 0)
	case token.INC, token.DEC:
		old := g.loadLValue(x.X)
		t := old.Type()
		op := ir.OpAdd
		var one ir.Value = ir.IntConst(t.Base, 1)
		if t.Base.IsFloat() {
			op = ir.OpFAdd
			one = ir.FloatConst(t.Base, 1)
		}
		if x.Op == token.DEC {
			if t.Base.IsFloat() {
				op = ir.OpFSub
			} else {
				op = ir.OpSub
			}
		}
		in := g.emit(op, t)
		in.Args = []ir.Value{old, one}
		g.assignTo(x.X, in)
		if x.Postfix {
			return old
		}
		return in
	}
	g.fail(x.Pos(), "unsupported unary operator %v", x.Op)
	return ir.IntConst(ast.KInt, 0)
}

func (g *generator) binary(x *ast.BinaryExpr) ir.Value {
	if x.Op == token.COMMA {
		g.expr(x.X)
		return g.expr(x.Y)
	}
	a := g.expr(x.X)
	b := g.expr(x.Y)
	switch x.Op {
	case token.LAND, token.LOR:
		// Hardware datapaths evaluate both sides; combine booleans.
		an := g.boolify(a)
		bn := g.boolify(b)
		op := ir.OpAnd
		if x.Op == token.LOR {
			op = ir.OpOr
		}
		in := g.emit(op, ast.Scalar(ast.KInt))
		in.Args = []ir.Value{an, bn}
		return in
	case token.EQ, token.NEQ, token.LT, token.LEQ, token.GT, token.GEQ:
		ct := sema.UsualArith(a.Type(), b.Type())
		a = g.coerce(a, ct)
		b = g.coerce(b, ct)
		op := ir.OpICmp
		if ct.Base.IsFloat() {
			op = ir.OpFCmp
		}
		in := g.emit(op, x.TypeOf())
		in.Pr = predOf(x.Op)
		in.Args = []ir.Value{a, b}
		return in
	}
	t := x.TypeOf()
	a = g.coerce(a, t)
	b = g.coerce(b, t)
	var op ir.Op
	switch x.Op {
	case token.ADD:
		op = ir.OpAdd
	case token.SUB:
		op = ir.OpSub
	case token.MUL:
		op = ir.OpMul
	case token.QUO:
		op = ir.OpDiv
	case token.REM:
		op = ir.OpRem
	case token.AND:
		op = ir.OpAnd
	case token.OR:
		op = ir.OpOr
	case token.XOR:
		op = ir.OpXor
	case token.SHL:
		op = ir.OpShl
	case token.SHR:
		if t.Base.IsUnsigned() {
			op = ir.OpLShr
		} else {
			op = ir.OpAShr
		}
	default:
		g.fail(x.Pos(), "unsupported binary operator %v", x.Op)
		return ir.IntConst(ast.KInt, 0)
	}
	if t.Base.IsFloat() {
		switch op {
		case ir.OpAdd:
			op = ir.OpFAdd
		case ir.OpSub:
			op = ir.OpFSub
		case ir.OpMul:
			op = ir.OpFMul
		case ir.OpDiv:
			op = ir.OpFDiv
		}
	}
	in := g.emit(op, t)
	in.Args = []ir.Value{a, b}
	return in
}

// boolify converts a value to a 0/1 int.
func (g *generator) boolify(v ir.Value) ir.Value {
	t := v.Type()
	op := ir.OpICmp
	zero := ir.Value(ir.IntConst(t.Base, 0))
	if t.Base.IsFloat() {
		op = ir.OpFCmp
		zero = ir.FloatConst(t.Base, 0)
	}
	in := g.emit(op, ast.Scalar(ast.KInt))
	in.Pr = ir.PredNE
	in.Args = []ir.Value{v, zero}
	return in
}

func predOf(k token.Kind) ir.Pred {
	switch k {
	case token.EQ:
		return ir.PredEQ
	case token.NEQ:
		return ir.PredNE
	case token.LT:
		return ir.PredLT
	case token.LEQ:
		return ir.PredLE
	case token.GT:
		return ir.PredGT
	default:
		return ir.PredGE
	}
}

func (g *generator) assign(x *ast.AssignExpr) ir.Value {
	// Pointer-variable compound assignment: p += n adjusts the offset cell.
	if id, ok := ast.Unparen(x.LHS).(*ast.Ident); ok {
		if b := g.bindings[g.info.Uses[id]]; b != nil && b.ptrOff != nil {
			switch x.Op {
			case token.ADDASSIGN, token.SUBASSIGN:
				cur := g.loadFrom(b.ptrOff, nil, ast.Scalar(ast.KLong))
				delta := g.coerce(g.expr(x.RHS), ast.Scalar(ast.KLong))
				op := ir.OpAdd
				if x.Op == token.SUBASSIGN {
					op = ir.OpSub
				}
				nv := g.binOp(op, cur, delta)
				g.storeTo(b.ptrOff, nil, nv)
				return nv
			case token.ASSIGN:
				ref := g.ptrExpr(x.RHS)
				if ref.store != b.ptr.store {
					g.fail(x.Pos(), "pointer %s may only be reassigned within its original buffer", id.Name)
					return ir.IntConst(ast.KInt, 0)
				}
				g.storeTo(b.ptrOff, nil, g.indexValue(ref))
				return ir.IntConst(ast.KInt, 0)
			}
		}
	}
	if x.Op == token.ASSIGN {
		v := g.expr(x.RHS)
		return g.assignTo(x.LHS, v)
	}
	// Compound assignment: load, combine, store.
	old := g.loadLValue(x.LHS)
	rhs := g.expr(x.RHS)
	t := old.Type()
	rhs = g.coerce(rhs, t)
	var op ir.Op
	switch x.Op {
	case token.ADDASSIGN:
		op = ir.OpAdd
	case token.SUBASSIGN:
		op = ir.OpSub
	case token.MULASSIGN:
		op = ir.OpMul
	case token.QUOASSIGN:
		op = ir.OpDiv
	case token.REMASSIGN:
		op = ir.OpRem
	case token.ANDASSIGN:
		op = ir.OpAnd
	case token.ORASSIGN:
		op = ir.OpOr
	case token.XORASSIGN:
		op = ir.OpXor
	case token.SHLASSIGN:
		op = ir.OpShl
	case token.SHRASSIGN:
		op = ir.OpAShr
	default:
		g.fail(x.Pos(), "unsupported compound assignment %v", x.Op)
		return old
	}
	if t.Base.IsFloat() {
		switch op {
		case ir.OpAdd:
			op = ir.OpFAdd
		case ir.OpSub:
			op = ir.OpFSub
		case ir.OpMul:
			op = ir.OpFMul
		case ir.OpDiv:
			op = ir.OpFDiv
		}
	}
	in := g.emit(op, t)
	in.Args = []ir.Value{old, rhs}
	return g.assignTo(x.LHS, in)
}

func (g *generator) call(x *ast.CallExpr) ir.Value {
	if b := g.info.BuiltinCalls[x]; b != nil {
		return g.builtinCall(x, b)
	}
	fn := g.info.Calls[x]
	if fn == nil {
		g.fail(x.Pos(), "internal: unresolved call %s", x.Fun)
		return ir.IntConst(ast.KInt, 0)
	}
	return g.inlineCall(x, fn)
}

func (g *generator) builtinCall(x *ast.CallExpr, b *sema.Builtin) ir.Value {
	switch b.Kind {
	case sema.BWorkItem:
		dim := 0
		if len(x.Args) > 0 {
			if c, ok := sema.ConstFold(x.Args[0]); ok {
				dim = int(c)
			} else {
				// Dynamic dimension arguments are rare; evaluate and pin 0.
				g.expr(x.Args[0])
			}
		}
		in := g.emit(ir.OpWorkItem, x.TypeOf())
		in.Fn = b.Name
		in.Dim = dim
		return in
	case sema.BConvert:
		return g.coerce(g.expr(x.Args[0]), x.TypeOf())
	case sema.BAtomic:
		ref := g.ptrExpr(x.Args[0])
		if ref.store == nil {
			return ir.IntConst(ast.KInt, 0)
		}
		args := []ir.Value{g.indexValue(ref)}
		for _, a := range x.Args[1:] {
			args = append(args, g.coerce(g.expr(a), elemOf(ref.store)))
		}
		in := g.emit(ir.OpAtomic, x.TypeOf())
		in.Fn = b.Name
		in.Mem = ref.store
		in.Args = args
		return in
	default: // BMath, BSelect
		t := x.TypeOf()
		var args []ir.Value
		for _, a := range x.Args {
			av := g.expr(a)
			// Element-wise builtins: unify operand ranks with the result.
			if t.IsVector() && av.Type().IsScalar() {
				av = g.coerce(av, t)
			}
			args = append(args, av)
		}
		in := g.emit(ir.OpCall, t)
		in.Fn = b.Name
		in.Args = args
		return in
	}
}

func (g *generator) inlineCall(x *ast.CallExpr, fn *ast.FuncDecl) ir.Value {
	if len(g.inlines) >= maxInlineDepth {
		g.fail(x.Pos(), "call nesting too deep (recursion?) at %s", fn.Name)
		return ir.IntConst(ast.KInt, 0)
	}
	// Bind arguments.
	saved := make(map[*sema.Symbol]*binding, len(fn.Params))
	for i, p := range fn.Params {
		sym := g.info.ParamSyms[p]
		saved[sym] = g.bindings[sym]
		if i >= len(x.Args) {
			g.bindings[sym] = &binding{value: ir.IntConst(ast.KInt, 0)}
			continue
		}
		if p.Type.Ptr {
			ref := g.ptrExpr(x.Args[i])
			g.bindings[sym] = &binding{ptr: &memRef{store: ref.store, index: ref.index, rem: ref.rem}}
		} else {
			v := g.coerce(g.expr(x.Args[i]), p.Type)
			// Parameters are mutable inside the callee: give them a cell.
			cell := g.newAlloca(fn.Name+"."+p.Name, p.Type, nil, ast.ASPrivate)
			g.storeTo(cell, nil, v)
			g.bindings[sym] = &binding{alloca: cell}
		}
	}
	var retAl *ir.Alloca
	if !fn.Ret.IsVoid() {
		retAl = g.newAlloca(fn.Name+".ret", fn.Ret, nil, ast.ASPrivate)
	}
	retBlk := g.f.NewBlock(fn.Name + ".exit")
	g.inlines = append(g.inlines, inlineCtx{retAlloca: retAl, retBlock: retBlk, fn: fn})
	g.stmt(fn.Body)
	g.inlines = g.inlines[:len(g.inlines)-1]
	g.br(retBlk)
	g.cur = retBlk
	// Restore outer bindings.
	for sym, b := range saved {
		if b == nil {
			delete(g.bindings, sym)
		} else {
			g.bindings[sym] = b
		}
	}
	if retAl != nil {
		return g.loadFrom(retAl, nil, fn.Ret)
	}
	return ir.IntConst(ast.KInt, 0)
}
