package sema

import (
	"fmt"

	"repro/internal/opencl/ast"
	"repro/internal/opencl/token"
)

// SymKind classifies resolved symbols.
type SymKind int

// Symbol kinds.
const (
	SymParam SymKind = iota
	SymVar
	SymFunc
)

// Symbol is a resolved named entity.
type Symbol struct {
	Name  string
	Kind  SymKind
	Type  ast.Type
	Space ast.AddrSpace // for variables/arrays
	Dims  []int64       // folded array dimensions (nil for scalars)
	Param *ast.ParamDecl
	Decl  *ast.DeclStmt
	Func  *ast.FuncDecl
}

// IsArray reports whether the symbol is an array variable.
func (s *Symbol) IsArray() bool { return len(s.Dims) > 0 }

// TotalLen returns the flattened element count of an array symbol.
func (s *Symbol) TotalLen() int64 {
	n := int64(1)
	for _, d := range s.Dims {
		n *= d
	}
	return n
}

// Info is the result of semantic analysis for one file.
type Info struct {
	File *ast.File
	// Uses maps identifier references to their symbols.
	Uses map[*ast.Ident]*Symbol
	// VarSyms maps declarations to their symbols.
	VarSyms map[*ast.DeclStmt]*Symbol
	// ParamSyms maps parameter declarations to their symbols.
	ParamSyms map[*ast.ParamDecl]*Symbol
	// Calls maps call expressions to the callee (user functions only).
	Calls map[*ast.CallExpr]*ast.FuncDecl
	// BuiltinCalls maps call expressions to builtin descriptors.
	BuiltinCalls map[*ast.CallExpr]*Builtin
}

// Error is a semantic diagnostic.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%v: %s", e.Pos, e.Msg) }

// ErrorList is a list of semantic diagnostics; it implements error.
type ErrorList []*Error

func (l ErrorList) Error() string {
	switch len(l) {
	case 0:
		return "no errors"
	case 1:
		return l[0].Error()
	default:
		return fmt.Sprintf("%s (and %d more errors)", l[0], len(l)-1)
	}
}

// Check runs semantic analysis over a parsed file.
func Check(f *ast.File) (*Info, error) {
	c := &checker{
		info: &Info{
			File:         f,
			Uses:         make(map[*ast.Ident]*Symbol),
			VarSyms:      make(map[*ast.DeclStmt]*Symbol),
			ParamSyms:    make(map[*ast.ParamDecl]*Symbol),
			Calls:        make(map[*ast.CallExpr]*ast.FuncDecl),
			BuiltinCalls: make(map[*ast.CallExpr]*Builtin),
		},
		funcs: make(map[string]*ast.FuncDecl),
	}
	for _, fn := range f.Funcs {
		if prev, dup := c.funcs[fn.Name]; dup && prev != fn {
			c.errorf(fn.Pos(), "function %s redeclared", fn.Name)
		}
		c.funcs[fn.Name] = fn
	}
	for _, fn := range f.Funcs {
		c.checkFunc(fn)
	}
	if len(c.errs) > 0 {
		return nil, c.errs
	}
	return c.info, nil
}

type scope struct {
	parent *scope
	syms   map[string]*Symbol
}

func (s *scope) lookup(name string) *Symbol {
	for sc := s; sc != nil; sc = sc.parent {
		if sym, ok := sc.syms[name]; ok {
			return sym
		}
	}
	return nil
}

type checker struct {
	info    *Info
	funcs   map[string]*ast.FuncDecl
	errs    ErrorList
	cur     *scope
	curFunc *ast.FuncDecl
	// callStack guards against recursion (unsupported on FPGA pipelines).
	callStack []string
}

func (c *checker) errorf(pos token.Pos, format string, args ...any) {
	if len(c.errs) < 30 {
		c.errs = append(c.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

func (c *checker) push() { c.cur = &scope{parent: c.cur, syms: map[string]*Symbol{}} }
func (c *checker) pop()  { c.cur = c.cur.parent }

func (c *checker) declare(sym *Symbol, pos token.Pos) {
	if _, dup := c.cur.syms[sym.Name]; dup {
		c.errorf(pos, "%s redeclared in this scope", sym.Name)
	}
	c.cur.syms[sym.Name] = sym
}

func (c *checker) checkFunc(fn *ast.FuncDecl) {
	c.curFunc = fn
	c.callStack = append(c.callStack, fn.Name)
	defer func() { c.callStack = c.callStack[:len(c.callStack)-1] }()
	c.push()
	defer c.pop()
	for _, p := range fn.Params {
		if fn.IsKernel && p.Type.Ptr && p.Type.Space == ast.ASPrivate {
			c.errorf(p.Pos(), "kernel pointer parameter %s must have an address space qualifier", p.Name)
		}
		sym := &Symbol{Name: p.Name, Kind: SymParam, Type: p.Type, Space: p.Type.Space, Param: p}
		c.info.ParamSyms[p] = sym
		c.declare(sym, p.Pos())
	}
	if fn.Body != nil {
		c.checkStmt(fn.Body)
	}
}

func (c *checker) checkStmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		c.push()
		for _, sub := range st.List {
			c.checkStmt(sub)
		}
		c.pop()
	case *ast.DeclStmt:
		c.checkDecl(st)
	case *ast.ExprStmt:
		c.checkExpr(st.X)
	case *ast.IfStmt:
		c.checkExpr(st.Cond)
		c.checkStmt(st.Then)
		if st.Else != nil {
			c.checkStmt(st.Else)
		}
	case *ast.ForStmt:
		c.push()
		if st.Init != nil {
			c.checkStmt(st.Init)
		}
		if st.Cond != nil {
			c.checkExpr(st.Cond)
		}
		if st.Post != nil {
			c.checkExpr(st.Post)
		}
		c.checkStmt(st.Body)
		c.pop()
	case *ast.WhileStmt:
		c.checkExpr(st.Cond)
		c.checkStmt(st.Body)
	case *ast.DoWhileStmt:
		c.checkStmt(st.Body)
		c.checkExpr(st.Cond)
	case *ast.ReturnStmt:
		if st.X != nil {
			c.checkExpr(st.X)
			if c.curFunc.Ret.IsVoid() {
				c.errorf(st.Pos(), "return with value in void function %s", c.curFunc.Name)
			}
		} else if !c.curFunc.Ret.IsVoid() {
			c.errorf(st.Pos(), "return without value in non-void function %s", c.curFunc.Name)
		}
	case *ast.SwitchStmt:
		ct := c.checkExpr(st.Cond)
		if !ct.IsScalar() || !ct.Base.IsInteger() {
			c.errorf(st.Pos(), "switch condition must be an integer scalar, have %v", ct)
		}
		sawDefault := false
		seen := map[int64]bool{}
		for _, cs := range st.Cases {
			if cs.Vals == nil {
				if sawDefault {
					c.errorf(cs.Position, "duplicate default case")
				}
				sawDefault = true
			}
			for _, v := range cs.Vals {
				c.checkExpr(v)
				n, ok := ConstFold(v)
				if !ok {
					c.errorf(v.Pos(), "case label must be an integer constant")
					continue
				}
				if seen[n] {
					c.errorf(v.Pos(), "duplicate case value %d", n)
				}
				seen[n] = true
			}
			c.push()
			for _, s := range cs.Body {
				c.checkStmt(s)
			}
			c.pop()
		}
	case *ast.BarrierStmt, *ast.BreakStmt, *ast.ContinueStmt, *ast.EmptyStmt:
		// nothing to check
	}
}

func (c *checker) checkDecl(d *ast.DeclStmt) {
	sym := &Symbol{Name: d.Name, Kind: SymVar, Type: d.Type, Space: d.Space, Decl: d}
	for _, lenExpr := range d.ArrayLen {
		c.checkExpr(lenExpr)
		n, ok := ConstFold(lenExpr)
		if !ok || n <= 0 {
			c.errorf(lenExpr.Pos(), "array dimension of %s must be a positive constant", d.Name)
			n = 1
		}
		sym.Dims = append(sym.Dims, n)
	}
	if d.Init != nil {
		c.checkExpr(d.Init)
		if sym.IsArray() {
			c.errorf(d.Pos(), "array initializers are not supported (%s)", d.Name)
		}
	}
	c.info.VarSyms[d] = sym
	c.declare(sym, d.Pos())
}

// ConstFold evaluates an integer constant expression: literals (macros
// arrive expanded), unary +, - and ~, binary arithmetic, remainder,
// shifts and bitwise operators, and casts. It reads only the expression,
// so the IR generator folds with it too.
func ConstFold(e ast.Expr) (int64, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.IntLit:
		return x.Value, true
	case *ast.UnaryExpr:
		v, ok := ConstFold(x.X)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case token.SUB:
			return -v, true
		case token.ADD:
			return v, true
		case token.TILDE:
			return ^v, true
		}
	case *ast.BinaryExpr:
		a, ok1 := ConstFold(x.X)
		b, ok2 := ConstFold(x.Y)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch x.Op {
		case token.ADD:
			return a + b, true
		case token.SUB:
			return a - b, true
		case token.MUL:
			return a * b, true
		case token.QUO:
			if b != 0 {
				return a / b, true
			}
		case token.REM:
			if b != 0 {
				return a % b, true
			}
		case token.SHL:
			return a << uint(b), true
		case token.SHR:
			return a >> uint(b), true
		case token.AND:
			return a & b, true
		case token.OR:
			return a | b, true
		case token.XOR:
			return a ^ b, true
		}
	case *ast.CastExpr:
		return ConstFold(x.X)
	}
	return 0, false
}

// setType assigns the computed type to an expression node.
func setType(e ast.Expr, t ast.Type) ast.Type {
	type typeSetter interface{ SetType(ast.Type) }
	if ts, ok := e.(typeSetter); ok {
		ts.SetType(t)
	}
	return t
}

// UsualArith implements the usual arithmetic conversions for two operand
// types: float beats int, wider beats narrower, vectors dominate scalars,
// and sub-int integers promote to int.
func UsualArith(a, b ast.Type) ast.Type {
	if a.Ptr {
		return a
	}
	if b.Ptr {
		return b
	}
	out := a
	if b.Lanes() > out.Lanes() {
		out.Vec = b.Vec
	}
	rank := func(k ast.BaseKind) int {
		switch k {
		case ast.KDouble:
			return 10
		case ast.KFloat:
			return 9
		case ast.KULong:
			return 8
		case ast.KLong:
			return 7
		case ast.KUInt:
			return 6
		case ast.KInt:
			return 5
		case ast.KUShort:
			return 4
		case ast.KShort:
			return 3
		case ast.KUChar:
			return 2
		case ast.KChar:
			return 1
		default:
			return 0
		}
	}
	if rank(b.Base) > rank(a.Base) {
		out.Base = b.Base
	}
	// Promote sub-int integers to int.
	if out.Base.IsInteger() && rank(out.Base) < rank(ast.KInt) {
		out.Base = ast.KInt
	}
	return out
}

func (c *checker) checkExpr(e ast.Expr) ast.Type {
	switch x := e.(type) {
	case *ast.IntLit:
		return setType(x, ast.Scalar(ast.KInt))
	case *ast.FloatLit:
		return setType(x, ast.Scalar(ast.KFloat))
	case *ast.Ident:
		sym := c.cur.lookup(x.Name)
		if sym == nil {
			c.errorf(x.Pos(), "undeclared identifier %s", x.Name)
			return setType(x, ast.Scalar(ast.KInt))
		}
		c.info.Uses[x] = sym
		t := sym.Type
		if sym.IsArray() {
			// Arrays decay to pointers into their storage space.
			t = ast.Pointer(sym.Type, sym.Space)
		}
		return setType(x, t)
	case *ast.ParenExpr:
		return setType(x, c.checkExpr(x.X))
	case *ast.UnaryExpr:
		t := c.checkExpr(x.X)
		switch x.Op {
		case token.NOT:
			return setType(x, ast.Scalar(ast.KInt))
		case token.MUL: // deref
			if !t.Ptr {
				c.errorf(x.Pos(), "cannot dereference non-pointer")
				return setType(x, t)
			}
			return setType(x, t.Elem())
		case token.AND: // address-of
			space := ast.ASPrivate
			if lv := c.lvalueSpace(x.X); lv != nil {
				space = *lv
			}
			return setType(x, ast.Pointer(t, space))
		default:
			return setType(x, t)
		}
	case *ast.BinaryExpr:
		a := c.checkExpr(x.X)
		b := c.checkExpr(x.Y)
		switch x.Op {
		case token.LAND, token.LOR, token.EQ, token.NEQ,
			token.LT, token.GT, token.LEQ, token.GEQ:
			t := ast.Scalar(ast.KInt)
			if a.IsVector() || b.IsVector() {
				t = UsualArith(a, b)
				t.Base = ast.KInt
			}
			return setType(x, t)
		case token.COMMA:
			return setType(x, b)
		default:
			if a.Ptr || b.Ptr {
				// Pointer arithmetic keeps the pointer type.
				if a.Ptr {
					return setType(x, a)
				}
				return setType(x, b)
			}
			return setType(x, UsualArith(a, b))
		}
	case *ast.AssignExpr:
		lt := c.checkExpr(x.LHS)
		c.checkExpr(x.RHS)
		if !c.isLvalue(x.LHS) {
			c.errorf(x.Pos(), "left side of assignment is not assignable")
		}
		return setType(x, lt)
	case *ast.CondExpr:
		c.checkExpr(x.Cond)
		a := c.checkExpr(x.Then)
		b := c.checkExpr(x.Else)
		return setType(x, UsualArith(a, b))
	case *ast.CallExpr:
		return c.checkCall(x)
	case *ast.IndexExpr:
		bt := c.checkExpr(x.X)
		c.checkExpr(x.Index)
		if !bt.Ptr {
			c.errorf(x.Pos(), "subscript of non-pointer/array value")
			return setType(x, bt)
		}
		// Multi-dimensional arrays are stored flattened; indexing yields a
		// pointer until the last declared dimension is consumed.
		if sym, depth := c.arrayChain(x); sym != nil && depth < len(sym.Dims) {
			return setType(x, bt) // still a pointer into the array
		}
		return setType(x, bt.Elem())
	case *ast.MemberExpr:
		bt := c.checkExpr(x.X)
		if !bt.IsVector() {
			c.errorf(x.Pos(), "member selection on non-vector type %v", bt)
			return setType(x, bt)
		}
		lanes, ok := swizzleLanes(x.Sel, bt.Lanes())
		if !ok {
			c.errorf(x.Pos(), "bad vector component %q for %v", x.Sel, bt)
			lanes = []int{0}
		}
		x.Lanes = lanes
		t := bt
		if len(lanes) == 1 {
			t.Vec = 1
		} else {
			t.Vec = len(lanes)
		}
		return setType(x, t)
	case *ast.CastExpr:
		c.checkExpr(x.X)
		return setType(x, x.To)
	case *ast.VecLit:
		total := 0
		for _, el := range x.Elems {
			et := c.checkExpr(el)
			total += et.Lanes()
		}
		if total != x.To.Lanes() && total != 1 {
			c.errorf(x.Pos(), "vector literal of %v has %d elements", x.To, total)
		}
		return setType(x, x.To)
	}
	return ast.Scalar(ast.KInt)
}

func (c *checker) checkCall(x *ast.CallExpr) ast.Type {
	var argTypes []ast.Type
	for _, a := range x.Args {
		argTypes = append(argTypes, c.checkExpr(a))
	}
	if b := LookupBuiltin(x.Fun); b != nil {
		if b.NArgs >= 0 && len(x.Args) != b.NArgs {
			c.errorf(x.Pos(), "%s expects %d arguments, got %d", x.Fun, b.NArgs, len(x.Args))
		}
		c.info.BuiltinCalls[x] = b
		return setType(x, b.Ret(argTypes))
	}
	fn, ok := c.funcs[x.Fun]
	if !ok {
		c.errorf(x.Pos(), "call to undefined function %s", x.Fun)
		return setType(x, ast.Scalar(ast.KInt))
	}
	if fn.IsKernel {
		c.errorf(x.Pos(), "cannot call kernel %s from device code", x.Fun)
	}
	for _, active := range c.callStack {
		if active == fn.Name {
			c.errorf(x.Pos(), "recursive call to %s is not supported", fn.Name)
			return setType(x, fn.Ret)
		}
	}
	if len(x.Args) != len(fn.Params) {
		c.errorf(x.Pos(), "%s expects %d arguments, got %d", x.Fun, len(fn.Params), len(x.Args))
	}
	c.info.Calls[x] = fn
	return setType(x, fn.Ret)
}

// arrayChain resolves a nested index expression rooted at an array
// identifier, returning the array symbol and the number of subscripts
// consumed so far (including the receiver). Returns (nil, 0) when the base
// is not a declared array.
func (c *checker) arrayChain(e *ast.IndexExpr) (*Symbol, int) {
	depth := 0
	var cur ast.Expr = e
	for {
		ix, ok := ast.Unparen(cur).(*ast.IndexExpr)
		if !ok {
			break
		}
		depth++
		cur = ix.X
	}
	id, ok := ast.Unparen(cur).(*ast.Ident)
	if !ok {
		return nil, 0
	}
	sym := c.info.Uses[id]
	if sym == nil || !sym.IsArray() {
		return nil, 0
	}
	return sym, depth
}

// isLvalue reports whether e may appear on the left of an assignment.
func (c *checker) isLvalue(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return true
	case *ast.IndexExpr:
		return true
	case *ast.MemberExpr:
		return c.isLvalue(x.X)
	case *ast.UnaryExpr:
		return x.Op == token.MUL
	}
	return false
}

// lvalueSpace returns the address space of an lvalue expression, or nil.
func (c *checker) lvalueSpace(e ast.Expr) *ast.AddrSpace {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if sym := c.cur.lookup(x.Name); sym != nil {
			sp := sym.Space
			return &sp
		}
	case *ast.IndexExpr:
		t := x.X.TypeOf()
		if t.Ptr {
			sp := t.Space
			return &sp
		}
	}
	return nil
}

// swizzleLanes resolves a vector component selector: xyzw names, sN hex
// digits, and lo/hi/even/odd halves.
func swizzleLanes(sel string, width int) ([]int, bool) {
	half := width / 2
	switch sel {
	case "lo":
		return seq(0, half), true
	case "hi":
		return seq(half, width), true
	case "even":
		return stride(0, width, 2), true
	case "odd":
		return stride(1, width, 2), true
	}
	if len(sel) >= 2 && sel[0] == 's' {
		var lanes []int
		for _, ch := range sel[1:] {
			v := hexVal(byte(ch))
			if v < 0 || v >= width {
				return nil, false
			}
			lanes = append(lanes, v)
		}
		return lanes, true
	}
	var lanes []int
	for i := 0; i < len(sel); i++ {
		var v int
		switch sel[i] {
		case 'x':
			v = 0
		case 'y':
			v = 1
		case 'z':
			v = 2
		case 'w':
			v = 3
		default:
			return nil, false
		}
		if v >= width {
			return nil, false
		}
		lanes = append(lanes, v)
	}
	return lanes, len(lanes) > 0
}

func seq(lo, hi int) []int {
	var out []int
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

func stride(start, end, step int) []int {
	var out []int
	for i := start; i < end; i += step {
		out = append(out, i)
	}
	return out
}

func hexVal(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}
