// Package irgen lowers the semantically checked OpenCL AST into the
// package ir representation. Device helper functions are fully inlined at
// their call sites (as every OpenCL-to-FPGA flow does when building the
// hardware pipeline), so the result is one self-contained ir.Func per
// kernel.
package irgen

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/opencl/ast"
	"repro/internal/opencl/sema"
	"repro/internal/opencl/token"
)

// maxInlineDepth bounds (indirect) recursion during inlining.
const maxInlineDepth = 16

// Error is an IR-generation diagnostic.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%v: %s", e.Pos, e.Msg) }

// Module is the lowered form of one OpenCL file.
type Module struct {
	Kernels []*ir.Func
}

// Kernel returns the lowered kernel with the given name, or nil.
func (m *Module) Kernel(name string) *ir.Func {
	for _, k := range m.Kernels {
		if k.Name == name {
			return k
		}
	}
	return nil
}

// Build lowers every kernel of the checked file.
func Build(info *sema.Info) (*Module, error) {
	m := &Module{}
	for _, fn := range info.File.Kernels() {
		g := &generator{info: info, bindings: map[*sema.Symbol]*binding{}}
		f, err := g.lowerKernel(fn)
		if err != nil {
			return nil, err
		}
		m.Kernels = append(m.Kernels, f)
	}
	return m, nil
}

// memRef is a symbolic pointer: a storage object plus a runtime element
// index, with any not-yet-consumed array dimensions.
type memRef struct {
	store ir.Storage
	index ir.Value // element index; nil means constant 0
	rem   []int64  // remaining dims for partially indexed arrays
}

// binding associates a symbol with either a storage cell (scalar/array) or
// a direct value (scalar params), or a pointer binding (store + index
// cell holding the current element offset).
type binding struct {
	alloca *ir.Alloca // storage for mutable scalars and arrays
	value  ir.Value   // immutable direct value (scalar params, inlined args)
	ptr    *memRef    // for pointer-typed variables: fixed storage
	ptrOff *ir.Alloca // mutable element-offset cell for pointer variables
}

type loopCtx struct {
	breakBlk    *ir.Block
	continueBlk *ir.Block
}

type inlineCtx struct {
	retAlloca *ir.Alloca
	retBlock  *ir.Block
	fn        *ast.FuncDecl
}

type generator struct {
	info     *sema.Info
	f        *ir.Func
	cur      *ir.Block
	bindings map[*sema.Symbol]*binding
	loops    []loopCtx
	inlines  []inlineCtx
	err      *Error
}

func (g *generator) fail(pos token.Pos, format string, args ...any) {
	if g.err == nil {
		g.err = &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
	}
}

func (g *generator) lowerKernel(fn *ast.FuncDecl) (*ir.Func, error) {
	g.f = ir.NewFunc(fn.Name, true)
	g.f.Attrs = fn.Attrs
	for i, p := range fn.Params {
		ip := &ir.Param{PName: p.Name, T: p.Type, Index: i}
		g.f.Params = append(g.f.Params, ip)
		sym := g.info.ParamSyms[p]
		if p.Type.Ptr {
			g.bindings[sym] = &binding{ptr: &memRef{store: ip}}
		} else {
			g.bindings[sym] = &binding{value: ip}
		}
	}
	g.cur = g.f.NewBlock("entry")
	g.stmt(fn.Body)
	if g.err != nil {
		return nil, g.err
	}
	// Terminate any fall-through path.
	if g.cur != nil && g.cur.Term() == nil {
		g.emit(ir.OpRet, ast.Scalar(ast.KVoid))
	}
	// Terminate any leftover unterminated blocks (e.g. dead merge blocks).
	for _, b := range g.f.Blocks {
		if b.Term() == nil {
			r := g.f.NewInstr(ir.OpRet, ast.Scalar(ast.KVoid))
			g.f.Append(b, r)
		}
	}
	g.f.AnalyzeLoops()
	return g.f, nil
}

// emit appends a new instruction to the current block.
func (g *generator) emit(op ir.Op, t ast.Type) *ir.Instr {
	in := g.f.NewInstr(op, t)
	return g.f.Append(g.cur, in)
}

// br terminates the current block with an unconditional branch if it is
// not already terminated.
func (g *generator) br(to *ir.Block) {
	if g.cur == nil || g.cur.Term() != nil {
		g.cur = nil
		return
	}
	in := g.emit(ir.OpBr, ast.Scalar(ast.KVoid))
	in.To = to
	g.cur = nil
}

// condbr terminates the current block with a conditional branch.
func (g *generator) condbr(cond ir.Value, then, els *ir.Block) {
	if g.cur == nil || g.cur.Term() != nil {
		g.cur = nil
		return
	}
	in := g.emit(ir.OpCondBr, ast.Scalar(ast.KVoid))
	in.Args = []ir.Value{cond}
	in.To = then
	in.Else = els
	g.cur = nil
}

// ---- statements ----

func (g *generator) stmt(s ast.Stmt) {
	if g.err != nil || g.cur == nil {
		return
	}
	switch st := s.(type) {
	case *ast.BlockStmt:
		for _, sub := range st.List {
			g.stmt(sub)
			if g.cur == nil {
				return // rest of block is unreachable
			}
		}
	case *ast.DeclStmt:
		g.decl(st)
	case *ast.ExprStmt:
		g.expr(st.X)
	case *ast.IfStmt:
		g.ifStmt(st)
	case *ast.ForStmt:
		g.forStmt(st)
	case *ast.WhileStmt:
		g.whileStmt(st)
	case *ast.DoWhileStmt:
		g.doWhileStmt(st)
	case *ast.ReturnStmt:
		g.returnStmt(st)
	case *ast.SwitchStmt:
		g.switchStmt(st)
	case *ast.BreakStmt:
		if len(g.loops) == 0 {
			g.fail(st.Pos(), "break outside loop or switch")
			return
		}
		g.br(g.loops[len(g.loops)-1].breakBlk)
	case *ast.ContinueStmt:
		// continue binds to the innermost loop, skipping switches.
		for i := len(g.loops) - 1; i >= 0; i-- {
			if g.loops[i].continueBlk != nil {
				g.br(g.loops[i].continueBlk)
				return
			}
		}
		g.fail(st.Pos(), "continue outside loop")
	case *ast.BarrierStmt:
		in := g.emit(ir.OpBarrier, ast.Scalar(ast.KVoid))
		switch {
		case st.Local && st.Global:
			in.Fn = "local|global"
		case st.Global:
			in.Fn = "global"
		default:
			in.Fn = "local"
		}
		g.f.HasBarrier = true
	case *ast.EmptyStmt:
	}
}

func (g *generator) decl(d *ast.DeclStmt) {
	sym := g.info.VarSyms[d]
	if sym == nil {
		g.fail(d.Pos(), "internal: unresolved declaration %s", d.Name)
		return
	}
	if d.Type.Ptr {
		// Pointer variable: must be initialized from a pointer expression;
		// the storage is fixed, the element offset lives in a cell.
		ref := memRef{}
		if d.Init != nil {
			ref = g.ptrExpr(d.Init)
		} else {
			g.fail(d.Pos(), "pointer variable %s must be initialized", d.Name)
			return
		}
		if ref.store == nil {
			return
		}
		off := g.newAlloca(d.Name+".off", ast.Scalar(ast.KLong), nil, ast.ASPrivate)
		g.storeTo(off, nil, g.indexValue(ref))
		g.bindings[sym] = &binding{ptr: &memRef{store: ref.store}, ptrOff: off}
		return
	}
	al := g.newAlloca(d.Name, elemTypeOf(sym), sym.Dims, spaceOf(sym))
	g.bindings[sym] = &binding{alloca: al}
	if d.Init != nil {
		v := g.coerce(g.expr(d.Init), elemTypeOf(sym))
		g.storeTo(al, nil, v)
	}
}

func elemTypeOf(sym *sema.Symbol) ast.Type {
	t := sym.Type
	t.Ptr = false
	t.Space = ast.ASPrivate
	return t
}

func spaceOf(sym *sema.Symbol) ast.AddrSpace {
	if sym.Space == ast.ASLocal {
		return ast.ASLocal
	}
	return ast.ASPrivate
}

func (g *generator) newAlloca(name string, elem ast.Type, dims []int64, space ast.AddrSpace) *ir.Alloca {
	count := int64(1)
	for _, d := range dims {
		count *= d
	}
	a := &ir.Alloca{
		AName: fmt.Sprintf("%s.%d", name, len(g.f.Allocas)),
		Elem:  elem, Count: count, Dims: dims, AS: space,
		Idx: len(g.f.Allocas),
	}
	g.f.Allocas = append(g.f.Allocas, a)
	return a
}

func (g *generator) ifStmt(st *ast.IfStmt) {
	cond := g.expr(st.Cond)
	thenB := g.f.NewBlock("then")
	var elseB *ir.Block
	merge := g.f.NewBlock("endif")
	if st.Else != nil {
		elseB = g.f.NewBlock("else")
		g.condbr(cond, thenB, elseB)
	} else {
		g.condbr(cond, thenB, merge)
	}
	g.cur = thenB
	g.stmt(st.Then)
	g.br(merge)
	if st.Else != nil {
		g.cur = elseB
		g.stmt(st.Else)
		g.br(merge)
	}
	g.cur = merge
}

func (g *generator) forStmt(st *ast.ForStmt) {
	if st.Init != nil {
		g.stmt(st.Init)
	}
	header := g.f.NewBlock("for.cond")
	body := g.f.NewBlock("for.body")
	latch := g.f.NewBlock("for.inc")
	exit := g.f.NewBlock("for.end")
	if trip, ok := g.staticTrip(st); ok {
		g.f.TripHints[header] = trip
	}
	if st.Unroll != 0 {
		g.f.UnrollHints[header] = st.Unroll
	}
	g.br(header)
	g.cur = header
	if st.Cond != nil {
		g.condbr(g.expr(st.Cond), body, exit)
	} else {
		g.br(body)
	}
	g.cur = body
	g.loops = append(g.loops, loopCtx{breakBlk: exit, continueBlk: latch})
	g.stmt(st.Body)
	g.loops = g.loops[:len(g.loops)-1]
	g.br(latch)
	g.cur = latch
	if st.Post != nil {
		g.expr(st.Post)
	}
	g.br(header)
	g.cur = exit
}

func (g *generator) whileStmt(st *ast.WhileStmt) {
	header := g.f.NewBlock("while.cond")
	body := g.f.NewBlock("while.body")
	exit := g.f.NewBlock("while.end")
	if st.Unroll != 0 {
		g.f.UnrollHints[header] = st.Unroll
	}
	g.br(header)
	g.cur = header
	g.condbr(g.expr(st.Cond), body, exit)
	g.cur = body
	g.loops = append(g.loops, loopCtx{breakBlk: exit, continueBlk: header})
	g.stmt(st.Body)
	g.loops = g.loops[:len(g.loops)-1]
	g.br(header)
	g.cur = exit
}

func (g *generator) doWhileStmt(st *ast.DoWhileStmt) {
	body := g.f.NewBlock("do.body")
	header := g.f.NewBlock("do.cond")
	exit := g.f.NewBlock("do.end")
	g.br(body)
	g.cur = body
	g.loops = append(g.loops, loopCtx{breakBlk: exit, continueBlk: header})
	g.stmt(st.Body)
	g.loops = g.loops[:len(g.loops)-1]
	g.br(header)
	g.cur = header
	g.condbr(g.expr(st.Cond), body, exit)
	g.cur = exit
}

// switchStmt lowers a C switch: a chain of equality tests dispatches into
// per-case bodies that fall through to each other unless they break.
func (g *generator) switchStmt(st *ast.SwitchStmt) {
	cond := g.expr(st.Cond)
	exit := g.f.NewBlock("sw.end")
	bodies := make([]*ir.Block, len(st.Cases))
	for i := range st.Cases {
		bodies[i] = g.f.NewBlock(fmt.Sprintf("sw.case%d", i))
	}
	defaultIdx := -1
	for i, cs := range st.Cases {
		if cs.Vals == nil {
			defaultIdx = i
		}
	}
	// Dispatch chain.
	for i, cs := range st.Cases {
		for _, v := range cs.Vals {
			if g.cur == nil {
				break
			}
			val := g.coerce(g.expr(v), cond.Type())
			cmp := g.emit(ir.OpICmp, ast.Scalar(ast.KInt))
			cmp.Pr = ir.PredEQ
			cmp.Args = []ir.Value{cond, val}
			next := g.f.NewBlock("sw.test")
			g.condbr(cmp, bodies[i], next)
			g.cur = next
		}
	}
	if defaultIdx >= 0 {
		g.br(bodies[defaultIdx])
	} else {
		g.br(exit)
	}
	// Bodies with C fallthrough.
	for i, cs := range st.Cases {
		g.cur = bodies[i]
		g.loops = append(g.loops, loopCtx{breakBlk: exit})
		for _, s := range cs.Body {
			g.stmt(s)
			if g.cur == nil {
				break
			}
		}
		g.loops = g.loops[:len(g.loops)-1]
		if i+1 < len(bodies) {
			g.br(bodies[i+1])
		} else {
			g.br(exit)
		}
	}
	g.cur = exit
}

func (g *generator) returnStmt(st *ast.ReturnStmt) {
	if len(g.inlines) > 0 {
		ic := g.inlines[len(g.inlines)-1]
		if st.X != nil && ic.retAlloca != nil {
			v := g.coerce(g.expr(st.X), ic.retAlloca.Elem)
			g.storeTo(ic.retAlloca, nil, v)
		}
		g.br(ic.retBlock)
		return
	}
	// Kernel return: terminate this path.
	g.emit(ir.OpRet, ast.Scalar(ast.KVoid))
	g.cur = nil
}

// staticTrip recognizes for (i = c0; i <cmp> cN; i += step) with integer
// constant expressions (sema.ConstFold) and returns the trip count.
func (g *generator) staticTrip(st *ast.ForStmt) (int64, bool) {
	// Initial value.
	var ivSym *sema.Symbol
	var start int64
	switch init := st.Init.(type) {
	case *ast.DeclStmt:
		sym := g.info.VarSyms[init]
		v, ok := sema.ConstFold(init.Init)
		if !ok {
			return 0, false
		}
		ivSym, start = sym, v
	case *ast.ExprStmt:
		as, ok := ast.Unparen(init.X).(*ast.AssignExpr)
		if !ok || as.Op != token.ASSIGN {
			return 0, false
		}
		id, ok := ast.Unparen(as.LHS).(*ast.Ident)
		if !ok {
			return 0, false
		}
		v, ok := sema.ConstFold(as.RHS)
		if !ok {
			return 0, false
		}
		ivSym, start = g.info.Uses[id], v
	default:
		return 0, false
	}
	if ivSym == nil {
		return 0, false
	}
	// Condition i < N, i <= N, i > N, i >= N.
	cmp, ok := ast.Unparen(st.Cond).(*ast.BinaryExpr)
	if !ok {
		return 0, false
	}
	id, ok := ast.Unparen(cmp.X).(*ast.Ident)
	if !ok || g.info.Uses[id] != ivSym {
		return 0, false
	}
	bound, ok := sema.ConstFold(cmp.Y)
	if !ok {
		return 0, false
	}
	// Step from post: i++, i--, i+=c, i-=c.
	step := int64(0)
	switch post := ast.Unparen(st.Post).(type) {
	case *ast.UnaryExpr:
		pid, ok := ast.Unparen(post.X).(*ast.Ident)
		if !ok || g.info.Uses[pid] != ivSym {
			return 0, false
		}
		switch post.Op {
		case token.INC:
			step = 1
		case token.DEC:
			step = -1
		default:
			return 0, false
		}
	case *ast.AssignExpr:
		pid, ok := ast.Unparen(post.LHS).(*ast.Ident)
		if !ok || g.info.Uses[pid] != ivSym {
			return 0, false
		}
		c, ok := sema.ConstFold(post.RHS)
		if !ok {
			return 0, false
		}
		switch post.Op {
		case token.ADDASSIGN:
			step = c
		case token.SUBASSIGN:
			step = -c
		default:
			return 0, false
		}
	default:
		return 0, false
	}
	if step == 0 {
		return 0, false
	}
	var trips int64
	switch cmp.Op {
	case token.LT:
		if step <= 0 || bound <= start {
			return 0, false
		}
		trips = ceilDiv(bound-start, step)
	case token.LEQ:
		if step <= 0 || bound < start {
			return 0, false
		}
		trips = ceilDiv(bound-start+1, step)
	case token.GT:
		if step >= 0 || bound >= start {
			return 0, false
		}
		trips = ceilDiv(start-bound, -step)
	case token.GEQ:
		if step >= 0 || bound > start {
			return 0, false
		}
		trips = ceilDiv(start-bound+1, -step)
	default:
		return 0, false
	}
	return trips, true
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }
