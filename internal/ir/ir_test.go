package ir

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/opencl/ast"
)

// buildDiamond constructs entry → {then, else} → merge.
func buildDiamond() *Func {
	f := NewFunc("diamond", true)
	entry := f.NewBlock("entry")
	thenB := f.NewBlock("then")
	elseB := f.NewBlock("else")
	merge := f.NewBlock("merge")

	cond := f.NewInstr(OpICmp, ast.Scalar(ast.KInt))
	cond.Pr = PredLT
	cond.Args = []Value{IntConst(ast.KInt, 1), IntConst(ast.KInt, 2)}
	f.Append(entry, cond)
	br := f.NewInstr(OpCondBr, ast.Scalar(ast.KVoid))
	br.Args = []Value{cond}
	br.To, br.Else = thenB, elseB
	f.Append(entry, br)

	for _, b := range []*Block{thenB, elseB} {
		j := f.NewInstr(OpBr, ast.Scalar(ast.KVoid))
		j.To = merge
		f.Append(b, j)
	}
	ret := f.NewInstr(OpRet, ast.Scalar(ast.KVoid))
	f.Append(merge, ret)
	return f
}

// buildLoop constructs entry → header ⇄ body, header → exit.
func buildLoop() *Func {
	f := NewFunc("loop", true)
	entry := f.NewBlock("entry")
	header := f.NewBlock("header")
	body := f.NewBlock("body")
	exit := f.NewBlock("exit")

	j := f.NewInstr(OpBr, ast.Scalar(ast.KVoid))
	j.To = header
	f.Append(entry, j)

	cond := f.NewInstr(OpICmp, ast.Scalar(ast.KInt))
	cond.Pr = PredLT
	cond.Args = []Value{IntConst(ast.KInt, 0), IntConst(ast.KInt, 10)}
	f.Append(header, cond)
	br := f.NewInstr(OpCondBr, ast.Scalar(ast.KVoid))
	br.Args = []Value{cond}
	br.To, br.Else = body, exit
	f.Append(header, br)

	back := f.NewInstr(OpBr, ast.Scalar(ast.KVoid))
	back.To = header
	f.Append(body, back)

	ret := f.NewInstr(OpRet, ast.Scalar(ast.KVoid))
	f.Append(exit, ret)
	return f
}

func TestCFGDiamond(t *testing.T) {
	f := buildDiamond()
	f.BuildCFG()
	entry := f.Blocks[0]
	if len(entry.Succs) != 2 {
		t.Fatalf("entry succs = %d", len(entry.Succs))
	}
	merge := f.Blocks[3]
	if len(merge.Preds) != 2 {
		t.Fatalf("merge preds = %d", len(merge.Preds))
	}
	idom := f.Dominators()
	if idom[merge] != entry {
		t.Errorf("idom(merge) = %v, want entry", idom[merge].Label())
	}
	if !Dominates(idom, entry, merge) {
		t.Error("entry must dominate merge")
	}
	if Dominates(idom, f.Blocks[1], merge) {
		t.Error("then must not dominate merge")
	}
}

func TestLoopDetection(t *testing.T) {
	f := buildLoop()
	f.AnalyzeLoops()
	if len(f.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(f.Loops))
	}
	l := f.Loops[0]
	if l.Header.BName != "header" {
		t.Errorf("header = %s", l.Header.BName)
	}
	if l.Latch == nil || l.Latch.BName != "body" {
		t.Errorf("latch = %v", l.Latch)
	}
	if !l.Contains(f.Blocks[2]) {
		t.Error("body not in loop")
	}
	if l.Contains(f.Blocks[3]) {
		t.Error("exit wrongly in loop")
	}
	if f.LoopDepth(f.Blocks[2]) != 1 || f.LoopDepth(f.Blocks[0]) != 0 {
		t.Error("loop depths wrong")
	}
}

func TestReversePostorderProperty(t *testing.T) {
	f := buildDiamond()
	f.BuildCFG()
	rpo := f.ReversePostorder()
	pos := map[*Block]int{}
	for i, b := range rpo {
		pos[b] = i
	}
	// In an acyclic CFG, every edge goes forward in RPO.
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if pos[s] <= pos[b] {
				t.Errorf("edge %s -> %s not forward in RPO", b.Label(), s.Label())
			}
		}
	}
}

func TestUnreachableBlockPruned(t *testing.T) {
	f := buildDiamond()
	dead := f.NewBlock("dead")
	ret := f.NewInstr(OpRet, ast.Scalar(ast.KVoid))
	f.Append(dead, ret)
	f.BuildCFG()
	for _, b := range f.Blocks {
		if b.BName == "dead" {
			t.Fatal("unreachable block not pruned")
		}
	}
}

func TestTripHintsFlow(t *testing.T) {
	f := buildLoop()
	f.TripHints[f.Blocks[1]] = 10
	f.UnrollHints[f.Blocks[1]] = 2
	f.AnalyzeLoops()
	if f.Loops[0].StaticTrip != 10 {
		t.Errorf("trip = %d", f.Loops[0].StaticTrip)
	}
	if f.Loops[0].Unroll != 2 {
		t.Errorf("unroll = %d", f.Loops[0].Unroll)
	}
}

func TestConstProperties(t *testing.T) {
	f := func(v int64) bool {
		c := IntConst(ast.KInt, v)
		return c.I == v && !c.Type().Base.IsFloat() && (c.IsZero() == (v == 0))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	fc := FloatConst(ast.KFloat, 2.5)
	if fc.Name() != "2.5" {
		t.Errorf("float const name = %q", fc.Name())
	}
}

func TestInstrString(t *testing.T) {
	f := NewFunc("k", true)
	b := f.NewBlock("entry")
	add := f.NewInstr(OpAdd, ast.Scalar(ast.KInt))
	add.Args = []Value{IntConst(ast.KInt, 1), IntConst(ast.KInt, 2)}
	f.Append(b, add)
	if s := add.String(); !strings.Contains(s, "add 1, 2") {
		t.Errorf("instr string = %q", s)
	}
	cmp := f.NewInstr(OpICmp, ast.Scalar(ast.KInt))
	cmp.Pr = PredLE
	cmp.Args = []Value{add, IntConst(ast.KInt, 5)}
	f.Append(b, cmp)
	if s := cmp.String(); !strings.Contains(s, "icmp.le") {
		t.Errorf("cmp string = %q", s)
	}
}

func TestOpPredicates(t *testing.T) {
	if !OpBr.IsTerminator() || !OpRet.IsTerminator() || OpAdd.IsTerminator() {
		t.Error("IsTerminator wrong")
	}
	if !OpLoad.IsMemAccess() || !OpAtomic.IsMemAccess() || OpMul.IsMemAccess() {
		t.Error("IsMemAccess wrong")
	}
}

func TestGlobalParamsFilter(t *testing.T) {
	f := NewFunc("k", true)
	f.Params = []*Param{
		{PName: "g", T: ast.Pointer(ast.Scalar(ast.KFloat), ast.ASGlobal)},
		{PName: "l", T: ast.Pointer(ast.Scalar(ast.KFloat), ast.ASLocal)},
		{PName: "n", T: ast.Scalar(ast.KInt)},
		{PName: "c", T: ast.Pointer(ast.Scalar(ast.KInt), ast.ASConstant)},
	}
	gp := f.GlobalParams()
	if len(gp) != 2 || gp[0].PName != "g" || gp[1].PName != "c" {
		t.Errorf("global params = %v", gp)
	}
	if f.Param("n") == nil || f.Param("zz") != nil {
		t.Error("Param lookup wrong")
	}
}

func TestAllocaProperties(t *testing.T) {
	a := &Alloca{AName: "t", Elem: ast.Scalar(ast.KFloat), Count: 64, AS: ast.ASLocal}
	if !a.IsArray() || a.Space() != ast.ASLocal || a.StorageName() != "t" {
		t.Error("alloca accessors wrong")
	}
	s := &Alloca{AName: "x", Elem: ast.Scalar(ast.KInt), Count: 1}
	if s.IsArray() {
		t.Error("scalar alloca reported as array")
	}
}

// TestSameCode: two builds of one function are the same code, and a
// difference String cannot show — a trip or unroll hint, a result type —
// makes them differ, as does a constant.
func TestSameCode(t *testing.T) {
	a, b := buildLoop(), buildLoop()
	if !a.SameCode(b) {
		t.Fatal("two builds of one loop differ")
	}
	for name, edit := range map[string]func(*Func){
		"trip hint":   func(f *Func) { f.TripHints[f.Blocks[1]] = 10 },
		"unroll hint": func(f *Func) { f.UnrollHints[f.Blocks[1]] = 2 },
		"result type": func(f *Func) { f.Blocks[1].Instrs[0].T = ast.Scalar(ast.KLong) },
		"constant": func(f *Func) {
			for _, in := range f.Blocks[1].Instrs {
				for i, v := range in.Args {
					if c, ok := v.(*Const); ok {
						in.Args[i] = IntConst(c.T.Base, c.I+1)
						return
					}
				}
			}
			t.Fatal("loop has no constant operand")
		},
	} {
		c := buildLoop()
		edit(c)
		if a.SameCode(c) || c.SameCode(a) {
			t.Errorf("%s: edited build is the same code", name)
		}
		if name != "constant" && a.String() != c.String() {
			t.Errorf("%s: String shows the edit, so this case does not cover what String omits", name)
		}
	}
}
