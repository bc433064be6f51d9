package sched

import (
	"math"

	"repro/internal/ir"
)

// Affine is an index expression linear in the work-item id:
// index = Coef·wi + Const, where wi is the dimension-0 global or local id.
type Affine struct {
	Coef  int64
	Const int64
	OK    bool
}

// forwardMap maps single-store private scalar allocas to the value stored
// into them, enabling index analysis across the alloca/load indirection
// that irgen produces for `int i = get_global_id(0);`.
func forwardMap(f *ir.Func) map[*ir.Alloca]ir.Value {
	stores := map[*ir.Alloca][]*ir.Instr{}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpStore {
				continue
			}
			if a, ok := in.Mem.(*ir.Alloca); ok && !a.IsArray() {
				stores[a] = append(stores[a], in)
			}
		}
	}
	fwd := map[*ir.Alloca]ir.Value{}
	for a, ss := range stores {
		if len(ss) == 1 {
			fwd[a] = ss[0].Args[1]
		}
	}
	return fwd
}

// analyzeAffine resolves a value to an affine function of the work-item
// id, following single-store alloca forwarding and casts.
func analyzeAffine(v ir.Value, fwd map[*ir.Alloca]ir.Value, depth int) Affine {
	if depth > 64 {
		return Affine{}
	}
	switch x := v.(type) {
	case *ir.Const:
		if x.T.Base.IsFloat() {
			return Affine{}
		}
		return Affine{Const: x.I, OK: true}
	case *ir.Instr:
		switch x.Op {
		case ir.OpWorkItem:
			switch x.Fn {
			case "get_global_id", "get_local_id":
				if x.Dim == 0 {
					return Affine{Coef: 1, OK: true}
				}
			}
			return Affine{}
		case ir.OpCast:
			if !typeIsIdx(x.T) {
				return Affine{}
			}
			return analyzeAffine(x.Args[0], fwd, depth+1)
		case ir.OpLoad:
			if a, ok := x.Mem.(*ir.Alloca); ok {
				if src, ok2 := fwd[a]; ok2 {
					return analyzeAffine(src, fwd, depth+1)
				}
			}
			return Affine{}
		case ir.OpAdd, ir.OpSub:
			l := analyzeAffine(x.Args[0], fwd, depth+1)
			r := analyzeAffine(x.Args[1], fwd, depth+1)
			if !l.OK || !r.OK {
				return Affine{}
			}
			if x.Op == ir.OpAdd {
				return Affine{Coef: l.Coef + r.Coef, Const: l.Const + r.Const, OK: true}
			}
			return Affine{Coef: l.Coef - r.Coef, Const: l.Const - r.Const, OK: true}
		case ir.OpMul:
			l := analyzeAffine(x.Args[0], fwd, depth+1)
			r := analyzeAffine(x.Args[1], fwd, depth+1)
			if !l.OK || !r.OK {
				return Affine{}
			}
			switch {
			case l.Coef == 0:
				return Affine{Coef: l.Const * r.Coef, Const: l.Const * r.Const, OK: true}
			case r.Coef == 0:
				return Affine{Coef: r.Const * l.Coef, Const: r.Const * l.Const, OK: true}
			default:
				return Affine{} // quadratic in wi
			}
		case ir.OpShl:
			l := analyzeAffine(x.Args[0], fwd, depth+1)
			r := analyzeAffine(x.Args[1], fwd, depth+1)
			if !l.OK || !r.OK || r.Coef != 0 || r.Const < 0 || r.Const > 32 {
				return Affine{}
			}
			m := int64(1) << uint(r.Const)
			return Affine{Coef: l.Coef * m, Const: l.Const * m, OK: true}
		}
	}
	return Affine{}
}

// depPair is an inter-work-item dependence: work-item wi reads data that
// work-item wi−Distance wrote.
type depPair struct {
	Load     *ir.Instr
	Store    *ir.Instr
	Distance int64
}

// interWIDeps finds store→load dependences across work-items through
// local or global memory via affine index matching. A store at Coef·wi+cs
// feeds a load at Coef·wi+cl when (cs−cl) is a positive multiple of Coef.
func interWIDeps(f *ir.Func) []depPair {
	fwd := forwardMap(f)
	type memop struct {
		in *ir.Instr
		af Affine
	}
	loads := map[ir.Storage][]memop{}
	stores := map[ir.Storage][]memop{}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpLoad && in.Op != ir.OpStore {
				continue
			}
			if in.Mem == nil || len(in.Args) == 0 {
				continue
			}
			if a, ok := in.Mem.(*ir.Alloca); ok && !a.IsArray() {
				continue // scalar privates carry no cross-WI data
			}
			af := analyzeAffine(in.Args[0], fwd, 0)
			if !af.OK || af.Coef == 0 {
				continue
			}
			if in.Op == ir.OpLoad {
				loads[in.Mem] = append(loads[in.Mem], memop{in, af})
			} else {
				stores[in.Mem] = append(stores[in.Mem], memop{in, af})
			}
		}
	}
	var out []depPair
	for mem, ss := range stores {
		for _, s := range ss {
			for _, l := range loads[mem] {
				if l.af.Coef != s.af.Coef {
					continue
				}
				diff := s.af.Const - l.af.Const
				if diff == 0 || diff%s.af.Coef != 0 {
					continue
				}
				d := diff / s.af.Coef
				if d > 0 {
					out = append(out, depPair{Load: l.in, Store: s.in, Distance: d})
				}
			}
		}
	}
	return out
}

// RecMII computes the recurrence-constrained MII from inter-work-item
// dependences: for each store→load pair with work-item distance d and
// dependence-chain latency L, RecMII ≥ ceil(L/d) (Eq. 2 and [22, 23]).
func RecMII(f *ir.Func, cfg *Config) int {
	return recMII(f, cfg, nil)
}

// recMII is RecMII over the per-block ASAP times asap (by ir.Instr.ID)
// of a Graph; a nil asap is derived here, only if a dependence needs it.
func recMII(f *ir.Func, cfg *Config, asap []int) int {
	deps := interWIDeps(f)
	if len(deps) == 0 {
		return 1
	}
	if asap == nil {
		asap = make([]int, f.InstrIDs())
		var s blockScratch
		for _, b := range f.Blocks {
			_, pred := s.dfg(b.Instrs, cfg.Latency)
			asapTimes(b.Instrs, pred, asap)
		}
	}
	mii := 1
	for _, d := range deps {
		var chain int
		if d.Load.Blk == d.Store.Blk {
			chain = asap[d.Store.ID] + cfg.Latency(d.Store) - asap[d.Load.ID]
		} else {
			// Cross-block recurrence: approximate the chain by the two
			// endpoint latencies plus one cycle of control transfer.
			chain = cfg.Latency(d.Load) + cfg.Latency(d.Store) + 1
		}
		if chain < 1 {
			chain = 1
		}
		if v := int(math.Ceil(float64(chain) / float64(d.Distance))); v > mii {
			mii = v
		}
	}
	return mii
}

// MII is Eq. 2: the lower bound on the work-item initiation interval.
func MII(f *ir.Func, freq map[*ir.Block]float64, cfg *Config) (mii, rec, res int) {
	return miiOf(f, freq, cfg, nil)
}

// miiOf is MII over the ASAP times asap, derived when nil as recMII
// does.
func miiOf(f *ir.Func, freq map[*ir.Block]float64, cfg *Config, asap []int) (mii, rec, res int) {
	rec = recMII(f, cfg, asap)
	res = ResMII(Totals(f, freq, cfg), cfg.Res)
	return max(rec, res), rec, res
}
