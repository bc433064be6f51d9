package sched

import (
	"sort"

	"repro/internal/ir"
)

// PipelineResult is the outcome of work-item pipeline scheduling: the
// initiation interval II_comp^wi and the pipeline depth D_comp^PE of
// Eq. 1, together with the MII decomposition.
type PipelineResult struct {
	II     int
	Depth  int
	MII    int
	RecMII int
	ResMII int
}

// SMS runs the Swing-Modulo-Scheduling refinement of §3.3.1: starting from
// MII, it attempts a modulo placement of every operation into a reservation
// table of width II, increasing II until all resource constraints hold.
//
// Each operation's earliest start is its block's offset along the
// critical path plus its ASAP time in the block, both from Build; Freq
// gives each block's average executions per work-item. Operations in
// straight-line code (freq ≈ 1) reserve a specific modulo slot;
// operations inside loops issue on every iteration and therefore load
// the reservation table uniformly.
//
// The state of a candidate II is flat and reused by the next: the even
// load is an array by resource kind, the reservation table one row of
// length II per kind that straight-line operations reserve, and the
// placements a slice by node position. Each node's dependences are the
// positions of its arguments placed before it, found once per call.
func (g *Graph) SMS() *PipelineResult {
	f, cfg := g.Func, g.cfg
	mii, rec, res := miiOf(f, g.Freq, cfg, g.asap)
	r := &PipelineResult{MII: mii, RecMII: rec, ResMII: res}
	limits := cfg.Res.Sane()

	type node struct {
		in     *ir.Instr
		est    int // earliest start (block offset + intra-block ASAP)
		lat    int
		weight float64
		kind   resKind
	}

	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	nodes := make([]node, 0, n)
	for _, b := range f.Blocks {
		w, ok := g.Freq[b]
		if !ok {
			w = 1
		}
		off := g.BlockOffsets[b]
		for _, in := range b.Instrs {
			if in.Op.IsTerminator() {
				continue
			}
			nodes = append(nodes, node{
				in: in, est: off + g.asap[in.ID], lat: cfg.Latency(in),
				weight: w, kind: cfg.resourceOf(in),
			})
		}
	}

	// Sort by earliest start; ties broken by higher resource pressure
	// first (the "swing" priority: critical, contended ops placed first).
	sort.SliceStable(nodes, func(a, b int) bool {
		if nodes[a].est != nodes[b].est {
			return nodes[a].est < nodes[b].est
		}
		if (nodes[a].kind != resNone) != (nodes[b].kind != resNone) {
			return nodes[a].kind != resNone
		}
		return nodes[a].lat > nodes[b].lat
	})

	// preds[first[i]:first[i+1]] are the positions of node i's arguments
	// that are nodes before it: the placements a candidate has made when
	// it reaches node i, each argument as often as it appears.
	at := make([]int32, f.InstrIDs())
	for i := range at {
		at[i] = -1
	}
	for i := range nodes {
		at[nodes[i].in.ID] = int32(i)
	}
	first := make([]int32, len(nodes)+1)
	var preds []int32
	var resident []int32 // loop-resident nodes with a resource, in order
	var reserved [numResKinds]bool
	for i := range nodes {
		nd := &nodes[i]
		for _, a := range nd.in.Args {
			if def, isInstr := a.(*ir.Instr); isInstr {
				if p := at[def.ID]; p >= 0 && int(p) < i {
					preds = append(preds, p)
				}
			}
		}
		first[i+1] = int32(len(preds))
		switch {
		case nd.kind == resNone:
		case nd.weight > 1.5:
			resident = append(resident, int32(i))
		default:
			reserved[nd.kind] = true
		}
	}
	var limit [numResKinds]float64
	for k := range limit {
		limit[k] = float64(limits.limit(resKind(k)))
	}

	var units [numResKinds][]float64
	place := make([]int, len(nodes))
	const maxII = 1 << 20
	for ii := mii; ii < maxII; ii++ {
		// evenShare: uniform table load from loop-resident operations,
		// summed term by term in node order. A sum in another order, or
		// of the weights divided once, could round differently and move
		// a comparison below.
		var even [numResKinds]float64
		for _, i := range resident {
			even[nodes[i].kind] += nodes[i].weight / float64(ii)
		}
		// If uniform load alone exceeds a limit, II is infeasible.
		feasible := true
		for k, v := range even {
			if v > limit[k] {
				feasible = false
				break
			}
		}
		if !feasible {
			continue
		}

		for k, ok := range reserved {
			if !ok {
				continue
			}
			if u := units[k]; cap(u) >= ii {
				units[k] = u[:ii]
				clear(units[k])
			} else {
				units[k] = make([]float64, ii, max(ii, 2*cap(u)))
			}
		}

		ok := true
		depth := 0
		for i := range nodes {
			nd := &nodes[i]
			est := nd.est
			// Respect already-placed intra-block predecessors.
			for _, p := range preds[first[i]:first[i+1]] {
				if t := place[p] + nodes[p].lat; t > est {
					est = t
				}
			}
			t := est
			if nd.kind != resNone && nd.weight <= 1.5 {
				u := units[nd.kind]
				found := false
				for dt := 0; dt < ii; dt++ {
					s := (est + dt) % ii
					if u[s]+1+even[nd.kind] <= limit[nd.kind]+1e-9 {
						t = est + dt
						u[s]++
						found = true
						break
					}
				}
				if !found {
					ok = false
					break
				}
			}
			place[i] = t
			if end := t + nd.lat; end > depth {
				depth = end
			}
		}
		if ok {
			r.II = ii
			r.Depth = depth
			if r.Depth < 1 {
				r.Depth = 1
			}
			return r
		}
	}
	// Degenerate fallback: fully serial.
	r.II = mii
	r.Depth = mii
	return r
}
