package sched

import (
	"sort"

	"repro/internal/ir"
)

// smsReference is SMS as it was before its per-candidate state went
// flat: fresh maps for the even load, the reservation table and the
// placements at every candidate II. TestSMSEqualsReference requires SMS
// to return exactly its result.
func smsReference(f *ir.Func, freq map[*ir.Block]float64, offsets map[*ir.Block]int, cfg *Config) *PipelineResult {
	mii, rec, res := MII(f, freq, cfg)
	r := &PipelineResult{MII: mii, RecMII: rec, ResMII: res}
	limits := cfg.Res.Sane()

	type node struct {
		in     *ir.Instr
		est    int // earliest start (block offset + intra-block ASAP)
		lat    int
		weight float64
		kind   resKind
		blk    *ir.Block
		idx    int
	}

	var nodes []*node
	byInstr := map[*ir.Instr]*node{}
	for _, b := range f.Blocks {
		latOf := func(in *ir.Instr) int { return cfg.Latency(in) }
		_, pred := blockDFG(b.Instrs, latOf)
		times := make([]int, len(b.Instrs))
		for i := range b.Instrs {
			for _, e := range pred[i] {
				if t := times[e.to] + e.delay; t > times[i] {
					times[i] = t
				}
			}
		}
		w, ok := freq[b]
		if !ok {
			w = 1
		}
		off := offsets[b]
		for i, in := range b.Instrs {
			if in.Op.IsTerminator() {
				continue
			}
			nd := &node{
				in: in, est: off + times[i], lat: latOf(in),
				weight: w, kind: cfg.resourceOf(in), blk: b, idx: i,
			}
			nodes = append(nodes, nd)
			byInstr[in] = nd
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

	const maxII = 1 << 20
	for ii := mii; ii < maxII; ii++ {
		// evenShare: uniform table load from loop-resident operations.
		even := map[resKind]float64{}
		for _, nd := range nodes {
			if nd.kind != resNone && nd.weight > 1.5 {
				even[nd.kind] += nd.weight / float64(ii)
			}
		}
		// If uniform load alone exceeds a limit, II is infeasible.
		feasible := true
		for k, v := range even {
			if v > float64(limits.limit(k)) {
				feasible = false
				break
			}
		}
		if !feasible {
			continue
		}

		units := map[resKind][]float64{}
		slotUse := func(k resKind, s int) float64 {
			u := units[k]
			if s < len(u) {
				return u[s]
			}
			return 0
		}
		reserve := func(k resKind, s int) {
			u := units[k]
			for len(u) <= s {
				u = append(u, 0)
			}
			u[s]++
			units[k] = u
		}

		place := map[*ir.Instr]int{}
		ok := true
		depth := 0
		for _, nd := range nodes {
			est := nd.est
			// Respect already-placed intra-block predecessors.
			for _, a := range nd.in.Args {
				if def, isInstr := a.(*ir.Instr); isInstr {
					if p, placed := place[def]; placed {
						if pn := byInstr[def]; pn != nil {
							if t := p + pn.lat; t > est {
								est = t
							}
						}
					}
				}
			}
			t := est
			if nd.kind != resNone && nd.weight <= 1.5 {
				found := false
				for dt := 0; dt < ii; dt++ {
					s := (est + dt) % ii
					if slotUse(nd.kind, s)+1+even[nd.kind] <= float64(limits.limit(nd.kind))+1e-9 {
						t = est + dt
						reserve(nd.kind, s)
						found = true
						break
					}
				}
				if !found {
					ok = false
					break
				}
			}
			place[nd.in] = t
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
