package model

import "repro/internal/trace"

// DesignBounds carries the design-independent quantities of one analysis
// plus provable minima of the design-dependent schedule terms, taken over
// an explicit (PE, CU) lattice. Guided search (package dse) combines them
// into sound lower bounds on Predict(d).Cycles for any design whose PE
// and CU values come from that lattice — the soundness contract is
// exactly "minimum over the enumerated resource configurations", so a
// design outside the lattice voids it.
//
// The derivation (docs/MODEL.md "Guided exploration"):
//
//   - LMemWI (Eq. 9) and ΔL_schedule are independent of the design, so
//     LMemWI·N_wi and ΔL_schedule·⌈N_wi/N_wi^wg⌉ floor every estimate at
//     this WG size (Eq. 10's serialized transfers, Eq. 11's channel
//     floor, and the dispatcher floor are all applied by PredictWith).
//   - II and Depth depend on the design only through the PE's resource
//     budget (Eq. 4: the per-PE DSP slots shrink as PE·CU grows), so
//     their minima over every distinct resource configuration of the
//     lattice bound any lattice design's schedule from below.
type DesignBounds struct {
	// WGSize and NWI are the launch geometry the analysis was taken at.
	WGSize int64
	NWI    int64
	// DLS is the platform's ΔL_schedule in cycles.
	DLS float64
	// LMemWI is Eq. 9's per-work-item global-memory latency, computed
	// exactly as PredictWith computes it (bitwise-identical floats, so
	// floor comparisons against estimates are exact).
	LMemWI float64
	// HasBarrier records that every design runs in effective barrier
	// mode (§3.5).
	HasBarrier bool
	// PipeII and PipeDepth are the minima of II_comp^wi and D_comp^PE
	// (Eq. 1–4, SMS schedule) over the lattice's resource configurations.
	PipeII, PipeDepth int
	// SerialDepth is the minimum non-pipelined work-item latency over the
	// same configurations (II = Depth for a re-issued PE).
	SerialDepth int
}

// PEValues enumerates the PE parallelism values of the default design
// space: powers of two up to maxPE.
func PEValues(maxPE int) []int {
	var out []int
	for pe := 1; pe <= maxPE; pe *= 2 {
		out = append(out, pe)
	}
	return out
}

// CUValues enumerates the CU counts of the default design space: powers
// of two up to maxCU.
func CUValues(maxCU int) []int {
	var out []int
	for cu := 1; cu <= maxCU; cu *= 2 {
		out = append(out, cu)
	}
	return out
}

// DesignBounds computes the schedule minima over the (peVals × cuVals)
// lattice. It reads the analysis's schedule table, which holds one entry
// per distinct resource configuration (Eq. 4's per-PE issue limits;
// typically only a couple are distinct after the DSP-slot clamp), so the
// cost is a few schedules per work-group size — far below one full
// design-space sweep — and the predictions that follow are table hits.
func (a *Analysis) DesignBounds(peVals, cuVals []int) DesignBounds {
	b := DesignBounds{
		WGSize:     a.WGSize,
		NWI:        a.NWI,
		DLS:        float64(a.Platform.WGSchedOverhead),
		LMemWI:     trace.MemLatencyWI(a.Mem, a.PatLat),
		HasBarrier: a.F.HasBarrier,
	}
	first := true
	for _, pe := range peVals {
		for _, cu := range cuVals {
			res := PEResources(a.Platform, Design{PE: pe, CU: cu})
			r, sd := a.pipelined(res), a.serialDepth(res)
			if first {
				b.PipeII, b.PipeDepth, b.SerialDepth = r.II, r.Depth, sd
				first = false
				continue
			}
			b.PipeII = min(b.PipeII, r.II)
			b.PipeDepth = min(b.PipeDepth, r.Depth)
			b.SerialDepth = min(b.SerialDepth, sd)
		}
	}
	if first { // empty lattice: degenerate but well-formed bounds
		b.PipeII, b.PipeDepth, b.SerialDepth = 1, 1, 1
	}
	return b
}
