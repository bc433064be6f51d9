// Package baseline implements the comparison estimators of §4:
//
//   - SDAccel: the vendor HLS cycle estimate, reproduced with the three
//     error sources the paper identifies (§4.2): (1) underestimated
//     memory access latency (a fixed optimistic per-access cost instead
//     of the eight-pattern model), (2) conservative estimation of designs
//     with complex control dependency (all branches serialize), and
//     (3) ignorance of the work-group scheduling overhead of multiple
//     CUs. It also fails to return an estimate for ~40 % of design
//     points (complex parallelism/memory configurations), as observed in
//     the paper's experiments.
//
//   - Coarse: the coarse-grained model of Wang et al. [16] used by the
//     heuristic search comparison — it additionally ignores pipelining
//     (treats II as 1) and memory patterns entirely.
package baseline

import (
	"errors"
	"math"

	"repro/internal/device"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/sched"
)

// ErrUnsupported marks design points the vendor estimator cannot handle.
var ErrUnsupported = errors.New("baseline: estimation not available for this design")

// SDAccel produces the HLS-style cycle estimate for a design point, or
// ErrUnsupported for configurations the tool fails on.
func SDAccel(a *model.Analysis, d model.Design) (float64, error) {
	if unsupported(a, d) {
		return 0, ErrUnsupported
	}
	scfg := &sched.Config{Table: a.Table, Res: sdaccelResources(a.Platform)}

	// Error source (2): conservative control handling — every block
	// contributes its full latency in sequence; exclusive branches are
	// summed rather than maxed, and unknown trip counts are guessed
	// high (the tool has no dynamic profile).
	freq := conservativeFreq(a)
	depth := 0.0
	for _, b := range a.F.Blocks {
		depth += freq[b] * float64(sched.ScheduleBlock(b, scfg))
	}
	if depth < 1 {
		depth = 1
	}

	ii := depth
	if d.WIPipeline {
		mii, _, _ := sched.MII(a.F, freq, scfg)
		ii = float64(mii)
	}

	nwg := float64(d.WGSize)
	waves := math.Ceil((nwg - float64(d.PE)) / float64(d.PE))
	if waves < 0 {
		waves = 0
	}
	lcu := ii*waves + depth

	// Error source (3): no work-group scheduling overhead, CUs assumed
	// perfectly parallel.
	batches := math.Ceil(float64(a.NWI) / (nwg * float64(d.CU)))

	// Error source (1): fixed optimistic memory latency — every access
	// is priced as a row-buffer read hit, ignoring patterns, coalescing
	// state and channel contention.
	hit := float64(a.Platform.DRAM.TCL + a.Platform.DRAM.TBus)
	memPerWI := a.Mem.BurstsPerWI * hit * 0.5

	switch model.EffectiveMode(a.F, d) {
	case model.ModeBarrier:
		return memPerWI*float64(a.NWI)/float64(d.CU) + lcu*batches, nil
	default:
		// Assumes memory fully hidden behind compute.
		return lcu * batches, nil
	}
}

// unsupported reproduces the ~42 % failure rate of §4.2: the tool rejects
// or times out on complex parallelism and memory configurations.
func unsupported(a *model.Analysis, d model.Design) bool {
	// Extreme PE replication: port binding fails.
	if d.PE >= 16 {
		return true
	}
	// High PE replication with local memory: banking fails.
	if d.PE >= 8 && len(a.F.LocalAllocas()) > 0 {
		return true
	}
	// Many CUs in pipeline mode: interconnect generation unsupported.
	if d.CU >= 4 && model.EffectiveMode(a.F, d) == model.ModePipeline {
		return true
	}
	// Replicated pipelines over data-dependent inner loops: schedule
	// exploration does not converge within the time limit.
	if d.WIPipeline && d.PE >= 8 {
		for _, l := range a.F.Loops {
			if l.StaticTrip < 0 {
				return true
			}
		}
	}
	// Atomics with replication: unsupported memory system.
	if d.PE > 1 || d.CU > 2 {
		for _, b := range a.F.Blocks {
			for _, in := range b.Instrs {
				if device.Classify(in) == device.ClassAtomic {
					return true
				}
			}
		}
	}
	return false
}

// conservativeFreq builds block frequencies without dynamic profiling:
// static trips where known, a fixed pessimistic guess otherwise, and a
// crude static 1/2-per-branch probability in place of measured ones.
func conservativeFreq(a *model.Analysis) map[*ir.Block]float64 {
	// EnsureLoops (not BuildCFG) keeps this read-only on the shared
	// function: concurrent design-point workers all estimate against the
	// same Analysis.
	a.F.EnsureLoops()
	freq := sched.EffectiveFreq(a.F, 12)
	idom := a.F.Dominators()
	for _, b := range a.F.Blocks {
		depth := 0
		for cur := idom[b]; cur != nil && cur != idom[cur]; cur = idom[cur] {
			if t := cur.Term(); t != nil && t.Op == ir.OpCondBr && a.F.LoopOf(cur) == nil {
				depth++
			}
			if depth >= 3 {
				break
			}
		}
		freq[b] *= 1 / float64(int(1)<<depth)
	}
	return freq
}

func sdaccelResources(p *device.Platform) sched.Resources {
	return sched.Resources{
		LocalRead:  p.LocalReadPorts(),
		LocalWrite: p.LocalWritePorts(),
		Global:     2,
		DSPSlots:   8,
	}
}
