// Package rtlsim is the cycle-level ground-truth simulator standing in
// for the paper's "System Run" (the kernel synthesized by SDAccel and
// measured on the Virtex-7 board, §4.1). It simulates the OpenCL-on-FPGA
// microarchitecture mechanistically:
//
//   - every IR operation gets the concrete implementation variant the
//     synthesis tool would have picked (not the profiled average the
//     analytical model sees);
//   - work-groups dispatch round-robin onto compute units with a jittered
//     scheduling overhead;
//   - every coalesced global-memory burst is replayed through the DRAM
//     bank/row-buffer timing simulator at its actual issue time, so bank
//     conflicts and pattern sequences are exact rather than averaged.
//
// These are precisely the effects §4.2 lists as FlexCL's error sources,
// so model-vs-simulator errors arise for the same reasons as on silicon.
package rtlsim

import (
	"context"
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/dram"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Result is one simulated execution.
type Result struct {
	Design model.Design
	Mode   model.CommMode
	Cycles float64
	// Breakdown.
	IISim     int
	DepthSim  int
	NPE       int
	MemBursts int64
	Groups    int64
}

// Options tunes the simulation.
type Options struct {
	// MaxGroups caps the number of simulated work-groups; the remainder
	// is extrapolated from the simulated mean (0 = simulate all). The
	// sample is spread evenly across the launch rather than taken from
	// its start, so kernels whose leading groups are atypical (boundary
	// tiles, early-exit rows) extrapolate without bias.
	MaxGroups int
	// Ctx, when non-nil, cancels the simulation between work-groups
	// (long launches abort with the context's error).
	Ctx context.Context
}

// Simulate runs the kernel at one design point and returns its measured
// cycle count. The interp buffers are mutated (the run is functional).
// The function itself is only read, so one compiled kernel may be shared
// by concurrent simulations (each with its own Config).
func Simulate(f *ir.Func, p *device.Platform, cfg *interp.Config, d model.Design, opts Options) (*Result, error) {
	f.EnsureLoops()
	nd := cfg.Range.Normalize()
	wgSize := nd.WorkGroupSize()
	totalGroups := nd.TotalGroups()
	simGroups := totalGroups
	if opts.MaxGroups > 0 && int64(opts.MaxGroups) < simGroups {
		simGroups = int64(opts.MaxGroups)
	}

	// Functional execution with full tracing of the simulated groups,
	// sampled across the whole launch (a prefix sample biases the
	// extrapolation whenever work varies with the group index).
	prof, err := interp.ProfileKernelSpread(f, cfg, int(simGroups))
	if err != nil {
		return nil, fmt.Errorf("rtlsim: %s: %w", f.Name, err)
	}

	mode := model.EffectiveMode(f, d)
	r := &Result{Design: d, Mode: mode, Groups: totalGroups}

	// Concrete per-op implementation variants: the hash mixes kernel,
	// design point and instruction identity, so different designs of the
	// same kernel synthesize slightly differently (as on the real tool).
	seed := device.HashString(f.Name) ^ device.HashString(d.String())
	variant := func(in *ir.Instr) int {
		cl := device.Classify(in)
		return p.VariantFor(cl, device.Mix64(seed^uint64(in.ID)*0x9e37))
	}
	scfg := &sched.Config{
		Table:   device.Profile(p, 256),
		Variant: variant,
		Res:     model.PEResources(p, d),
	}

	// Hardware schedule with exact latencies.
	g := sched.Build(f, prof.BlockCounts, scfg)
	var iiSim, depthSim int
	if d.WIPipeline {
		sm := g.SMS()
		iiSim, depthSim = sm.II, sm.Depth
	} else {
		depthSim = g.SerialDepth()
		iiSim = depthSim
	}
	r.IISim, r.DepthSim = iiSim, depthSim

	// Effective PE parallelism under shared CU resources.
	nPE := model.EffectivePE(p, d, scfg.Res, sched.Totals(f, prof.BlockCounts, scfg))
	r.NPE = nPE

	// Coalesce each work-group's accesses in pipeline issue order.
	layout := trace.NewLayout(f, trace.BufferCounts(f, cfg), p.DRAM)
	unit := p.MemAccessUnitBits / 8
	wgBursts := trace.WGBursts(prof.Traces, wgSize, layout, unit)
	for _, bs := range wgBursts {
		r.MemBursts += int64(len(bs))
	}

	mem := dram.NewSim(p.DRAM)
	cuFree := make([]int64, max(1, d.CU))
	var lastDone int64

	// Work-groups are dispatched by a serial scheduler that needs
	// ΔL_schedule (±jitter) per group — the mechanism behind the
	// effective-CU-parallelism bound of Eq. 8.
	var dispatch int64
	for wg := int64(0); wg < simGroups && wg < int64(len(wgBursts)); wg++ {
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			return nil, fmt.Errorf("rtlsim: %s: %w", f.Name, opts.Ctx.Err())
		}
		cu := int(wg % int64(d.CU))
		jit := int64(device.Mix64(seed^uint64(wg))%17) - 8
		dispatch += int64(p.WGSchedOverhead) + jit
		start := dispatch
		if cuFree[cu] > start {
			start = cuFree[cu]
		}

		nwi := wgSize
		if (wg+1)*wgSize > int64(len(prof.Traces)) {
			nwi = int64(len(prof.Traces)) - wg*wgSize
		}
		var done int64
		switch mode {
		case model.ModeBarrier:
			done = simulateBarrierWG(mem, wgBursts[wg], nwi, start, iiSim, depthSim, nPE)
		default:
			done = simulatePipelineWG(mem, wgBursts[wg], nwi, start, iiSim, depthSim, nPE)
		}
		cuFree[cu] = done
		if done > lastDone {
			lastDone = done
		}
	}

	cycles := float64(lastDone)
	if simGroups < totalGroups && simGroups > 0 {
		// Extrapolate steady-state throughput to the full launch.
		cycles = cycles * float64(totalGroups) / float64(simGroups)
	}
	r.Cycles = cycles
	return r, nil
}

// simulateBarrierWG models a barrier-mode work-group: the group's global
// transfers drain through the in-order DRAM channel, separated from
// computation by the barrier, then the compute pipeline runs.
func simulateBarrierWG(mem *dram.Sim, bursts []trace.Burst, nwi, start int64, ii, depth, nPE int) int64 {
	now := start
	for _, b := range bursts {
		done, _ := mem.AccessAt(now, b.Addr, b.Write)
		now = done
	}
	return now + int64(ii)*computeWaves(nwi, nPE) + int64(depth)
}

// simulatePipelineWG models a pipeline-mode work-group: work-items enter
// the PE array every II cycles (nPE at a time) while the group's burst
// stream drains through the memory channel concurrently; the group
// completes when both the compute pipeline and the transfers finish.
func simulatePipelineWG(mem *dram.Sim, bursts []trace.Burst, nwi, start int64, ii, depth, nPE int) int64 {
	now := start
	for _, b := range bursts {
		done, _ := mem.AccessAt(now, b.Addr, b.Write)
		now = done
	}
	memEnd := now
	computeEnd := start + int64(ii)*computeWaves(nwi, nPE) + int64(depth)
	if memEnd > computeEnd {
		return memEnd
	}
	return computeEnd
}

// computeWaves returns ⌈(nwi − nPE)/nPE⌉ clamped at 0 (Eq. 5's wave
// count).
func computeWaves(nwi int64, nPE int) int64 {
	p := int64(max(1, nPE))
	w := (nwi - p + p - 1) / p
	if w < 0 {
		return 0
	}
	return w
}

// Seconds converts simulated cycles to wall time on the platform.
func Seconds(cycles float64, p *device.Platform) float64 {
	return cycles / (p.ClockMHz * 1e6)
}

// ErrorVs returns the relative error |est−actual|/actual in percent.
func ErrorVs(est, actual float64) float64 {
	if actual == 0 {
		return 0
	}
	return math.Abs(est-actual) / actual * 100
}
