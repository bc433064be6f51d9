package model

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/cdfg"
	"repro/internal/device"
	"repro/internal/dram"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Analysis bundles everything FlexCL extracts from one kernel at one
// work-group size: the profiled trip counts, the classified global-memory
// trace, and the profiled device latencies. It is independent of the
// remaining design parameters, so one Analysis serves many design points.
//
// An Analysis memoizes the design-independent part of a prediction. The
// PE schedule (SMS result and serial depth) depends on the design only
// through the sched.Resources that peResources derives from it, so it is
// kept in a table keyed by those resources, and the operation totals,
// which depend on no design parameter, are computed once. The memo is
// unexported and never persisted: a zero-value or literal Analysis
// starts with it empty and fills it lazily, so the first prediction per
// resource configuration schedules and the rest are Eq. 5–12
// arithmetic. Predict, PredictWith and DesignBounds are safe for
// concurrent use; the exported fields must not change after the first
// of them is called.
type Analysis struct {
	F        *ir.Func
	Platform *device.Platform
	Table    *device.LatencyTable
	PatLat   dram.PatternLatencies

	// Freq is average block executions per work-item.
	Freq map[*ir.Block]float64
	// Mem is the classified coalesced global-memory behaviour per WI.
	Mem *trace.Classified
	// NWI is N_wi^kernel, the total work-items of the launch.
	NWI int64
	// WGSize is the work-group size the profile was taken at.
	WGSize int64
	// Barriers is the barrier crossings per work-item.
	Barriers float64

	memo schedMemo
}

// schedMemo is an Analysis's table of design-independent schedule
// results. The schedule depends on the design only through the PE's
// sched.Resources, which take one or two distinct values over a
// platform's whole PE×CU lattice. Any PE and CU, even outside the
// lattice, vary only DSPSlots, which peResources clamps to 1–16, so the
// table never exceeds 16 entries.
type schedMemo struct {
	mu      sync.Mutex
	entries []*schedEntry // guarded by mu; entries are never removed

	totOnce sync.Once
	tot     sched.FuncTotals
}

// schedEntry is the PE schedule of one resource configuration: the SMS
// result pipelined designs read and the serial depth re-issued PEs read.
// Each is filled by the first prediction that needs it, so a cold
// prediction schedules no more than a per-call one would: a serial one
// builds the CDFG and sums its block lengths, a pipelined one builds the
// CDFG and runs SMS, recording the serial depth on the way.
type schedEntry struct {
	res        sched.Resources
	pipeOnce   sync.Once
	pipe       sched.PipelineResult
	serialOnce sync.Once
	serial     int
}

// entry returns the table entry for res, adding an empty one on the
// first lookup.
func (m *schedMemo) entry(res sched.Resources) *schedEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.entries {
		if e.res == res {
			return e
		}
	}
	e := &schedEntry{res: res}
	m.entries = append(m.entries, e)
	return e
}

// pipelined returns the SMS work-item pipeline schedule (Eq. 1–4) under
// res.
func (a *Analysis) pipelined(res sched.Resources) *sched.PipelineResult {
	e := a.memo.entry(res)
	e.pipeOnce.Do(func() {
		scfg := &sched.Config{Table: a.Table, Res: res}
		g := cdfg.Build(a.F, a.Freq, scfg)
		e.pipe = *sched.SMS(a.F, g.Freq, g.BlockOffsets, scfg)
		e.serialOnce.Do(func() { e.serial = g.SerialDepth() })
	})
	return &e.pipe
}

// serialDepth returns the non-pipelined work-item latency under res.
func (a *Analysis) serialDepth(res sched.Resources) int {
	e := a.memo.entry(res)
	e.serialOnce.Do(func() {
		e.serial = cdfg.Build(a.F, a.Freq, &sched.Config{Table: a.Table, Res: res}).SerialDepth()
	})
	return e.serial
}

// totals returns the frequency-weighted operation totals of Eq. 4 and 6.
// They read only the latency table's DSP costs, never the resources, so
// one computation serves every design.
func (a *Analysis) totals() sched.FuncTotals {
	a.memo.totOnce.Do(func() {
		a.memo.tot = sched.Totals(a.F, a.Freq, &sched.Config{Table: a.Table})
	})
	return a.memo.tot
}

// AnalysisOptions tunes Analyze.
type AnalysisOptions struct {
	// ProfileGroups is how many work-groups the dynamic profiler runs
	// (§3.2: "only a few work-groups are profiled"). Default 8.
	ProfileGroups int
	// DRAMSamples sets the micro-benchmark length for pattern profiling.
	DRAMSamples int
	// OpSamples sets the op-latency profiling sample count.
	OpSamples int
}

// Analyze runs FlexCL's kernel analysis (§3.2) for one kernel and launch
// configuration: dynamic profiling for trip counts and the memory trace,
// plus device micro-benchmark profiling. The interp buffers are copies of
// workload inputs and are mutated. The memory trace is never
// materialized: the profiler hands each profiled work-group's traces to
// a trace.Stream, which coalesces and classifies them as they arrive, so
// the "profile" span covers that classification and "memtrace" the final
// reduction to per-work-item averages.
//
// ctx bounds the analysis: cancellation or an expired deadline is
// honored at each stage boundary (before profiling, before trace
// classification, before device profiling), returning ctx.Err(). Callers
// that share one analysis across requests should analyze under a
// detached context instead (see dse.PrepCache), so one impatient
// request cannot poison the shared fill.
func Analyze(ctx context.Context, f *ir.Func, p *device.Platform, cfg *interp.Config, opts AnalysisOptions) (*Analysis, error) {
	if opts.ProfileGroups <= 0 {
		opts.ProfileGroups = 8
	}
	if opts.DRAMSamples <= 0 {
		opts.DRAMSamples = 4096
	}
	if opts.OpSamples <= 0 {
		opts.OpSamples = 256
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("model: analyzing %s: %w", f.Name, err)
	}
	f.EnsureLoops()
	_, psp := telemetry.Start(ctx, "profile")
	layout := trace.NewLayout(f, trace.BufferCounts(f, cfg), p.DRAM)
	stream := trace.NewStream(layout, p.DRAM, p.MemAccessUnitBits/8)
	prof, err := interp.ProfileStream(f, cfg, opts.ProfileGroups, stream.Group)
	if prof != nil {
		psp.Annotate("source", string(prof.Source))
	}
	psp.Annotate("groups", fmt.Sprint(opts.ProfileGroups))
	psp.End()
	if err != nil {
		return nil, fmt.Errorf("model: profiling %s: %w", f.Name, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("model: analyzing %s: %w", f.Name, err)
	}
	_, msp := telemetry.Start(ctx, "memtrace")
	cls := stream.Classified()
	nd := cfg.Range.Normalize()
	msp.Annotate("bursts_per_wi", fmt.Sprintf("%.3f", cls.BurstsPerWI))
	msp.End()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("model: analyzing %s: %w", f.Name, err)
	}
	_, dsp := telemetry.Start(ctx, "devprofile")
	table := device.Profile(p, opts.OpSamples)
	patLat := dram.ProfilePatterns(p.DRAM, opts.DRAMSamples, device.HashString(p.Name))
	dsp.End()
	return &Analysis{
		F:        f,
		Platform: p,
		Table:    table,
		PatLat:   patLat,
		Freq:     prof.BlockCounts,
		Mem:      cls,
		NWI:      nd.TotalWorkItems(),
		WGSize:   nd.WorkGroupSize(),
		Barriers: prof.Barriers,
	}, nil
}

// Estimate is the model's prediction for one design point, with the full
// breakdown of intermediate quantities for inspection and reporting.
type Estimate struct {
	Design Design
	Mode   CommMode // effective mode

	// PE model (Eq. 1–4).
	IIComp int // II_comp^wi
	Depth  int // D_comp^PE
	RecMII int
	ResMII int

	// Parallelism (Eq. 6, 8).
	NPE int
	NCU int

	// Memory model (Eq. 9).
	LMemWI float64

	// Composite latencies.
	LCompCU     float64 // Eq. 5
	LCompKernel float64 // Eq. 7
	Cycles      float64 // Eq. 10 or 11
	Seconds     float64
}

// Clone returns an independent copy of the estimate. Estimate is a flat
// value type (no interior pointers), so a shallow copy is a deep copy;
// Clone exists so shared caches can hand out copies without aliasing
// their stored entry (see dse.PredCache).
func (e *Estimate) Clone() *Estimate {
	if e == nil {
		return nil
	}
	c := *e
	return &c
}

// peResources derives the scheduler's per-PE issue limits from the
// platform and the design's parallelism: local ports and DSP cores are
// CU-level resources shared by the replicated PEs.
func peResources(p *device.Platform, d Design) sched.Resources {
	dspPerCU := p.DSPTotal / maxInt(1, d.CU)
	// A DSP-backed core costs ≈3–4 slices; each PE can sustain a bounded
	// number of concurrent DSP issues.
	dspSlots := dspPerCU / (4 * maxInt(1, d.PE))
	if dspSlots > 16 {
		dspSlots = 16
	}
	return sched.Resources{
		LocalRead:  maxInt(1, p.LocalReadPorts()),
		LocalWrite: maxInt(1, p.LocalWritePorts()),
		Global:     2,
		DSPSlots:   maxInt(1, dspSlots),
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Ablations disable individual model components for the sensitivity
// studies of DESIGN.md (§5): each switch removes one design choice the
// full model makes.
type Ablations struct {
	// SingleMemLatency replaces the eight-pattern memory model (Eq. 9)
	// with one flat average latency per access.
	SingleMemLatency bool
	// NoCoalescing prices every raw access instead of coalesced bursts.
	NoCoalescing bool
	// NoSchedOverhead drops ΔL_schedule (Eq. 7–8 reduce to perfect CUs).
	NoSchedOverhead bool
	// IIFromMII skips the SMS refinement and uses MII directly.
	IIFromMII bool
}

// Predict evaluates the full analytical model for one design point.
func (a *Analysis) Predict(d Design) *Estimate {
	return a.PredictWith(d, Ablations{})
}

// PredictWith evaluates the model with selected components disabled.
func (a *Analysis) PredictWith(d Design, ab Ablations) *Estimate {
	e := &Estimate{Design: d, Mode: EffectiveMode(a.F, d)}
	res := peResources(a.Platform, d)

	// Computation model: CDFG depth + work-item pipeline schedule.
	if d.WIPipeline {
		r := a.pipelined(res)
		e.IIComp, e.Depth = r.II, r.Depth
		e.RecMII, e.ResMII = r.RecMII, r.ResMII
		if ab.IIFromMII {
			e.IIComp = r.MII
		}
	} else {
		// Without work-item pipelining the PE is re-issued per work-item.
		depth := a.serialDepth(res)
		e.IIComp, e.Depth = depth, depth
	}
	a.evaluate(e, ab, res, a.totals())
	return e
}

// evaluate completes e, whose PE schedule (IIComp, Depth) is set, with
// Eq. 5–12: res is the design's PE resources and tot the operation
// totals.
func (a *Analysis) evaluate(e *Estimate, ab Ablations, res sched.Resources, tot sched.FuncTotals) {
	d := e.Design

	// Eq. 6 — effective PE parallelism: the P replicas share the CU's
	// local-memory ports and DSP budget. (The printed equation's
	// ⌈Port/(N·P)⌉ terms degenerate to 1 for any realistic P; we
	// implement the evident intent Port/N capped by P.)
	e.NPE = d.PE
	if tot.LocalReads >= 1 {
		e.NPE = minInt(e.NPE, maxInt(1, int(float64(res.LocalRead)/tot.LocalReads)))
	}
	if tot.LocalWrites >= 1 {
		e.NPE = minInt(e.NPE, maxInt(1, int(float64(res.LocalWrite)/tot.LocalWrites)))
	}
	if tot.DSPOps >= 1 {
		dspPerCU := a.Platform.DSPTotal / maxInt(1, d.CU)
		cores := float64(dspPerCU) / (tot.DSPOps * 4)
		e.NPE = minInt(e.NPE, maxInt(1, int(cores)))
	}

	// Eq. 5 — compute-unit latency.
	nwg := float64(d.WGSize)
	ii := float64(e.IIComp)
	depth := float64(e.Depth)
	waves := math.Ceil((nwg - float64(e.NPE)) / float64(e.NPE))
	if waves < 0 {
		waves = 0
	}
	e.LCompCU = ii*waves + depth

	// Eq. 8 — effective CU parallelism from scheduling overhead.
	dls := float64(a.Platform.WGSchedOverhead)
	if ab.NoSchedOverhead {
		dls = 0
	}
	e.NCU = d.CU
	if dls > 0 {
		if v := int(math.Ceil(e.LCompCU / dls)); v < e.NCU {
			e.NCU = v
		}
	}
	// No more CUs can be busy than there are work-groups to run.
	if g := int(math.Ceil(float64(a.NWI) / nwg)); g < e.NCU {
		e.NCU = g
	}
	if e.NCU < 1 {
		e.NCU = 1
	}

	// Eq. 7 — kernel computation latency.
	batches := math.Ceil(float64(a.NWI) / (nwg * float64(e.NCU)))
	e.LCompKernel = e.LCompCU*batches + float64(d.CU)*dls

	// Eq. 9 — per-work-item global memory latency.
	e.LMemWI = trace.MemLatencyWI(a.Mem, a.PatLat)
	if ab.SingleMemLatency {
		var flat float64
		for _, v := range a.PatLat {
			flat += v
		}
		flat /= float64(len(a.PatLat))
		e.LMemWI = a.Mem.BurstsPerWI * flat
	}
	if ab.NoCoalescing && a.Mem.BurstsPerWI > 0 {
		e.LMemWI *= a.Mem.RawPerWI / a.Mem.BurstsPerWI
	}

	switch e.Mode {
	case ModeBarrier:
		// Eq. 10 — all global transfers serialize through the single
		// DRAM channel and computation follows per work-group. With one
		// CU this is exactly L_mem^wi·N_wi + L_comp^kernel; with several,
		// a CU's computation overlaps the other CUs' serialized
		// transfers, hiding up to (1−1/N_CU) of the smaller term.
		memT := e.LMemWI * float64(a.NWI)
		overlap := (1 - 1/float64(e.NCU)) * math.Min(e.LCompKernel, memT)
		e.Cycles = memT + e.LCompKernel - overlap
	case ModePipeline:
		// Eq. 11–12 — memory pipelined against compute. The single
		// in-order memory channel is shared by the N_PE pipelines and
		// N_CU units, so the per-wave initiation interval is bounded by
		// the channel occupancy N_PE·N_CU·L_mem^wi; with N_PE = N_CU = 1
		// this is exactly II_wi = max(L_mem^wi, II_comp^wi) of Eq. 12.
		iiWI := math.Max(ii, e.LMemWI*float64(e.NPE)*float64(e.NCU))
		e.Cycles = (iiWI*waves + depth) * batches
		// The in-order channel must still carry every work-item's
		// transfers even when the PE array swallows a whole work-group
		// in one wave (waves = 0): Eq. 12's max() applied at full scale.
		if floor := e.LMemWI * float64(a.NWI); e.Cycles < floor {
			e.Cycles = floor
		}
	}
	// The serial work-group dispatcher bounds throughput from below in
	// either mode (the mechanism behind Eq. 8): no launch can finish
	// faster than ΔL_schedule per work-group.
	groups := math.Ceil(float64(a.NWI) / nwg)
	if floor := dls * groups; e.Cycles < floor {
		e.Cycles = floor
	}
	e.Seconds = e.Cycles / (a.Platform.ClockMHz * 1e6)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
