package model

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

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
// through the sched.Resources that PEResources derives from it, so it is
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
// lattice, vary only DSPSlots, which PEResources clamps to 1–16, so the
// table never exceeds 16 entries.
//
// Lookups read a published, immutable entry slice without locking; mu
// only serializes adding an entry, which publishes a new slice.
type schedMemo struct {
	entries atomic.Pointer[[]*schedEntry] // entries are never removed
	mu      sync.Mutex

	totOnce sync.Once
	tot     sched.FuncTotals
}

// schedEntry is the PE schedule of one resource configuration: the SMS
// result pipelined designs read and the serial depth re-issued PEs read.
// Each is filled by the first prediction that needs it, so a cold
// prediction schedules no more than a per-call one would: a serial one
// builds the sched.Graph and sums its block lengths, a pipelined one
// builds the graph and runs SMS, recording the serial depth on the way.
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
	if e := m.find(res); e != nil {
		return e
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.find(res); e != nil {
		return e
	}
	var cur []*schedEntry
	if p := m.entries.Load(); p != nil {
		cur = *p
	}
	// A fresh slice: readers may still hold the published one.
	next := append(make([]*schedEntry, 0, len(cur)+1), cur...)
	e := &schedEntry{res: res}
	next = append(next, e)
	m.entries.Store(&next)
	return e
}

// find returns the published entry for res, or nil.
func (m *schedMemo) find(res sched.Resources) *schedEntry {
	if p := m.entries.Load(); p != nil {
		for _, e := range *p {
			if e.res == res {
				return e
			}
		}
	}
	return nil
}

// pipelined returns the SMS work-item pipeline schedule (Eq. 1–4) under
// res.
func (a *Analysis) pipelined(res sched.Resources) *sched.PipelineResult {
	e := a.memo.entry(res)
	e.pipeOnce.Do(func() {
		g := sched.Build(a.F, a.Freq, &sched.Config{Table: a.Table, Res: res})
		e.pipe = *g.SMS()
		e.serialOnce.Do(func() { e.serial = g.SerialDepth() })
	})
	return &e.pipe
}

// serialDepth returns the non-pipelined work-item latency under res.
func (a *Analysis) serialDepth(res sched.Resources) int {
	e := a.memo.entry(res)
	e.serialOnce.Do(func() {
		e.serial = sched.Build(a.F, a.Freq, &sched.Config{Table: a.Table, Res: res}).SerialDepth()
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

// ProfileGroups is how many work-groups the dynamic profiler runs per
// launch (§3.2: "only a few work-groups are profiled").
const ProfileGroups = 8

// The device micro-benchmark lengths: the op-latency profiling sample
// count and the DRAM pattern-profiling length.
const (
	opSamples   = 256
	dramSamples = 4096
)

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
func Analyze(ctx context.Context, f *ir.Func, p *device.Platform, cfg *interp.Config) (*Analysis, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("model: analyzing %s: %w", f.Name, err)
	}
	f.EnsureLoops()
	_, psp := telemetry.Start(ctx, "profile")
	stream := trace.NewStream(trace.NewLayout(f, trace.BufferCounts(f, cfg), p.DRAM), p.DRAM, p.MemAccessUnitBits/8)
	prof, err := interp.ProfileStream(f, cfg, ProfileGroups, stream.Group)
	if prof != nil {
		psp.Annotate("source", string(prof.Source))
	}
	psp.Annotate("groups", fmt.Sprint(ProfileGroups))
	psp.End()
	if err != nil {
		return nil, fmt.Errorf("model: profiling %s: %w", f.Name, err)
	}
	ans, err := finish(ctx, f, p, []interp.NDRange{cfg.Range.Normalize()}, []*interp.Profile{prof}, []*trace.Stream{stream})
	if err != nil {
		return nil, err
	}
	return ans[0], nil
}

// AnalyzeSweep is Analyze at several work-group sizes of one launch,
// profiled by one shared run (interp.ProfileSweep). cfg binds the launch
// and locals lists the work-group geometries; the result holds one
// Analysis per entry of locals, each bitwise the one Analyze gives at
// that geometry, all sharing f and one latency table. workers splits
// each profiled work-group's work-items over goroutines; the result is
// the same at any count. The static run never writes cfg's buffers.
//
// An error wrapping interp.ErrNotShareable means the launches cannot
// share a profile; any other profiling error is a fault of the shared
// run, whose work-items are the largest launch's profiled ones. Either
// way, Analyze each geometry on its own for the reference result or
// error. The "profile" span carries shared=true and wg_sizes.
func AnalyzeSweep(ctx context.Context, f *ir.Func, p *device.Platform, cfg *interp.Config, locals [][3]int64, workers int) ([]*Analysis, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("model: analyzing %s: %w", f.Name, err)
	}
	f.EnsureLoops()
	_, psp := telemetry.Start(ctx, "profile")
	psp.Annotate("shared", "true")
	psp.Annotate("wg_sizes", fmt.Sprint(len(locals)))
	psp.Annotate("groups", fmt.Sprint(ProfileGroups))
	layout := trace.NewLayout(f, trace.BufferCounts(f, cfg), p.DRAM)
	nds := make([]interp.NDRange, len(locals))
	streams := make([]*trace.Stream, len(locals))
	sinks := make([]interp.GroupSink, len(locals))
	for i, local := range locals {
		nds[i] = interp.NDRange{Global: cfg.Range.Global, Local: local}.Normalize()
		streams[i] = trace.NewStream(layout, p.DRAM, p.MemAccessUnitBits/8)
		sinks[i] = streams[i].Group
	}
	profs, err := interp.ProfileSweep(f, cfg, locals, ProfileGroups, workers, sinks)
	if err == nil {
		psp.Annotate("source", string(interp.SourceStatic))
	}
	psp.End()
	if err != nil {
		return nil, fmt.Errorf("model: profiling %s: %w", f.Name, err)
	}
	return finish(ctx, f, p, nds, profs, streams)
}

// finish completes Analyze and AnalyzeSweep once profiling is done: it
// reduces each launch's stream to per-work-item averages ("memtrace"),
// profiles the device once ("devprofile") and assembles one Analysis
// per launch geometry nds[i].
func finish(ctx context.Context, f *ir.Func, p *device.Platform, nds []interp.NDRange, profs []*interp.Profile, streams []*trace.Stream) ([]*Analysis, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("model: analyzing %s: %w", f.Name, err)
	}
	_, msp := telemetry.Start(ctx, "memtrace")
	cls := make([]*trace.Classified, len(streams))
	bursts := make([]string, len(streams))
	for i, s := range streams {
		cls[i] = s.Classified()
		bursts[i] = fmt.Sprintf("%.3f", cls[i].BurstsPerWI)
	}
	msp.Annotate("bursts_per_wi", strings.Join(bursts, " "))
	msp.End()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("model: analyzing %s: %w", f.Name, err)
	}
	_, dsp := telemetry.Start(ctx, "devprofile")
	table := device.Profile(p, opSamples)
	patLat := dram.ProfilePatterns(p.DRAM, dramSamples, device.HashString(p.Name))
	dsp.End()
	out := make([]*Analysis, len(nds))
	for i, nd := range nds {
		out[i] = &Analysis{
			F:        f,
			Platform: p,
			Table:    table,
			PatLat:   patLat,
			Freq:     profs[i].BlockCounts,
			Mem:      cls[i],
			NWI:      nd.TotalWorkItems(),
			WGSize:   nd.WorkGroupSize(),
			Barriers: profs[i].Barriers,
		}
	}
	return out, nil
}

// Diff compares the profiled inputs of two analyses bitwise — Mem, Freq
// by block position, Barriers, NWI and WGSize — and describes the first
// difference, or returns "" when they are identical. Blocks match by
// position, so analyses of separately compiled copies of one kernel
// compare equal; the platform tables are not compared.
func (a *Analysis) Diff(b *Analysis) string {
	if d := a.Mem.Diff(b.Mem); d != "" {
		return "Mem: " + d
	}
	if len(a.F.Blocks) != len(b.F.Blocks) || len(a.Freq) != len(b.Freq) {
		return fmt.Sprintf("Freq over %d of %d blocks vs %d of %d",
			len(a.Freq), len(a.F.Blocks), len(b.Freq), len(b.F.Blocks))
	}
	for i, blk := range a.F.Blocks {
		x, xok := a.Freq[blk]
		y, yok := b.Freq[b.F.Blocks[i]]
		if xok != yok || math.Float64bits(x) != math.Float64bits(y) {
			return fmt.Sprintf("Freq[%s] %v (present %v) vs %v (present %v)", blk.Label(), x, xok, y, yok)
		}
	}
	if math.Float64bits(a.Barriers) != math.Float64bits(b.Barriers) {
		return fmt.Sprintf("Barriers %v vs %v", a.Barriers, b.Barriers)
	}
	if a.NWI != b.NWI || a.WGSize != b.WGSize {
		return fmt.Sprintf("NWI/WGSize %d/%d vs %d/%d", a.NWI, a.WGSize, b.NWI, b.WGSize)
	}
	return ""
}

// Estimate is the model's prediction for one design point, with the full
// breakdown of intermediate quantities for inspection and reporting. It
// is a flat value (no interior pointers), so a copy is independent:
// dse.PredCache stores and returns estimates by value.
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

// PEResources derives the scheduler's per-PE issue limits from the
// platform and the design's parallelism: local ports and DSP cores are
// CU-level resources shared by the replicated PEs. The simulator reads
// the same limits: the hardware is the same, only latencies differ.
func PEResources(p *device.Platform, d Design) sched.Resources {
	dspPerCU := p.DSPTotal / max(1, d.CU)
	// A DSP-backed core costs ≈3–4 slices; each PE can sustain a bounded
	// number of concurrent DSP issues.
	dspSlots := min(dspPerCU/(4*max(1, d.PE)), 16)
	return sched.Resources{
		LocalRead:  max(1, p.LocalReadPorts()),
		LocalWrite: max(1, p.LocalWritePorts()),
		Global:     2,
		DSPSlots:   max(1, dspSlots),
	}
}

// EffectivePE is Eq. 6, the effective PE parallelism: the design's P
// replicas share the CU's local-memory ports res and its DSP budget, so
// the operation totals tot cap how many run at once. (The printed
// equation's ⌈Port/(N·P)⌉ terms degenerate to 1 for any realistic P; we
// implement the evident intent Port/N capped by P.)
func EffectivePE(p *device.Platform, d Design, res sched.Resources, tot sched.FuncTotals) int {
	n := d.PE
	if tot.LocalReads >= 1 {
		n = min(n, max(1, int(float64(res.LocalRead)/tot.LocalReads)))
	}
	if tot.LocalWrites >= 1 {
		n = min(n, max(1, int(float64(res.LocalWrite)/tot.LocalWrites)))
	}
	if tot.DSPOps >= 1 {
		dspPerCU := p.DSPTotal / max(1, d.CU)
		cores := float64(dspPerCU) / (tot.DSPOps * 4)
		n = min(n, max(1, int(cores)))
	}
	return n
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
// It and PredictWith are small enough to inline, so a caller that only
// reads fields of the result (an.Predict(d).Cycles) keeps the Estimate
// on its stack: a warm prediction then allocates nothing.
func (a *Analysis) Predict(d Design) *Estimate {
	e := new(Estimate)
	a.predict(e, d, Ablations{})
	return e
}

// PredictWith evaluates the model with selected components disabled.
func (a *Analysis) PredictWith(d Design, ab Ablations) *Estimate {
	e := new(Estimate)
	a.predict(e, d, ab)
	return e
}

// predict fills e with the prediction for d under ab.
func (a *Analysis) predict(e *Estimate, d Design, ab Ablations) {
	*e = Estimate{Design: d, Mode: EffectiveMode(a.F, d)}
	res := PEResources(a.Platform, d)

	// Computation model: work-item pipeline schedule or serial depth.
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
}

// evaluate completes e, whose PE schedule (IIComp, Depth) is set, with
// Eq. 5–12: res is the design's PE resources and tot the operation
// totals.
func (a *Analysis) evaluate(e *Estimate, ab Ablations, res sched.Resources, tot sched.FuncTotals) {
	d := e.Design

	// Eq. 6 — effective PE parallelism.
	e.NPE = EffectivePE(a.Platform, d, res, tot)

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
