// Package trace converts the dynamic global-memory access traces produced
// by the profiler (package interp) into the quantities FlexCL's memory
// model consumes (§3.4): buffer layout in the DRAM address space, burst
// coalescing of consecutive same-direction accesses (factor f =
// MemoryAccessUnitSize / DataTypeBitWidth), mapping to banks under the
// byte-interleaved policy, and classification of every coalesced access
// into the eight patterns of Table 1.
package trace

import (
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/dram"
	"repro/internal/interp"
	"repro/internal/ir"
)

// Layout assigns every global buffer a base byte address.
type Layout struct {
	Base map[string]int64
	End  int64
}

// NewLayout lays the kernel's global buffers out sequentially, each
// aligned to a row boundary (the allocator behaviour on the board).
// counts gives each buffer's length in scalar elements.
func NewLayout(f *ir.Func, counts map[string]int64, p device.DRAMParams) Layout {
	align := int64(p.RowBytes)
	if align <= 0 {
		align = 1024
	}
	l := Layout{Base: make(map[string]int64)}
	var addr int64
	for _, prm := range f.GlobalParams() {
		l.Base[prm.PName] = addr
		n := counts[prm.PName]
		if n <= 0 {
			n = 1024
		}
		bytes := n * int64(prm.Elem().Base.Size())
		addr += (bytes + align - 1) / align * align
	}
	l.End = addr
	return l
}

// Burst is one coalesced memory transaction.
type Burst struct {
	Addr  int64
	Write bool
}

// coalesce walks one work-group's memory stream and emits its bursts.
// The walk is in pipeline issue order: with work-item pipelining, all
// work-items execute the same instruction in adjacent cycles, so the
// k-th access of every work-item issues before anyone's (k+1)-th.
// Consecutive same-direction accesses to the same buffer that are
// byte-contiguous form one run, emitted as ceil(run/unit) bursts aligned
// down to the unit. This column-major order is what lets SDAccel
// coalesce consecutive work-items' unit-stride accesses into 512-bit
// bursts: the access count divides by f = unit size / data width (§3.4).
// Accesses to a buffer missing from the layout are skipped.
func coalesce(wis [][]interp.Access, l Layout, unitBytes int, emit func(Burst)) {
	unit := int64(unitBytes)
	maxLen := 0
	for _, tr := range wis {
		maxLen = max(maxLen, len(tr))
	}
	var (
		open       bool // a run is in progress
		runParam   *ir.Param
		runWrite   bool
		start, end int64 // the run's byte range
		// The layout base of the last buffer looked up; while a run is
		// open, that is the run's buffer.
		lastParam *ir.Param
		lastBase  int64
		lastOK    bool
	)
	for k := 0; k < maxLen; k++ {
		for _, tr := range wis {
			if k >= len(tr) {
				continue
			}
			a := &tr[k]
			if open && a.Param == runParam && a.Write == runWrite &&
				lastBase+a.Index*int64(a.Bytes) == end {
				end += int64(a.Bytes)
				continue
			}
			if open {
				emitRun(start, end, unit, runWrite, emit)
				open = false
			}
			if a.Param != lastParam {
				lastParam = a.Param
				lastBase, lastOK = l.Base[a.Param.PName]
			}
			if !lastOK {
				continue
			}
			open, runParam, runWrite = true, a.Param, a.Write
			start = lastBase + a.Index*int64(a.Bytes)
			end = start + int64(a.Bytes)
		}
	}
	if open {
		emitRun(start, end, unit, runWrite, emit)
	}
}

// emitRun emits the bursts covering the byte range [start, end), aligned
// down to the unit.
func emitRun(start, end, unit int64, write bool, emit func(Burst)) {
	for p := start / unit * unit; p < end; p += unit {
		emit(Burst{Addr: p, Write: write})
	}
}

// eachGroup splits profiled work-item traces into work-groups of wgSize
// (the last may be short) and calls fn with each group's ordinal and
// traces. A wgSize below 1 counts as 1.
func eachGroup(traces [][]interp.Access, wgSize int64, fn func(ord int, wis [][]interp.Access)) {
	n := int64(len(traces))
	size := max(wgSize, 1)
	for ord, lo := 0, int64(0); lo < n; ord, lo = ord+1, lo+size {
		fn(ord, traces[lo:min(lo+size, n)])
	}
}

// WGBursts groups the profiled work-item traces into work-groups of
// wgSize and coalesces each group in pipeline issue order (see
// coalesce), returning the burst stream of every work-group.
func WGBursts(traces [][]interp.Access, wgSize int64, l Layout, unitBytes int) [][]Burst {
	unitBytes = unitOrDefault(unitBytes)
	var out [][]Burst
	eachGroup(traces, wgSize, func(_ int, wis [][]interp.Access) {
		var bursts []Burst
		coalesce(wis, l, unitBytes, func(b Burst) { bursts = append(bursts, b) })
		out = append(out, bursts)
	})
	return out
}

// unitOrDefault is the burst size in bytes, 64 (a 512-bit memory access
// unit) when unset.
func unitOrDefault(unitBytes int) int {
	if unitBytes <= 0 {
		return 64
	}
	return unitBytes
}

// Classified summarizes a kernel's coalesced global-memory behaviour per
// work-item: the N counts of Table 1 plus aggregate statistics.
type Classified struct {
	// N is the average per-work-item count of each pattern (third column
	// of Table 1, after coalescing).
	N [dram.NumPatterns]float64
	// BurstsPerWI is the total coalesced access count per work-item.
	BurstsPerWI float64
	// RawPerWI is the pre-coalescing access count per work-item.
	RawPerWI float64
	// WorkItems profiled.
	WorkItems int
	// Reads and Writes per work-item after coalescing.
	Reads, Writes float64
}

// CoalescingFactor returns raw/coalesced accesses (≥ 1 for unit-stride).
func (c *Classified) CoalescingFactor() float64 {
	if c.BurstsPerWI == 0 {
		return 1
	}
	return c.RawPerWI / c.BurstsPerWI
}

// Diff compares two classifications field for field and describes the
// first difference, or returns "" when they are identical. Floats
// compare bitwise: the streamed classification promises exact equality
// with the materialized one.
func (c *Classified) Diff(d *Classified) string {
	if c == nil || d == nil {
		if c == d {
			return ""
		}
		return fmt.Sprintf("nil mismatch: %v vs %v", c == nil, d == nil)
	}
	if c.WorkItems != d.WorkItems {
		return fmt.Sprintf("WorkItems %d vs %d", c.WorkItems, d.WorkItems)
	}
	for p := range c.N {
		if math.Float64bits(c.N[p]) != math.Float64bits(d.N[p]) {
			return fmt.Sprintf("N[%v] %v vs %v", dram.Pattern(p), c.N[p], d.N[p])
		}
	}
	for _, f := range []struct {
		name string
		a, b float64
	}{
		{"BurstsPerWI", c.BurstsPerWI, d.BurstsPerWI},
		{"RawPerWI", c.RawPerWI, d.RawPerWI},
		{"Reads", c.Reads, d.Reads},
		{"Writes", c.Writes, d.Writes},
	} {
		if math.Float64bits(f.a) != math.Float64bits(f.b) {
			return fmt.Sprintf("%s %v vs %v", f.name, f.a, f.b)
		}
	}
	return ""
}

// Stream classifies a profile's work-groups one at a time, in dispatch
// order, as the profiler finishes them: its Group method is an
// interp.GroupSink, so the traces are never materialized. Each group is
// coalesced in pipeline issue order, and every burst is mapped to a
// bank under the interleaved policy and classified against that bank's
// row-buffer and last-operation state, which carries across groups.
//
// The first quarter of the groups serve as warm-up: their bursts update
// the bank state but are not counted, so the short profiling window of
// §3.2 does not over-represent cold row-buffer misses relative to the
// launch's steady state. The number of groups is known only at the end,
// so Stream keeps integer counts per group and applies the warm-up in
// Classified.
type Stream struct {
	layout Layout
	unit   int
	sim    *dram.Sim // bank/row mapping; timing unused
	banks  []bankState
	groups []groupCounts // the last one is the group being classified
}

type bankState struct {
	hasOpen   bool
	openRow   int64
	prevWrite bool
}

// groupCounts is one work-group's contribution to a Classified.
type groupCounts struct {
	wis, raw, bursts, reads, writes int64
	n                               [dram.NumPatterns]int64
}

// NewStream starts an empty classification over layout l on a DRAM with
// parameters p; unitBytes is the burst size (64 when unset).
func NewStream(l Layout, p device.DRAMParams, unitBytes int) *Stream {
	sim := dram.NewSim(p)
	return &Stream{
		layout: l,
		unit:   unitOrDefault(unitBytes),
		sim:    sim,
		banks:  make([]bankState, sim.P.Banks),
	}
}

// Group classifies work-group ord, whose traces are wis (one per
// work-item). Ordinals arrive in dispatch order from 0; ordinal 0 starts
// the classification over, so a profiler's rerun of a launch replaces
// what an earlier run streamed. wis is not retained.
func (s *Stream) Group(ord int, wis [][]interp.Access) {
	if ord == 0 {
		clear(s.banks)
		s.groups = s.groups[:0]
	}
	g := groupCounts{wis: int64(len(wis))}
	for _, tr := range wis {
		g.raw += int64(len(tr))
	}
	s.groups = append(s.groups, g)
	coalesce(wis, s.layout, s.unit, s.classify)
}

// classify counts one burst of the current group against its bank's
// state and updates that state.
func (s *Stream) classify(b Burst) {
	g := &s.groups[len(s.groups)-1]
	st := &s.banks[s.sim.BankOf(b.Addr)]
	row := s.sim.RowOf(b.Addr)
	hit := st.hasOpen && st.openRow == row
	g.n[patternOf(b.Write, st.prevWrite, hit)]++
	g.bursts++
	if b.Write {
		g.writes++
	} else {
		g.reads++
	}
	st.hasOpen = true
	st.openRow = row
	st.prevWrite = b.Write
}

// Classified returns the per-work-item averages over the groups after
// the warm-up prefix; WorkItems counts every streamed work-item. Every
// count is an integer below 2^53, so each average is bitwise the one a
// float accumulation of the same counts gives.
func (s *Stream) Classified() *Classified {
	c := &Classified{}
	for _, g := range s.groups {
		c.WorkItems += int(g.wis)
	}
	warmup := 0
	if len(s.groups) > 1 {
		warmup = max(len(s.groups)/4, 1)
	}
	var sum groupCounts
	for _, g := range s.groups[warmup:] {
		sum.wis += g.wis
		sum.raw += g.raw
		sum.bursts += g.bursts
		sum.reads += g.reads
		sum.writes += g.writes
		for p, n := range g.n {
			sum.n[p] += n
		}
	}
	if sum.wis == 0 {
		return c
	}
	n := float64(sum.wis)
	for p := range c.N {
		c.N[p] = float64(sum.n[p]) / n
	}
	c.BurstsPerWI = float64(sum.bursts) / n
	c.RawPerWI = float64(sum.raw) / n
	c.Reads = float64(sum.reads) / n
	c.Writes = float64(sum.writes) / n
	return c
}

// ClassifyGrouped classifies materialized work-item traces: it streams
// them in work-groups of wgSize through a Stream (see Stream for the
// coalescing order and the warm-up prefix). N counts are per-work-item
// averages.
func ClassifyGrouped(traces [][]interp.Access, wgSize int64, l Layout, p device.DRAMParams, unitBytes int) *Classified {
	s := NewStream(l, p, unitBytes)
	eachGroup(traces, wgSize, s.Group)
	return s.Classified()
}

// patternOf mirrors the dram package's classification.
func patternOf(write, prevWrite, hit bool) dram.Pattern {
	var p dram.Pattern
	switch {
	case !write && !prevWrite:
		p = dram.RARHit
	case !write && prevWrite:
		p = dram.RAWHit
	case write && !prevWrite:
		p = dram.WARHit
	default:
		p = dram.WAWHit
	}
	if !hit {
		p += 4
	}
	return p
}

// MemLatencyWI evaluates Eq. 9: the per-work-item global-memory latency
// as the pattern-count-weighted sum of profiled pattern latencies.
func MemLatencyWI(c *Classified, lat dram.PatternLatencies) float64 {
	var sum float64
	for p := dram.Pattern(0); p < dram.NumPatterns; p++ {
		sum += c.N[p] * lat.Get(p)
	}
	return sum
}

// BufferCounts extracts buffer element counts from an interp
// configuration, for layout construction.
func BufferCounts(f *ir.Func, cfg *interp.Config) map[string]int64 {
	counts := make(map[string]int64)
	for _, prm := range f.GlobalParams() {
		if b, ok := cfg.Buffers[prm.PName]; ok {
			counts[prm.PName] = int64(b.Len())
		}
	}
	return counts
}
