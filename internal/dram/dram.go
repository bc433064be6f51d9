// Package dram models the off-chip global memory of §3.4: a multi-bank
// DRAM with per-bank row buffers and burst-interleaved data mapping.
// Every access is classified into one of the eight patterns of Table 1
// (read/write × after-read/after-write × row-buffer hit/miss), each with
// its own latency. ProfilePatterns reproduces the paper's micro-benchmark
// profiling of the per-pattern average latencies ΔT.
package dram

import (
	"fmt"
	"sync"

	"repro/internal/device"
)

// Pattern is one of the eight global-memory access patterns of Table 1.
type Pattern int

// The Table 1 patterns. Naming: <op> After <previous-op>, Hit/Miss of the
// bank's row buffer.
const (
	RARHit Pattern = iota
	RAWHit
	WARHit
	WAWHit
	RARMiss
	RAWMiss
	WARMiss
	WAWMiss
	NumPatterns
)

var patternNames = [...]string{
	"RAR/hit", "RAW/hit", "WAR/hit", "WAW/hit",
	"RAR/miss", "RAW/miss", "WAR/miss", "WAW/miss",
}

func (p Pattern) String() string {
	if int(p) < len(patternNames) {
		return patternNames[p]
	}
	return fmt.Sprintf("pattern(%d)", int(p))
}

// Read reports whether the pattern's current operation is a read.
func (p Pattern) Read() bool {
	switch p {
	case RARHit, RAWHit, RARMiss, RAWMiss:
		return true
	}
	return false
}

// Hit reports whether the pattern hits the row buffer.
func (p Pattern) Hit() bool { return p <= WAWHit }

// PatternOf classifies one access by Table 1: whether it writes,
// whether the bank's previous access wrote, and whether it hits the
// open row.
func PatternOf(write, prevWrite, hit bool) Pattern {
	var p Pattern
	switch {
	case !write && !prevWrite:
		p = RARHit
	case !write && prevWrite:
		p = RAWHit
	case write && !prevWrite:
		p = WARHit
	default:
		p = WAWHit
	}
	if !hit {
		p += 4
	}
	return p
}

// bankState tracks one DRAM bank.
type bankState struct {
	hasOpen   bool
	openRow   int64
	prevWrite bool
	readyAt   int64
}

// Sim is a timing simulator for one DRAM channel. The channel is in
// order: the SDAccel-era AXI memory interface issues one outstanding
// transaction at a time, so bursts serialize through the controller even
// when they target different banks.
type Sim struct {
	P        device.DRAMParams
	banks    []bankState
	chanFree int64
	// Stats per pattern.
	Count [NumPatterns]int64
	Total [NumPatterns]int64
}

// NewSim returns a simulator for the given parameters.
func NewSim(p device.DRAMParams) *Sim {
	if p.Banks <= 0 {
		p.Banks = 8
	}
	if p.BurstBytes <= 0 {
		p.BurstBytes = 64
	}
	if p.RowBytes <= 0 {
		p.RowBytes = 1024
	}
	return &Sim{P: p, banks: make([]bankState, p.Banks)}
}

// Reset clears bank state and statistics.
func (s *Sim) Reset() {
	s.banks = make([]bankState, s.P.Banks)
	s.chanFree = 0
	s.Count = [NumPatterns]int64{}
	s.Total = [NumPatterns]int64{}
}

// BankOf maps a byte address to its bank under burst interleaving.
func (s *Sim) BankOf(addr int64) int {
	return int((addr / int64(s.P.BurstBytes)) % int64(s.P.Banks))
}

// RowOf maps a byte address to the row index within its bank.
func (s *Sim) RowOf(addr int64) int64 {
	local := addr / (int64(s.P.BurstBytes) * int64(s.P.Banks)) * int64(s.P.BurstBytes)
	local += addr % int64(s.P.BurstBytes)
	return local / int64(s.P.RowBytes)
}

// serviceTime returns the command latency for a pattern.
func (s *Sim) serviceTime(p Pattern) int64 {
	t := int64(s.P.TCL + s.P.TBus)
	if !p.Hit() {
		// Precharge (closing the old row) + activate before the column
		// access: three DRAM commands instead of one (§3.4).
		t += int64(s.P.TRP + s.P.TRCD)
	}
	switch p {
	case RAWHit, RAWMiss:
		t += int64(s.P.TurnRW) // bus turnaround write→read
	case WARHit, WARMiss:
		t += int64(s.P.TurnWR) // bus turnaround read→write
	}
	if p == WAWMiss || p == RAWMiss {
		t += int64(s.P.TWR) // write recovery before precharge
	}
	return t
}

// AccessAt performs one burst access at time now and returns the
// completion time and the pattern it was classified as. Bank conflicts
// (an earlier access still in flight on the same bank) delay the access.
func (s *Sim) AccessAt(now int64, addr int64, write bool) (done int64, pat Pattern) {
	b := &s.banks[s.BankOf(addr)]
	row := s.RowOf(addr)
	hit := b.hasOpen && b.openRow == row
	pat = PatternOf(write, b.prevWrite, hit)

	start := now
	if b.readyAt > start {
		start = b.readyAt
	}
	if s.chanFree > start {
		start = s.chanFree
	}
	lat := s.serviceTime(pat)
	done = start + lat
	s.chanFree = done

	b.hasOpen = true
	b.openRow = row
	b.prevWrite = write
	b.readyAt = done

	s.Count[pat]++
	s.Total[pat] += done - now
	return done, pat
}

// AvgLatency returns the observed mean latency of a pattern, or 0.
func (s *Sim) AvgLatency(p Pattern) float64 {
	if s.Count[p] == 0 {
		return 0
	}
	return float64(s.Total[p]) / float64(s.Count[p])
}

// PatternLatencies are the profiled ΔT values of Table 1 (cycles per
// coalesced access).
type PatternLatencies [NumPatterns]float64

// Get returns ΔT for a pattern.
func (l PatternLatencies) Get(p Pattern) float64 { return l[p] }

// ProfilePatterns reproduces the micro-benchmark profiling of §3.4: it
// drives the DRAM simulator with synthetic streams engineered to exercise
// every pattern and returns the observed average latency of each. The
// result is deterministic for given parameters and seed, so it is
// computed once per distinct (parameters, accesses, seed).
func ProfilePatterns(p device.DRAMParams, accesses int, seed uint64) PatternLatencies {
	if accesses <= 0 {
		accesses = 4096
	}
	key := patternKey{p: p, accesses: accesses, seed: seed}
	patterns.mu.Lock()
	lat, ok := patterns.m[key]
	patterns.mu.Unlock()
	if ok {
		return lat
	}
	lat = profilePatterns(p, accesses, seed)
	patterns.mu.Lock()
	if len(patterns.m) < maxPatterns {
		patterns.m[key] = lat
	}
	patterns.mu.Unlock()
	return lat
}

// patterns memoizes ProfilePatterns. It holds at most maxPatterns
// results; beyond that ProfilePatterns computes without storing.
var patterns = struct {
	mu sync.Mutex
	m  map[patternKey]PatternLatencies
}{m: make(map[patternKey]PatternLatencies)}

const maxPatterns = 64

type patternKey struct {
	p        device.DRAMParams
	accesses int
	seed     uint64
}

// profilePatterns computes ProfilePatterns' latencies.
func profilePatterns(p device.DRAMParams, accesses int, seed uint64) PatternLatencies {
	s := NewSim(p)
	now := int64(0)
	burst := int64(s.P.BurstBytes)
	nbanks := int64(s.P.Banks)
	rowStride := int64(s.P.RowBytes) * nbanks

	// Phase 1: sequential reads within rows (RAR hits and periodic
	// misses at row boundaries).
	addr := int64(0)
	for i := 0; i < accesses; i++ {
		done, _ := s.AccessAt(now, addr, false)
		now = done
		addr += burst
	}
	// Phase 2: sequential writes (WAW hits + misses).
	addr = 0
	for i := 0; i < accesses; i++ {
		done, _ := s.AccessAt(now, addr, true)
		now = done
		addr += burst
	}
	// Phase 3: alternating read/write on the same rows (RAW/WAR hits).
	addr = 0
	for i := 0; i < accesses; i++ {
		done, _ := s.AccessAt(now, addr, i%2 == 0)
		now = done
		if i%2 == 1 {
			addr += burst
		}
	}
	// Phase 4: random row-hopping mix (all miss patterns).
	h := seed
	for i := 0; i < accesses; i++ {
		h = device.Mix64(h)
		row := int64(h % 512)
		h = device.Mix64(h)
		write := h&1 == 0
		a := row*rowStride + int64(h%uint64(rowStride/burst))*burst
		done, _ := s.AccessAt(now, a, write)
		now = done
	}

	var out PatternLatencies
	for pat := Pattern(0); pat < NumPatterns; pat++ {
		v := s.AvgLatency(pat)
		if v == 0 {
			// Unobserved pattern: fall back to its analytic service time.
			v = float64(s.serviceTime(pat))
		}
		out[pat] = v
	}
	return out
}
