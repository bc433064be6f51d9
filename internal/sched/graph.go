package sched

import (
	"math"

	"repro/internal/ir"
)

// Graph is one kernel scheduled under one Config (§3.2): every basic
// block list-scheduled once, and each block's start offset along the
// frequency-weighted critical path through the acyclic control-flow
// graph. SMS and SerialDepth derive the work-item schedules of Eq. 1
// from it without building a block's dependence graph again.
type Graph struct {
	Func *ir.Func
	// Freq is the per-work-item execution frequency used (copied or
	// derived from trip hints).
	Freq map[*ir.Block]float64
	// BlockOffsets is each block's start cycle along the critical-path
	// schedule (input to SMS).
	BlockOffsets map[*ir.Block]int

	cfg    *Config
	length []int // each block's list-scheduled length, by ir.Block.ID
	asap   []int // each instruction's ASAP start in its block, by ir.Instr.ID
}

// EffectiveFreq builds per-block execution frequencies from static trip
// hints when no profile is available: every loop multiplies its body by
// its trip count (unknown trips default to defaultTrip). Unroll hints
// divide the effective trip count (the body is replicated spatially).
func EffectiveFreq(f *ir.Func, defaultTrip int64) map[*ir.Block]float64 {
	if defaultTrip <= 0 {
		defaultTrip = 16
	}
	freq := make(map[*ir.Block]float64, len(f.Blocks))
	for _, b := range f.Blocks {
		w := 1.0
		for _, l := range f.Loops {
			if !l.Blocks[b] {
				continue
			}
			trip := l.StaticTrip
			if trip < 0 {
				trip = defaultTrip
			}
			eff := float64(trip)
			switch {
			case l.Unroll < 0:
				eff = 1 // full unroll
			case l.Unroll > 1:
				eff = math.Ceil(eff / float64(l.Unroll))
			}
			if eff < 1 {
				eff = 1
			}
			// The header executes once more than the body.
			if b == l.Header {
				eff++
			}
			w *= eff
		}
		freq[b] = w
	}
	return freq
}

// applyUnroll rescales profiled frequencies by unroll hints: a loop body
// unrolled by u executes u iterations per hardware cycle of the replica.
func applyUnroll(f *ir.Func, freq map[*ir.Block]float64) map[*ir.Block]float64 {
	out := make(map[*ir.Block]float64, len(freq))
	for b, w := range freq {
		out[b] = w
	}
	for _, l := range f.Loops {
		u := float64(l.Unroll)
		if l.Unroll == 0 {
			continue
		}
		for b := range l.Blocks {
			if l.Unroll < 0 {
				out[b] = 1
			} else if u > 1 {
				out[b] = math.Ceil(out[b] / u)
			}
		}
	}
	return out
}

// Build schedules every block and computes the critical path. freq maps
// blocks to executions per work-item; pass nil to derive it from static
// trip hints. Each block's dependence graph is built once, for both its
// list schedule and the ASAP times SMS and RecMII read, on one scratch
// reused for every block.
func Build(f *ir.Func, freq map[*ir.Block]float64, cfg *Config) *Graph {
	f.EnsureLoops()
	if freq == nil {
		freq = EffectiveFreq(f, 16)
	} else {
		freq = applyUnroll(f, freq)
	}
	g := &Graph{
		Func:         f,
		Freq:         freq,
		BlockOffsets: make(map[*ir.Block]int, len(f.Blocks)),
		cfg:          cfg,
		length:       make([]int, f.BlockIDs()),
		asap:         make([]int, f.InstrIDs()),
	}
	var s blockScratch
	for _, b := range f.Blocks {
		succ, pred := s.dfg(b.Instrs, cfg.Latency)
		_, g.length[b.ID] = s.schedule(b.Instrs, succ, pred, cfg)
		asapTimes(b.Instrs, pred, g.asap)
	}

	// Critical path over the acyclic graph (back edges removed), with
	// node weight = freq × latency. Longest path via topological order.
	order, isBack := acyclicOrder(f)
	start := make(map[*ir.Block]float64, len(order))
	for _, b := range order {
		w := freq[b] * float64(g.length[b.ID])
		end := start[b] + w
		for _, s := range b.Succs {
			if isBack[edge{b, s}] {
				continue
			}
			if end > start[s] {
				start[s] = end
			}
		}
	}
	for b, s := range start {
		g.BlockOffsets[b] = int(math.Round(s))
	}
	return g
}

// SerialDepth is the non-pipelined work-item latency: the
// frequency-weighted sum of block schedule lengths (every block executes
// in sequence, loops repeat their bodies).
func (g *Graph) SerialDepth() int {
	total := 0.0
	for _, b := range g.Func.Blocks {
		w, ok := g.Freq[b]
		if !ok {
			w = 1
		}
		if w <= 0 {
			continue
		}
		total += w * float64(g.length[b.ID])
	}
	if total < 1 {
		return 1
	}
	return int(math.Ceil(total))
}

type edge struct{ from, to *ir.Block }

// acyclicOrder returns blocks in a topological order of the CFG with back
// edges removed, and the set of back edges. The CFG is current: Build's
// EnsureLoops rebuilt it, and rebuilding here would race when concurrent
// design-point evaluations share the compiled function.
func acyclicOrder(f *ir.Func) ([]*ir.Block, map[edge]bool) {
	idom := f.Dominators()
	isBack := map[edge]bool{}
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if ir.Dominates(idom, s, b) {
				isBack[edge{b, s}] = true
			}
		}
	}
	indeg := map[*ir.Block]int{}
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if !isBack[edge{b, s}] {
				indeg[s]++
			}
		}
	}
	var queue []*ir.Block
	for _, b := range f.Blocks {
		if indeg[b] == 0 {
			queue = append(queue, b)
		}
	}
	var order []*ir.Block
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		order = append(order, b)
		for _, s := range b.Succs {
			if isBack[edge{b, s}] {
				continue
			}
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	return order, isBack
}
