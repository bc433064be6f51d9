// Package cdfg builds the control-data-flow graph of FlexCL's kernel
// analysis (§3.2): basic blocks are scheduled individually (package
// sched), simple chains are merged, loops are collapsed into weighted
// region nodes, and the frequency-weighted critical path through the
// resulting DAG gives the pipeline depth D_comp^PE used by Eq. 1.
package cdfg

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/ir"
	"repro/internal/sched"
)

// Node is one CDFG node: a merged straight-line region or a collapsed
// loop.
type Node struct {
	ID      int
	Blocks  []*ir.Block
	Loop    *ir.Loop // non-nil when the node is a collapsed loop
	Latency float64  // frequency-weighted latency contribution
	Succs   []*Node
	Preds   []*Node
}

// Label returns a printable node name.
func (n *Node) Label() string {
	if n.Loop != nil {
		return "loop@" + n.Loop.Header.Label()
	}
	if len(n.Blocks) > 0 {
		return n.Blocks[0].Label()
	}
	return fmt.Sprintf("n%d", n.ID)
}

// Graph is the analyzed CDFG of one kernel.
type Graph struct {
	Func  *ir.Func
	Nodes []*Node

	// BlockLatency is each block's list-scheduled length in cycles.
	BlockLatency map[*ir.Block]int
	// BlockOffsets is each block's start cycle along the critical-path
	// schedule (input to SMS).
	BlockOffsets map[*ir.Block]int
	// Depth is D_comp^PE: the frequency-weighted critical path in cycles.
	Depth int
	// Freq is the per-work-item execution frequency used (copied or
	// derived from trip hints).
	Freq map[*ir.Block]float64
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

// ApplyUnroll rescales profiled frequencies by unroll hints: a loop body
// unrolled by u executes u iterations per hardware cycle of the replica.
func ApplyUnroll(f *ir.Func, freq map[*ir.Block]float64) map[*ir.Block]float64 {
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

// Build schedules every block, computes the critical path and assembles
// the merged CDFG. freq maps blocks to executions per work-item; pass nil
// to derive it from static trip hints.
func Build(f *ir.Func, freq map[*ir.Block]float64, cfg *sched.Config) *Graph {
	f.EnsureLoops()
	if freq == nil {
		freq = EffectiveFreq(f, 16)
	} else {
		freq = ApplyUnroll(f, freq)
	}
	g := &Graph{
		Func:         f,
		BlockLatency: make(map[*ir.Block]int, len(f.Blocks)),
		BlockOffsets: make(map[*ir.Block]int, len(f.Blocks)),
		Freq:         freq,
	}
	for _, b := range f.Blocks {
		g.BlockLatency[b] = sched.ScheduleBlock(b, cfg).Length
	}

	// Critical path over the acyclic graph (back edges removed), with
	// node weight = freq × latency. Longest path via topological order.
	order, isBack := acyclicOrder(f)
	start := make(map[*ir.Block]float64, len(order))
	var depth float64
	for _, b := range order {
		w := freq[b] * float64(g.BlockLatency[b])
		end := start[b] + w
		if end > depth {
			depth = end
		}
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
	g.Depth = int(math.Ceil(depth))
	if g.Depth < 1 {
		g.Depth = 1
	}

	g.Nodes = mergeNodes(f, g)
	return g
}

// SerialDepth is the non-pipelined work-item latency of
// sched.SerialDepth(g.Func, g.Freq, cfg) for the cfg Build scheduled
// with: the same frequency-weighted sum of block lengths in the same
// block order, so it is bitwise identical, but read from BlockLatency
// instead of scheduling every block again.
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
		total += w * float64(g.BlockLatency[b])
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

// mergeNodes produces the simplified CDFG of Figure 3(c): innermost loops
// collapse to single nodes; single-entry single-exit chains merge.
func mergeNodes(f *ir.Func, g *Graph) []*Node {
	// Assign each block to its outermost loop (collapse whole loop nests).
	owner := map[*ir.Block]*ir.Loop{}
	for _, l := range f.Loops {
		top := l
		for top.Parent != nil {
			top = top.Parent
		}
		for b := range l.Blocks {
			if owner[b] == nil || owner[b] != top {
				owner[b] = top
			}
		}
	}
	nodeOf := map[*ir.Block]*Node{}
	loopNode := map[*ir.Loop]*Node{}
	var nodes []*Node
	newNode := func() *Node {
		n := &Node{ID: len(nodes)}
		nodes = append(nodes, n)
		return n
	}
	for _, b := range f.Blocks {
		if l := owner[b]; l != nil {
			n := loopNode[l]
			if n == nil {
				n = newNode()
				n.Loop = l
				loopNode[l] = n
			}
			n.Blocks = append(n.Blocks, b)
			n.Latency += g.Freq[b] * float64(g.BlockLatency[b])
			nodeOf[b] = n
			continue
		}
		n := newNode()
		n.Blocks = []*ir.Block{b}
		n.Latency = g.Freq[b] * float64(g.BlockLatency[b])
		nodeOf[b] = n
	}
	// Edges between distinct nodes.
	seen := map[[2]*Node]bool{}
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			a, c := nodeOf[b], nodeOf[s]
			if a == c || seen[[2]*Node{a, c}] {
				continue
			}
			seen[[2]*Node{a, c}] = true
			a.Succs = append(a.Succs, c)
			c.Preds = append(c.Preds, a)
		}
	}
	// Merge single-succ/single-pred chains of non-loop nodes.
	changed := true
	for changed {
		changed = false
		for _, n := range nodes {
			if n.Loop != nil || len(n.Succs) != 1 {
				continue
			}
			m := n.Succs[0]
			if m.Loop != nil || len(m.Preds) != 1 || m == n {
				continue
			}
			// Fold m into n.
			n.Blocks = append(n.Blocks, m.Blocks...)
			n.Latency += m.Latency
			n.Succs = m.Succs
			for _, s := range m.Succs {
				for i, p := range s.Preds {
					if p == m {
						s.Preds[i] = n
					}
				}
			}
			m.Blocks = nil
			m.Preds = nil
			m.Succs = nil
			changed = true
		}
	}
	var out []*Node
	for _, n := range nodes {
		if len(n.Blocks) > 0 {
			n.ID = len(out)
			out = append(out, n)
		}
	}
	return out
}

// String renders the merged CDFG for debugging.
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cdfg %s depth=%d\n", g.Func.Name, g.Depth)
	for _, n := range g.Nodes {
		fmt.Fprintf(&sb, "  %s lat=%.1f ->", n.Label(), n.Latency)
		for _, s := range n.Succs {
			fmt.Fprintf(&sb, " %s", s.Label())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
