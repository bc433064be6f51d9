// Guided design-space search: branch-and-bound over the (WGSize,
// pipelining, PE, CU, mode) lattice using lower bounds derived from the
// analytical model's proven structure (see model.DesignBounds and
// docs/MODEL.md "Guided exploration"), plus a Pareto-frontier mode that
// walks the cycles-vs-resource frontier one budget level at a time.
//
// The search is exact, not heuristic: every pruned subtree is proven —
// by a bound that only relaxes the model's own equations — to contain no
// design that beats (or ties at an earlier space index than) the
// incumbent, so Search returns byte-for-byte the same best design and
// the same Pareto frontier as exhaustive Explore, while evaluating a
// small fraction of the space. internal/check's "search" family asserts
// that equivalence over the whole corpus.
package dse

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// Search strategies, as spelled on cmd/flexcl-dse's -search flag and the
// v2 API's explore "search" field.
const (
	StrategyExhaustive = "exhaustive"
	StrategyGuided     = "guided"
	StrategyPareto     = "pareto"
)

// SearchOptions tunes a guided exploration.
type SearchOptions struct {
	// Platform is the device model (nil = Virtex-7).
	Platform *device.Platform
	// Workers shards the per-WG-size preparation (compile + analyze +
	// bound derivation) over goroutines, and splits the work-items of
	// each profiled work-group when one shared profile serves every WG
	// size (see PrepCache); 0 uses GOMAXPROCS. The search itself
	// sequences its pruning decisions on one goroutine, so the result —
	// including the exact set of evaluated designs — is identical at any
	// worker count.
	Workers int
	// Cache shares compiled kernels and analyses with Explore and other
	// Search calls (nil = private per-call cache).
	Cache *PrepCache
	// Pareto additionally computes the cycles-vs-resource Pareto
	// frontier (resource proxy: requested PE·CU), evaluating one
	// constrained search step per frontier budget level.
	Pareto bool
}

// SearchResult is the outcome of one guided search.
type SearchResult struct {
	Kernel *bench.Kernel
	// Space is the size of the full design space the search is
	// equivalent to (len(Space(k, p))).
	Space int
	// Best is the model-optimal design, identical to exhaustive
	// Explore's BestByModel — including tie-breaks (first in space
	// enumeration order). BestOK is false only for an empty space.
	Best      Point
	BestOK    bool
	BestIndex int
	// Frontier is the Pareto frontier (Pareto mode only): the designs
	// where the minimum achievable cycles strictly improves as the
	// PE·CU resource budget grows, identical to ParetoFrontierOf over
	// an exhaustive exploration.
	Frontier []Point
	// Evaluated counts full model evaluations (Analysis.Predict calls);
	// Pruned counts design points excluded by a bound without being
	// evaluated. Evaluated + Pruned == Space.
	Evaluated int
	Pruned    int
	// Points holds the evaluated points in space enumeration order (the
	// deterministic "Evaluated set" of the race/determinism tests).
	Points []Point

	// ModelTime is time spent in analysis, bound derivation and model
	// evaluation, summed over workers; WallTime is elapsed time.
	ModelTime time.Duration
	WallTime  time.Duration
}

// EvaluatedDesigns returns the evaluated designs in space enumeration
// order.
func (r *SearchResult) EvaluatedDesigns() []model.Design {
	out := make([]model.Design, len(r.Points))
	for i, pt := range r.Points {
		out[i] = pt.Design
	}
	return out
}

// lowerBound combines a WG size's DesignBounds into a sound lower bound
// on Predict(d).Cycles for every design d of the subtree with
// d.WIPipeline == pipe, d.Mode == mode, d.PE ≤ peMax and d.CU ≤ cuMax
// (PE/CU drawn from the lattice the bounds were derived on).
//
// Soundness argument, mirroring PredictWith's expression shapes so IEEE
// rounding stays monotone (every input here is ≤ its counterpart in the
// real evaluation, and +, ·, max, min and Ceil are monotone under
// round-to-nearest):
//
//	waves    ≥ ⌈(N_wi^wg − N_PE)/N_PE⌉ at N_PE = peMax   (Eq. 5, N_PE ≤ PE)
//	batches  ≥ ⌈N_wi/(N_wi^wg·N_CU)⌉ at N_CU = cuMax'    (Eq. 7–8, N_CU ≤ CU and ≤ groups)
//	L_CU     ≥ II_lb·waves + Depth_lb                     (Eq. 5, schedule minima)
//	barrier  : Cycles = max(mem, L) + min(mem, L)/N_CU — nondecreasing in
//	           L and N_CU⁻¹, so bounding L by L_CU·batches and N_CU by
//	           cuMax' bounds Eq. 10 from below.
//	pipeline : Cycles ≥ (max(II_lb, L_mem^wi)·waves + Depth_lb)·batches
//	           (Eq. 11–12 with N_PE·N_CU ≥ 1), floored by L_mem^wi·N_wi.
//	both     : Cycles ≥ ΔL_schedule·⌈N_wi/N_wi^wg⌉ (dispatcher floor).
func lowerBound(b model.DesignBounds, pipe bool, mode model.CommMode, peMax, cuMax int) float64 {
	nwg := float64(b.WGSize)
	nwi := float64(b.NWI)
	groups := math.Ceil(nwi / nwg)
	dispFloor := b.DLS * groups

	ii, depth := float64(b.PipeII), float64(b.PipeDepth)
	if !pipe {
		ii, depth = float64(b.SerialDepth), float64(b.SerialDepth)
	}
	waves := math.Ceil((nwg - float64(peMax)) / float64(peMax))
	if waves < 0 {
		waves = 0
	}
	ncu := cuMax
	if g := int(groups); g >= 1 && g < ncu {
		ncu = g
	}
	if ncu < 1 {
		ncu = 1
	}
	batches := math.Ceil(nwi / (nwg * float64(ncu)))

	memT := b.LMemWI * nwi
	if b.HasBarrier {
		mode = model.ModeBarrier
	}
	var lb float64
	switch mode {
	case model.ModeBarrier:
		// Eq. 10 rewritten: memT + L − (1−1/N_CU)·min(L, memT)
		// = max(memT, L) + min(memT, L)/N_CU, with L ≥ lcomp.
		lcomp := (ii*waves + depth) * batches
		lb = math.Max(memT, lcomp) + math.Min(memT, lcomp)/float64(ncu)
	default:
		iiWI := math.Max(ii, b.LMemWI)
		lb = (iiWI*waves + depth) * batches
		if lb < memT {
			lb = memT
		}
	}
	if lb < dispFloor {
		lb = dispFloor
	}
	return lb
}

// Resource returns the search's resource proxy for a design: the
// requested PE·CU replication (the area a design asks the flow for; the
// effective N_PE·N_CU of Eq. 6/8 is capped by it).
func Resource(d model.Design) int { return d.PE * d.CU }

// ParetoFrontierOf computes the cycles-vs-resource Pareto frontier of an
// exhaustively evaluated point set: for each resource budget level
// (distinct PE·CU product, ascending) the best point within budget —
// ties broken by evaluation order, like BestByModel — kept only where it
// strictly improves on every cheaper budget. Search's Pareto mode
// returns the identical frontier without the exhaustive sweep.
func ParetoFrontierOf(pts []Point) []Point {
	if len(pts) == 0 {
		return nil
	}
	levels := map[int]bool{}
	for _, pt := range pts {
		levels[Resource(pt.Design)] = true
	}
	sorted := make([]int, 0, len(levels))
	for r := range levels {
		sorted = append(sorted, r)
	}
	sort.Ints(sorted)

	var out []Point
	prev := math.Inf(1)
	for _, level := range sorted {
		best, ok := -1, false
		for i, pt := range pts {
			if Resource(pt.Design) > level {
				continue
			}
			if !ok || pt.Est < pts[best].Est {
				best, ok = i, true
			}
		}
		if ok && pts[best].Est < prev {
			out = append(out, pts[best])
			prev = pts[best].Est
		}
	}
	return out
}

// searchGroup is one branch of the lattice: all designs sharing a WG
// size, pipelining choice and communication mode. Its members' PE×CU
// sub-lattice is what the bound relaxes over.
type searchGroup struct {
	wg         int64
	pipe       bool
	mode       model.CommMode
	members    []int // space indices, ascending
	minIdx     int
	peMax      int
	cuMax      int
	lb         float64
	hasBarrier bool
}

// Search runs the guided branch-and-bound exploration. It is equivalent
// to model-only exhaustive Explore — same best design (exact tie-breaks
// included) and, in Pareto mode, the same frontier — while evaluating
// only the design points no bound could exclude. Preparation (compile +
// analyze per WG size) is sharded over opts.Workers through the prep
// cache exactly like Explore; the bounding walk itself is sequenced so
// the evaluated set is deterministic at any worker count.
func Search(ctx context.Context, k *bench.Kernel, opts SearchOptions) (*SearchResult, error) {
	p := opts.Platform
	if p == nil {
		p = device.Virtex7()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cache := opts.Cache
	if cache == nil {
		cache = NewPrepCache()
	}
	if ctx == nil {
		ctx = context.Background()
	}

	t0 := time.Now()
	res := &SearchResult{Kernel: k}

	// Phase 1: prepare every WG size (shared with Explore through the
	// cache) and derive its schedule bounds.
	wgs := k.WGSizes()
	type prep struct {
		an     *model.Analysis
		bounds model.DesignBounds
	}
	preps := make([]prep, len(wgs))
	peVals := model.PEValues(p.MaxPE)
	cuVals := model.CUValues(p.MaxCU)
	var prepNanos int64
	_, prepSpan := telemetry.Start(ctx, "prep")
	prepSpan.Annotate("wg_sizes", fmt.Sprint(len(wgs)))
	entries, own, err := cache.prepare(ctx, k, p, wgs, workers)
	if err == nil {
		runShards(workers, len(wgs), func(i int) {
			e := entries[i]
			b0 := time.Now()
			preps[i] = prep{an: e.an, bounds: e.an.DesignBounds(peVals, cuVals)}
			d := time.Since(b0)
			if own[i] {
				d += e.dur
			}
			atomic.AddInt64(&prepNanos, int64(d))
		})
	}
	prepSpan.End()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prepByWG := make(map[int64]prep, len(wgs))
	for i, wg := range wgs {
		prepByWG[wg] = preps[i]
	}

	designs := Space(k, p)
	res.Space = len(designs)
	if len(designs) == 0 {
		res.WallTime = time.Since(t0)
		res.ModelTime = time.Duration(prepNanos)
		return res, nil
	}
	hasBarrier := prepByWG[designs[0].WGSize].bounds.HasBarrier

	// Group the space. Barrier-forced kernels run every design in
	// effective barrier mode (§3.5), so a pipeline-labeled design always
	// ties its barrier-labeled sibling at the immediately preceding
	// space index and can never win the first-index tie-break: skip the
	// whole mode without evaluation.
	groupOf := map[searchGroupKey]*searchGroup{}
	var groups []*searchGroup
	for i, d := range designs {
		if hasBarrier && d.Mode == model.ModePipeline {
			continue
		}
		key := searchGroupKey{wg: d.WGSize, pipe: d.WIPipeline, mode: d.Mode}
		g := groupOf[key]
		if g == nil {
			g = &searchGroup{
				wg: d.WGSize, pipe: d.WIPipeline, mode: d.Mode,
				minIdx: i, hasBarrier: hasBarrier,
			}
			groupOf[key] = g
			groups = append(groups, g)
		}
		g.members = append(g.members, i)
		if d.PE > g.peMax {
			g.peMax = d.PE
		}
		if d.CU > g.cuMax {
			g.cuMax = d.CU
		}
	}
	for _, g := range groups {
		g.lb = lowerBound(prepByWG[g.wg].bounds, g.pipe, g.mode, g.peMax, g.cuMax)
	}
	// Visit the most promising branches first: ascending bound, then
	// ascending first index so tie-broken incumbents settle early.
	sort.SliceStable(groups, func(a, b int) bool {
		if groups[a].lb != groups[b].lb {
			return groups[a].lb < groups[b].lb
		}
		return groups[a].minIdx < groups[b].minIdx
	})

	// Evaluation memo: each design point is Predicted at most once, no
	// matter how many frontier levels visit it.
	ests := make(map[int]float64, len(designs))
	var evalNanos int64
	evaluate := func(i int) float64 {
		if est, ok := ests[i]; ok {
			return est
		}
		m0 := time.Now()
		est := prepByWG[designs[i].WGSize].an.Predict(designs[i]).Cycles
		atomic.AddInt64(&evalNanos, int64(time.Since(m0)))
		ests[i] = est
		res.Evaluated++
		return est
	}

	// Incumbent with exhaustive Explore's exact tie-break: strictly
	// fewer cycles, or equal cycles at an earlier space index.
	incEst := math.Inf(1)
	incIdx := len(designs)
	consider := func(i int, est float64) {
		if est < incEst || (est == incEst && i < incIdx) {
			incEst, incIdx = est, i
		}
	}
	// pruned reports that no design of a subtree with the given bound
	// and minimum space index can displace the incumbent: the bound
	// exceeds it, or meets it exactly with every index losing the tie.
	pruned := func(lb float64, minIdx int) bool {
		return lb > incEst || (lb == incEst && minIdx > incIdx)
	}

	// walk runs one bounded sweep restricted to designs with
	// Resource(d) ≤ budget, updating the shared incumbent (valid across
	// ascending budgets: a smaller budget's space is a subset).
	bounds := func(wg int64) model.DesignBounds { return prepByWG[wg].bounds }
	walk := func(budget int) error {
		for _, g := range groups {
			if err := ctx.Err(); err != nil {
				return err
			}
			// Subtree caps under this budget.
			peMax, cuMax, minIdx, probe := 0, 0, -1, -1
			for _, i := range g.members {
				d := designs[i]
				if Resource(d) > budget {
					continue
				}
				if minIdx < 0 {
					minIdx = i
				}
				if d.PE > peMax {
					peMax = d.PE
				}
				if d.CU > cuMax {
					cuMax = d.CU
				}
				probe = i // last in-budget member: max parallelism
			}
			if minIdx < 0 {
				continue
			}
			if glb := lowerBound(bounds(g.wg), g.pipe, g.mode, peMax, cuMax); pruned(glb, minIdx) {
				continue
			}
			// Probe the group's strongest design first: a tight incumbent
			// turns the ascending sweep below into pure pruning.
			if _, seen := ests[probe]; !seen {
				d := designs[probe]
				if !pruned(lowerBound(bounds(g.wg), g.pipe, g.mode, d.PE, d.CU), probe) {
					consider(probe, evaluate(probe))
				}
			}
			for _, i := range g.members {
				d := designs[i]
				if Resource(d) > budget {
					continue
				}
				if est, seen := ests[i]; seen {
					consider(i, est)
					continue
				}
				if pruned(lowerBound(bounds(g.wg), g.pipe, g.mode, d.PE, d.CU), i) {
					continue
				}
				consider(i, evaluate(i))
			}
		}
		return nil
	}

	maxBudget := 0
	levelSet := map[int]bool{}
	for _, d := range designs {
		r := Resource(d)
		levelSet[r] = true
		if r > maxBudget {
			maxBudget = r
		}
	}

	_, searchSpan := telemetry.Start(ctx, "search")
	defer func() {
		searchSpan.Annotate("evaluated", fmt.Sprint(res.Evaluated))
		searchSpan.Annotate("pruned", fmt.Sprint(res.Space-res.Evaluated))
		searchSpan.End()
	}()
	if opts.Pareto {
		// One constrained search per budget level, cheapest first; the
		// frontier keeps the levels whose optimum strictly improves.
		levels := make([]int, 0, len(levelSet))
		for r := range levelSet {
			levels = append(levels, r)
		}
		sort.Ints(levels)
		prev := math.Inf(1)
		for _, level := range levels {
			if err := walk(level); err != nil {
				return nil, err
			}
			if incIdx < len(designs) && incEst < prev {
				res.Frontier = append(res.Frontier, Point{Design: designs[incIdx], Est: incEst})
				prev = incEst
			}
		}
	} else if err := walk(maxBudget); err != nil {
		return nil, err
	}

	if incIdx < len(designs) {
		res.Best = Point{Design: designs[incIdx], Est: incEst}
		res.BestOK = true
		res.BestIndex = incIdx
	}
	res.Pruned = res.Space - res.Evaluated
	idxs := make([]int, 0, len(ests))
	for i := range ests {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	res.Points = make([]Point, 0, len(idxs))
	for _, i := range idxs {
		res.Points = append(res.Points, Point{Design: designs[i], Est: ests[i]})
	}
	res.ModelTime = time.Duration(prepNanos + evalNanos)
	res.WallTime = time.Since(t0)
	return res, nil
}

type searchGroupKey struct {
	wg   int64
	pipe bool
	mode model.CommMode
}
