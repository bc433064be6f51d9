package baseline

import (
	"math"

	"repro/internal/model"
	"repro/internal/sched"
)

// Coarse is the coarse-grained performance model attributed to Wang et
// al. [16]: it prices a design by operation counts and raw parallelism,
// ignoring global-memory access patterns, pipelining (II is assumed 1 or
// the block latency with no modulo refinement), and scheduling overhead.
// The §4.3 comparison shows why exhaustive search over such a model gets
// stuck: it cannot rank designs whose difference is memory behaviour.
func Coarse(a *model.Analysis, d model.Design) float64 {
	g := sched.Build(a.F, nil, &sched.Config{Table: a.Table, Res: sdaccelResources(a.Platform)})
	work := 0.0
	for _, b := range a.F.Blocks {
		work += g.Freq[b] * float64(len(b.Instrs))
	}
	depth := float64(g.SerialDepth())
	perWI := work
	if d.WIPipeline {
		perWI = work / 8 // flat pipelining speedup, no II modelling
	}
	par := float64(d.PE * d.CU)
	cycles := perWI*float64(a.NWI)/par + depth
	// Work-group size only matters through launch rounding.
	batches := math.Ceil(float64(a.NWI) / (float64(d.WGSize) * float64(d.CU)))
	return cycles + batches
}
