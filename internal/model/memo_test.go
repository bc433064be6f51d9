package model

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/ir"
	"repro/internal/sched"
)

// referencePredict is PredictWith without the schedule memo: it
// rebuilds the schedule graph and reruns SMS (pipelined) or
// serialDepthReference (serial), and Totals, then applies the same
// Eq. 5–12 arithmetic once per ablation. No ablation changes the
// schedule, so one sequence serves them all.
func referencePredict(a *Analysis, d Design, abs []Ablations) []*Estimate {
	scfg := &sched.Config{Table: a.Table, Res: PEResources(a.Platform, d)}
	g := sched.Build(a.F, a.Freq, scfg)
	var r *sched.PipelineResult
	depth := 0
	if d.WIPipeline {
		r = g.SMS()
	} else {
		depth = serialDepthReference(a.F, g.Freq, scfg)
	}
	tot := sched.Totals(a.F, a.Freq, scfg)
	out := make([]*Estimate, len(abs))
	for i, ab := range abs {
		e := &Estimate{Design: d, Mode: EffectiveMode(a.F, d)}
		if d.WIPipeline {
			e.IIComp, e.Depth = r.II, r.Depth
			e.RecMII, e.ResMII = r.RecMII, r.ResMII
			if ab.IIFromMII {
				e.IIComp = r.MII
			}
		} else {
			e.IIComp, e.Depth = depth, depth
		}
		a.evaluate(e, ab, scfg.Res, tot)
		out[i] = e
	}
	return out
}

// serialDepthReference is the non-pipelined work-item latency summed
// from scratch: freq × ScheduleBlock over the blocks, a block absent
// from freq counting once.
func serialDepthReference(f *ir.Func, freq map[*ir.Block]float64, cfg *sched.Config) int {
	total := 0.0
	for _, b := range f.Blocks {
		w, ok := freq[b]
		if !ok {
			w = 1
		}
		if w <= 0 {
			continue
		}
		total += w * float64(sched.ScheduleBlock(b, cfg))
	}
	if total < 1 {
		return 1
	}
	return int(math.Ceil(total))
}

func analyzeKernel(tb testing.TB, k *bench.Kernel, p *device.Platform, wg int64) *Analysis {
	tb.Helper()
	f, err := k.Compile(wg)
	if err != nil {
		tb.Fatal(err)
	}
	an, err := Analyze(context.Background(), f, p, k.Config(wg))
	if err != nil {
		tb.Fatal(err)
	}
	return an
}

// freshCopy returns a new Analysis literal over a's fields, with an
// empty schedule memo.
func freshCopy(a *Analysis) *Analysis {
	return &Analysis{
		F: a.F, Platform: a.Platform, Table: a.Table, PatLat: a.PatLat,
		Freq: a.Freq, Mem: a.Mem, NWI: a.NWI, WGSize: a.WGSize, Barriers: a.Barriers,
	}
}

// estimateDiff describes the first field where got and want differ,
// comparing floats bitwise, or returns "".
func estimateDiff(got, want *Estimate) string {
	ints := []struct {
		name      string
		got, want int
	}{
		{"IIComp", got.IIComp, want.IIComp}, {"Depth", got.Depth, want.Depth},
		{"RecMII", got.RecMII, want.RecMII}, {"ResMII", got.ResMII, want.ResMII},
		{"NPE", got.NPE, want.NPE}, {"NCU", got.NCU, want.NCU},
		{"Mode", int(got.Mode), int(want.Mode)},
	}
	for _, f := range ints {
		if f.got != f.want {
			return fmt.Sprintf("%s %d, reference %d", f.name, f.got, f.want)
		}
	}
	floats := []struct {
		name      string
		got, want float64
	}{
		{"LMemWI", got.LMemWI, want.LMemWI}, {"LCompCU", got.LCompCU, want.LCompCU},
		{"LCompKernel", got.LCompKernel, want.LCompKernel},
		{"Cycles", got.Cycles, want.Cycles}, {"Seconds", got.Seconds, want.Seconds},
	}
	for _, f := range floats {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			return fmt.Sprintf("%s %v, reference %v", f.name, f.got, f.want)
		}
	}
	if got.Design != want.Design {
		return fmt.Sprintf("Design %v, reference %v", got.Design, want.Design)
	}
	return ""
}

// TestMemoMatchesReference proves the memoized model is the per-call
// model, bitwise: every bundled kernel at its smallest and largest WG
// size, every design of the default space, with no ablation and with
// each single ablation, predicted in space order, in reverse order, and
// from 8 goroutines sharing one analysis (the case make race checks).
func TestMemoMatchesReference(t *testing.T) {
	p := device.Virtex7()
	ablations := []Ablations{
		{}, {SingleMemLatency: true}, {NoCoalescing: true},
		{NoSchedOverhead: true}, {IIFromMII: true},
	}
	for _, k := range bench.All() {
		wgs := k.WGSizes()
		for _, wg := range []int64{wgs[0], wgs[len(wgs)-1]} {
			t.Run(fmt.Sprintf("%s/wg%d", k.ID(), wg), func(t *testing.T) {
				t.Parallel()
				an := analyzeKernel(t, k, p, wg)
				space := DefaultSpace(wgs[len(wgs)-1], p.MaxPE, p.MaxCU)
				want := make([][]*Estimate, len(space))
				for i, d := range space {
					want[i] = referencePredict(an, d, ablations)
				}
				check := func(how string, a *Analysis, i int) string {
					for j, ab := range ablations {
						if diff := estimateDiff(a.PredictWith(space[i], ab), want[i][j]); diff != "" {
							return fmt.Sprintf("%s %v %+v: %s", how, space[i], ab, diff)
						}
					}
					return ""
				}

				fwd := freshCopy(an)
				for i := range space {
					if diff := check("space order", fwd, i); diff != "" {
						t.Fatal(diff)
					}
				}
				rev := freshCopy(an)
				for i := len(space) - 1; i >= 0; i-- {
					if diff := check("reverse order", rev, i); diff != "" {
						t.Fatal(diff)
					}
				}
				shared := freshCopy(an)
				var done sync.WaitGroup
				for w := 0; w < 8; w++ {
					done.Add(1)
					go func(w int) {
						defer done.Done()
						// Each goroutine starts at its own offset so the
						// first fills of the table race each other.
						for n := range space {
							i := (n + w*len(space)/8) % len(space)
							if diff := check(fmt.Sprintf("goroutine %d", w), shared, i); diff != "" {
								t.Error(diff)
								return
							}
						}
					}(w)
				}
				done.Wait()
			})
		}
	}
}

// costKernels are the bundled kernels the cost guards and BenchmarkPredict
// run on, at their largest WG size.
var costKernels = []struct{ bench, name string }{
	{"nn", "nn"}, {"hotspot", "hotspot"}, {"gemm", "gemm"},
	{"kmeans", "swap"}, {"pathfinder", "dynproc"},
}

func costAnalysis(tb testing.TB, benchName, name string) *Analysis {
	tb.Helper()
	k := bench.Find(benchName, name)
	if k == nil {
		tb.Fatalf("kernel %s/%s missing", benchName, name)
	}
	wgs := k.WGSizes()
	return analyzeKernel(tb, k, device.Virtex7(), wgs[len(wgs)-1])
}

var (
	sinkEstimate *Estimate
	sinkCycles   float64
)

// TestWarmPredictAllocs guards the cost of a warm prediction: once the
// schedule table holds the design's resource configuration, Predict is
// Eq. 5–12 arithmetic whose one allocation is the returned Estimate, and
// none when the caller only reads a field of it (Predict inlines, so
// the Estimate stays on the caller's stack).
func TestWarmPredictAllocs(t *testing.T) {
	for _, c := range costKernels {
		an := costAnalysis(t, c.bench, c.name)
		for _, d := range []Design{
			{WGSize: an.WGSize, PE: 1, CU: 1, Mode: ModeBarrier},
			{WGSize: an.WGSize, WIPipeline: true, PE: 4, CU: 2, Mode: ModePipeline},
		} {
			an.Predict(d)
			allocs := testing.AllocsPerRun(100, func() { sinkEstimate = an.Predict(d) })
			if allocs > 1 {
				t.Errorf("%s/%s %v: warm Predict makes %.0f allocations, want ≤ 1", c.bench, c.name, d, allocs)
			}
			allocs = testing.AllocsPerRun(100, func() { sinkCycles = an.Predict(d).Cycles })
			if allocs != 0 {
				t.Errorf("%s/%s %v: warm Predict(d).Cycles makes %.0f allocations, want 0", c.bench, c.name, d, allocs)
			}
		}
	}
}

// TestConcurrentColdPredict races the schedule memo's first fills: on
// one cold analysis, 8 goroutines predict, each from its own offset,
// pipelined and serial designs over 16 distinct sched.Resources (PE
// values outside the platform's lattice, so the DSP slots take every
// value from 16 down to 1). Every estimate must equal the memo-free
// reference bitwise, and the table must end with one entry per
// resource set. make race runs it under the race detector, where the
// table publishes entries while other goroutines read it.
func TestConcurrentColdPredict(t *testing.T) {
	an := costAnalysis(t, "hotspot", "hotspot")
	seen := map[sched.Resources]bool{}
	var designs []Design
	for pe := 1; pe <= 1024 && len(seen) < 16; pe++ {
		d := Design{WGSize: an.WGSize, WIPipeline: true, PE: pe, CU: 1, Mode: ModePipeline}
		if res := PEResources(an.Platform, d); !seen[res] {
			seen[res] = true
			serial := d
			serial.WIPipeline, serial.Mode = false, ModeBarrier
			designs = append(designs, d, serial)
		}
	}
	if len(seen) != 16 {
		t.Fatalf("found %d distinct resource sets, want 16", len(seen))
	}
	want := make([]*Estimate, len(designs))
	for i, d := range designs {
		want[i] = referencePredict(an, d, []Ablations{{}})[0]
	}
	shared := freshCopy(an)
	var done sync.WaitGroup
	for w := 0; w < 8; w++ {
		done.Add(1)
		go func(w int) {
			defer done.Done()
			for n := range designs {
				i := (n + w*len(designs)/8) % len(designs)
				if diff := estimateDiff(shared.Predict(designs[i]), want[i]); diff != "" {
					t.Errorf("goroutine %d %v: %s", w, designs[i], diff)
					return
				}
			}
		}(w)
	}
	done.Wait()
	if n := len(*shared.memo.entries.Load()); n != len(seen) {
		t.Errorf("schedule table holds %d entries for %d resource sets", n, len(seen))
	}
}

// BenchmarkPredict times one prediction of a pipelined design: warm on
// an analysis whose schedule table is filled, and fresh on a new
// Analysis literal over the same fields each iteration, which pays the
// schedule graph's build, SMS and totals the table saves. Run it on
// demand with
//
//	go test -run '^$' -bench BenchmarkPredict -benchmem ./internal/model
func BenchmarkPredict(b *testing.B) {
	for _, c := range costKernels {
		an := costAnalysis(b, c.bench, c.name)
		d := Design{WGSize: an.WGSize, WIPipeline: true, PE: 4, CU: 2, Mode: ModePipeline}
		b.Run("warm/"+c.bench+"/"+c.name, func(b *testing.B) {
			an.Predict(d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkEstimate = an.Predict(d)
			}
		})
		b.Run("fresh/"+c.bench+"/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkEstimate = freshCopy(an).Predict(d)
			}
		})
	}
}
