package model_test

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/model"
	"repro/internal/trace"
)

// TestAnalyzeStreamMatchesMaterialized pins the streamed memory trace:
// for every bundled and generated kernel at every work-group size,
// Analyze, which classifies each profiled group as the profiler
// finishes it, yields bitwise the classification ClassifyGrouped
// computes from ProfileKernel's materialized traces, and the trip
// counts, barriers and work-item count behind the two agree. Both
// profiler paths must be among the cases.
func TestAnalyzeStreamMatchesMaterialized(t *testing.T) {
	const groups = 8
	p := device.Virtex7()
	var mu sync.Mutex
	sources := map[interp.Source]int{}
	t.Run("corpus", func(t *testing.T) {
		for _, k := range append(bench.All(), bench.GeneratedCorpus()...) {
			k := k
			t.Run(k.ID(), func(t *testing.T) {
				t.Parallel()
				for _, wg := range k.WGSizes() {
					f, err := k.Compile(wg)
					if err != nil {
						t.Fatalf("wg %d: compile: %v", wg, err)
					}
					// Fresh Config per run: the interpreter mutates buffers.
					an, err := model.Analyze(context.Background(), f, p, k.Config(wg),
						model.AnalysisOptions{ProfileGroups: groups})
					if err != nil {
						t.Fatalf("wg %d: analyze: %v", wg, err)
					}
					cfg := k.Config(wg)
					prof, err := interp.ProfileKernel(f, cfg, groups)
					if err != nil {
						t.Fatalf("wg %d: profile: %v", wg, err)
					}
					mu.Lock()
					sources[prof.Source]++
					mu.Unlock()

					l := trace.NewLayout(f, trace.BufferCounts(f, cfg), p.DRAM)
					mem := trace.ClassifyGrouped(prof.Traces, cfg.Range.Normalize().WorkGroupSize(),
						l, p.DRAM, p.MemAccessUnitBits/8)
					if d := an.Mem.Diff(mem); d != "" {
						t.Errorf("wg %d (%s): Mem streamed != materialized: %s", wg, prof.Source, d)
					}
					streamed := &interp.Profile{BlockCounts: an.Freq, Barriers: an.Barriers, WorkItems: an.Mem.WorkItems}
					kept := &interp.Profile{BlockCounts: prof.BlockCounts, Barriers: prof.Barriers, WorkItems: prof.WorkItems}
					if d := streamed.Diff(kept); d != "" {
						t.Errorf("wg %d (%s): profile streamed != materialized: %s", wg, prof.Source, d)
					}
				}
			})
		}
	})
	t.Logf("profile paths: %v", sources)
	for _, src := range []interp.Source{interp.SourceStatic, interp.SourceInterp} {
		if sources[src] == 0 {
			t.Errorf("no case took the %s path", src)
		}
	}
}

// TestAnalyzeAllocsIndependentOfProfiledGroups guards the streamed
// trace: Analyze holds one work-group's traces at a time, so profiling
// more groups must not grow what it allocates the way materialized
// traces did. gemm at WG 256 launches 16 groups, so ProfileGroups 32
// profiles twice the groups of 8 (materialized: 40 MB, then 80 MB).
func TestAnalyzeAllocsIndependentOfProfiledGroups(t *testing.T) {
	const wg = 256
	k := bench.FindID("gemm/gemm")
	if k == nil {
		t.Fatal("gemm/gemm not bundled")
	}
	if n := k.Config(wg).Range.Normalize().TotalGroups(); n <= 8 {
		t.Fatalf("gemm at WG %d launches %d groups, want more than 8", wg, n)
	}
	f, err := k.Compile(wg)
	if err != nil {
		t.Fatal(err)
	}
	p := device.Virtex7()
	analyze := func(groups int) uint64 {
		cfg := k.Config(wg)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := model.Analyze(context.Background(), f, p, cfg, model.AnalysisOptions{ProfileGroups: groups})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	analyze(8) // the first analysis also builds f's static plan
	at8, at32 := analyze(8), analyze(32)
	t.Logf("Analyze allocates %.2f MB at 8 groups, %.2f MB at 32", float64(at8)/1e6, float64(at32)/1e6)
	if float64(at32) > 1.25*float64(at8) {
		t.Errorf("Analyze allocates %d bytes at 32 groups, more than 1.25 × %d at 8", at32, at8)
	}
}
