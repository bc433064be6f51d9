package dse_test

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/dse"
)

// BenchmarkSearchVsExplore compares guided branch-and-bound search with
// model-only exhaustive exploration on a shared pre-warmed prep cache,
// so the delta is pure evaluation work: per kernel on nn, hotspot and
// gemm, and over every bundled kernel (corpus, one op explores or
// searches them all). Run it on demand with
//
//	go test -run '^$' -bench BenchmarkSearchVsExplore ./internal/dse
func BenchmarkSearchVsExplore(b *testing.B) {
	arms := []struct {
		name    string
		kernels []*bench.Kernel
	}{
		{"nn/nn", []*bench.Kernel{bench.Find("nn", "nn")}},
		{"hotspot/hotspot", []*bench.Kernel{bench.Find("hotspot", "hotspot")}},
		{"gemm/gemm", []*bench.Kernel{bench.Find("gemm", "gemm")}},
		{"corpus", bench.All()},
	}
	cache := dse.NewPrepCache()
	ctx := context.Background()
	for _, arm := range arms {
		for _, k := range arm.kernels {
			if k == nil {
				b.Fatal("benchmark kernel missing")
			}
			// Warm compile+analyze once; both arms then pay only prediction.
			if _, err := dse.Search(ctx, k, dse.SearchOptions{Cache: cache}); err != nil {
				b.Fatal(err)
			}
		}
		b.Run("explore/"+arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				evals := 0
				for _, k := range arm.kernels {
					r, err := dse.Explore(ctx, k, dse.Options{
						SkipActual: true, SkipBaseline: true, Cache: cache,
					})
					if err != nil {
						b.Fatal(err)
					}
					evals += len(r.Points)
				}
				b.ReportMetric(float64(evals), "evals")
			}
		})
		b.Run("search/"+arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				evals, pruned := 0, 0
				for _, k := range arm.kernels {
					r, err := dse.Search(ctx, k, dse.SearchOptions{Cache: cache})
					if err != nil {
						b.Fatal(err)
					}
					evals += r.Evaluated
					pruned += r.Pruned
				}
				b.ReportMetric(float64(evals), "evals")
				b.ReportMetric(float64(pruned), "pruned")
			}
		})
	}
}
