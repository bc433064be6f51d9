package dse_test

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/dse"
)

// BenchmarkSearchVsExplore compares guided branch-and-bound search with
// model-only exhaustive exploration on a shared pre-warmed prep cache,
// so the delta is pure evaluation work. Run it on demand with
//
//	go test -run '^$' -bench BenchmarkSearchVsExplore ./internal/dse
func BenchmarkSearchVsExplore(b *testing.B) {
	kernels := []*bench.Kernel{
		bench.Find("nn", "nn"),
		bench.Find("hotspot", "hotspot"),
		bench.Find("gemm", "gemm"),
	}
	cache := dse.NewPrepCache()
	ctx := context.Background()
	for _, k := range kernels {
		if k == nil {
			b.Fatal("benchmark kernel missing")
		}
		// Warm compile+analyze once; both arms then pay only prediction.
		if _, err := dse.Search(ctx, k, dse.SearchOptions{Cache: cache}); err != nil {
			b.Fatal(err)
		}
		b.Run("explore/"+k.ID(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := dse.Explore(ctx, k, dse.Options{
					SkipActual: true, SkipBaseline: true, Cache: cache,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(r.Points)), "evals")
			}
		})
		b.Run("search/"+k.ID(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := dse.Search(ctx, k, dse.SearchOptions{Cache: cache})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(r.Evaluated), "evals")
				b.ReportMetric(float64(r.Pruned), "pruned")
			}
		})
	}
}
