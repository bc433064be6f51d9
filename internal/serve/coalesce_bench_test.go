package serve

import (
	"context"
	"io"
	"log/slog"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/model"
)

// The coalescing benchmarks quantify the singleflight win: with the
// singleflight prep cache, K concurrent predictions of one kernel
// execute ONE compile+analyze; without it (the pre-coalescing service,
// emulated with per-request caches) they execute K. Run them with
//
//	go test -run '^$' -bench 'BenchmarkPredict(Coalesced|Uncoalesced)' ./internal/serve
//
// and compare the computes/op metric (K times lower coalesced, by
// construction). TestV2PredictCoalescing is the gate that asserts it.

const benchFanout = 32

func benchTarget(b *testing.B) (*bench.Kernel, *device.Platform, model.Design) {
	b.Helper()
	k := bench.Find("hotspot", "hotspot")
	if k == nil {
		b.Fatal("hotspot kernel missing")
	}
	return k, device.Virtex7(), model.Design{WGSize: 64, PE: 1, CU: 1}
}

// BenchmarkPredictCoalesced: K concurrent predictions through one
// shared singleflight prep cache (the served configuration).
func BenchmarkPredictCoalesced(b *testing.B) {
	k, p, d := benchTarget(b)
	var computes, requests uint64
	for i := 0; i < b.N; i++ {
		prep := dse.NewPrepCache()
		var wg sync.WaitGroup
		for j := 0; j < benchFanout; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := prep.AnalysisContext(context.Background(), k, p, d.WGSize)
				if err != nil {
					b.Error(err)
					return
				}
				res.An.Predict(d)
			}()
		}
		wg.Wait()
		computes += prep.Stats().Computes
		requests += benchFanout
	}
	b.ReportMetric(float64(computes)/float64(b.N), "computes/op")
	b.ReportMetric(float64(requests)/float64(b.N), "requests/op")
}

// BenchmarkPredictUncoalesced: the same K concurrent predictions, each
// with a private prep cache — every request pays its own
// compile+analyze, as the service did before the singleflight rework.
func BenchmarkPredictUncoalesced(b *testing.B) {
	k, p, d := benchTarget(b)
	var computes, requests uint64
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		var mu sync.Mutex
		for j := 0; j < benchFanout; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				prep := dse.NewPrepCache()
				res, err := prep.AnalysisContext(context.Background(), k, p, d.WGSize)
				if err != nil {
					b.Error(err)
					return
				}
				res.An.Predict(d)
				mu.Lock()
				computes += prep.Stats().Computes
				mu.Unlock()
			}()
		}
		wg.Wait()
		requests += benchFanout
	}
	b.ReportMetric(float64(computes)/float64(b.N), "computes/op")
	b.ReportMetric(float64(requests)/float64(b.N), "requests/op")
}

// BenchmarkServePredictHot measures predictCore on a prediction-cache
// hit: hashing, the cache lookup and the bookkeeping around it, without
// HTTP, decoding or encoding. BenchmarkPredictTraced measures the same
// hit through a loopback round trip.
func BenchmarkServePredictHot(b *testing.B) {
	s := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.pool.stop(ctx)
	}()
	k, p, d := benchTarget(b)
	// Warm both caches once.
	if _, err := s.predictCore(context.Background(), laneInteractive, k, p, d); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.predictCore(context.Background(), laneInteractive, k, p, d); err != nil {
			b.Fatal(err)
		}
	}
}
