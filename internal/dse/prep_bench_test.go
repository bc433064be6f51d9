package dse_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/dse"
)

// BenchmarkColdPrep times cold preparation as a cold exploration pays
// for it: per op, a fresh PrepCache runs Analyses for every bundled and
// generated kernel on the default workers, so every (kernel, WG size)
// entry is compiled, profiled, classified and device-profiled. Its
// allocations are the compiles, the launch buffers and the trace
// buffers. Run it on demand with
//
//	go test -run '^$' -bench BenchmarkColdPrep ./internal/dse
func BenchmarkColdPrep(b *testing.B) {
	kernels := append(bench.All(), bench.GeneratedCorpus()...)
	p := device.Virtex7()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := dse.NewPrepCache()
		for _, k := range kernels {
			if _, err := c.Analyses(k, p); err != nil {
				b.Fatalf("%s: %v", k.ID(), err)
			}
		}
	}
}
