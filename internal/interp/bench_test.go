package interp_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/interp"
)

// BenchmarkProfileStaticVsInterp times both profiler paths on a few
// representative kernels (a bandwidth-bound one, a compute-heavy one,
// and a 2-D stencil) at the prep pipeline's group budget. Run it on
// demand with
//
//	go test -run '^$' -bench BenchmarkProfileStaticVsInterp ./internal/interp
func BenchmarkProfileStaticVsInterp(b *testing.B) {
	const groups = 8
	for _, id := range []string{"backprop/layer", "gemm/gemm", "hotspot/hotspot"} {
		k := bench.FindID(id)
		if k == nil {
			b.Fatalf("kernel %s not bundled", id)
		}
		f, err := k.Compile(k.MinWG)
		if err != nil {
			b.Fatal(err)
		}
		if ok, reason := interp.StaticAnalyzable(f); !ok {
			b.Fatalf("%s not statically analyzable: %s", id, reason)
		}
		b.Run(fmt.Sprintf("static/%s", id), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := interp.StaticProfile(f, k.Config(k.MinWG), groups, true); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("interp/%s", id), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := interp.InterpProfile(f, k.Config(k.MinWG), groups, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
