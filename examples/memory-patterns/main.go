// Memory-pattern analysis: the §3.4 global-memory model in isolation.
// Three kernels with identical computation but different access patterns
// (sequential, strided, random) are profiled; the example shows how the
// eight Table 1 patterns, the coalescing factor f, and the resulting
// per-work-item memory latency L_mem^wi diverge — and how that decides
// the barrier-vs-pipeline trade-off of Eq. 10–12.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/device"
	"repro/internal/dram"
	"repro/internal/interp"
	"repro/internal/irgen"
	"repro/internal/model"
	"repro/internal/opencl/ast"
	"repro/internal/trace"
)

const kernels = `
__kernel void seq(__global const float* in, __global float* out, int n) {
    int i = get_global_id(0);
    if (i < n) { out[i] = in[i] * 2.0f; }
}
__kernel void strided(__global const float* in, __global float* out, int n) {
    int i = get_global_id(0);
    if (i < n) { out[i] = in[(i * 64) % n] * 2.0f; }
}
__kernel void random_access(__global const float* in, __global float* out, int n) {
    int i = get_global_id(0);
    if (i < n) { out[i] = in[(i * 40503) % n] * 2.0f; }
}`

func main() {
	mod, err := irgen.Compile("patterns.cl", []byte(kernels), nil)
	if err != nil {
		log.Fatal(err)
	}
	p := device.Virtex7()
	const n, wg = 4096, 64

	fmt.Println("Table 1 pattern latencies (profiled on", p.Name+"):")
	lat := dram.ProfilePatterns(p.DRAM, 4096, device.HashString(p.Name))
	for pat := dram.Pattern(0); pat < dram.NumPatterns; pat++ {
		fmt.Printf("  ΔT %-9s %6.1f cycles\n", pat, lat.Get(pat))
	}
	fmt.Println()

	for _, name := range []string{"seq", "strided", "random_access"} {
		k := mod.Kernel(name)
		launch := makeLaunch(n, wg)
		// Each profiled work-group's traces stream into the classifier as
		// the group completes.
		layout := trace.NewLayout(k, trace.BufferCounts(k, launch), p.DRAM)
		stream := trace.NewStream(layout, p.DRAM, p.MemAccessUnitBits/8)
		if _, err := interp.ProfileStream(k, launch, 4, stream.Group); err != nil {
			log.Fatal(err)
		}
		cls := stream.Classified()

		fmt.Printf("%s:\n", name)
		fmt.Printf("  accesses/WI raw %.2f -> coalesced %.2f (f = %.1f)\n",
			cls.RawPerWI, cls.BurstsPerWI, cls.CoalescingFactor())
		var hits, misses float64
		for pat := dram.Pattern(0); pat < dram.NumPatterns; pat++ {
			if pat.Hit() {
				hits += cls.N[pat]
			} else {
				misses += cls.N[pat]
			}
		}
		fmt.Printf("  row-buffer hits/WI %.2f, misses/WI %.2f\n", hits, misses)
		fmt.Printf("  L_mem^wi = %.2f cycles (Eq. 9)\n", trace.MemLatencyWI(cls, lat))

		// How the memory behaviour decides the communication mode.
		an, err := model.Analyze(context.Background(), k, p, makeLaunch(n, wg))
		if err != nil {
			log.Fatal(err)
		}
		bar := an.Predict(model.Design{WGSize: wg, WIPipeline: true, PE: 1, CU: 1, Mode: model.ModeBarrier})
		pipe := an.Predict(model.Design{WGSize: wg, WIPipeline: true, PE: 1, CU: 1, Mode: model.ModePipeline})
		fmt.Printf("  barrier mode %.0f cycles vs pipeline mode %.0f cycles -> use %s\n\n",
			bar.Cycles, pipe.Cycles, better(bar.Cycles, pipe.Cycles))
	}
}

func better(bar, pipe float64) string {
	if pipe < bar {
		return "pipeline"
	}
	return "barrier"
}

func makeLaunch(n int, wg int64) *interp.Config {
	in := interp.NewFloatBuffer(ast.KFloat, n)
	out := interp.NewFloatBuffer(ast.KFloat, n)
	for i := 0; i < n; i++ {
		in.F[i] = float64(i%13) * 0.5
	}
	return &interp.Config{
		Range:   interp.NDRange{Global: [3]int64{int64(n)}, Local: [3]int64{wg}},
		Buffers: map[string]*interp.Buffer{"in": in, "out": out},
		Scalars: map[string]interp.Val{"n": interp.IntVal(int64(n))},
	}
}
