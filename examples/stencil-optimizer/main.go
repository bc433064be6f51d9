// Stencil optimizer: §2.2's claim that FlexCL "can also be used to guide
// performance optimization for complex applications, such as iterative
// stencil algorithms [17]". Two implementations of the same Jacobi
// relaxation step — a naive one re-reading global memory, and a
// restructured one staging the tile in local memory — are ranked with
// the analytical model across their design spaces, and the bottleneck
// diagnosis shows *why* the restructuring is the one the model's own
// hints suggest.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/model"
	"repro/internal/rtlsim"
)

// The naive variant makes the classic mistake: it stores the grid
// column-major relative to the work-item order, so consecutive
// work-items touch addresses a whole column apart and nothing coalesces.
const naive = `
__kernel void jacobi(__global const float* in, __global float* out, int w, int h) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    if (x > 0 && x < w - 1 && y > 0 && y < h - 1) {
        out[x * h + y] = 0.25f * (in[x * h + y - 1] + in[x * h + y + 1]
                                + in[(x - 1) * h + y] + in[(x + 1) * h + y]);
    }
}`

const tiled = `
__kernel void jacobi(__global const float* in, __global float* out, int w, int h) {
    __local float t[WG];
    int x = get_global_id(0);
    int y = get_global_id(1);
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int lw = get_local_size(0);
    int lh = get_local_size(1);
    int lidx = ly * lw + lx;
    if (x < w && y < h) { t[lidx] = in[y * w + x]; }
    barrier(CLK_LOCAL_MEM_FENCE);
    if (x > 0 && x < w - 1 && y > 0 && y < h - 1) {
        float lf;
        float rt;
        float up;
        float dn;
        if (lx > 0) { lf = t[lidx - 1]; } else { lf = in[y * w + x - 1]; }
        if (lx < lw - 1) { rt = t[lidx + 1]; } else { rt = in[y * w + x + 1]; }
        if (ly > 0) { up = t[lidx - lw]; } else { up = in[(y - 1) * w + x]; }
        if (ly < lh - 1) { dn = t[lidx + lw]; } else { dn = in[(y + 1) * w + x]; }
        out[y * w + x] = 0.25f * (lf + rt + up + dn);
    }
}`

const dim = 64

func main() {
	variants := []struct{ name, src string }{{"naive", naive}, {"tiled-local", tiled}}
	results := map[string]float64{}
	platform := device.Virtex7()

	for _, v := range variants {
		w := &bench.Kernel{
			Suite: "example", Bench: "stencil", Name: v.name, Fn: "jacobi",
			Source: v.src, TwoD: true,
			Global: [3]int64{dim, dim},
			MinWG:  16, MaxWG: 256,
			Scalars: map[string]int64{"w": dim, "h": dim},
		}
		w.Bufs = append(w.Bufs,
			bench.Buf{Name: "in", Float: true, Len: dim * dim, Fill: bench.FillNoise},
			bench.Buf{Name: "out", Float: true, Len: dim * dim},
		)

		// Rank the whole design space analytically, then validate the
		// winner in the simulator.
		r, err := dse.Explore(context.Background(), w, dse.Options{
			Platform: platform, SkipActual: true, SkipBaseline: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		pts := r.Points
		sort.SliceStable(pts, func(i, j int) bool { return pts[i].Est < pts[j].Est })
		best := pts[0]

		f, err := w.Compile(best.Design.WGSize)
		if err != nil {
			log.Fatal(err)
		}
		an, err := model.Analyze(context.Background(), f, platform, w.Config(best.Design.WGSize))
		if err != nil {
			log.Fatal(err)
		}
		est := an.Predict(best.Design)
		f2, _ := w.Compile(best.Design.WGSize)
		sim, err := rtlsim.Simulate(f2, platform, w.Config(best.Design.WGSize), best.Design, rtlsim.Options{MaxGroups: 8})
		if err != nil {
			log.Fatal(err)
		}
		results[v.name] = sim.Cycles

		diag := an.Diagnose(est)
		fmt.Printf("%-12s best design %v\n", v.name, best.Design)
		fmt.Printf("             est %.0f cy, sim %.0f cy, bottleneck: %v\n",
			est.Cycles, sim.Cycles, diag.Bottleneck)
		for _, h := range diag.Hints {
			fmt.Printf("             hint: %s\n", h)
		}
		fmt.Println()
	}

	fmt.Printf("restructuring speedup (naive/tiled): %.2fx\n",
		results["naive"]/results["tiled-local"])
}
