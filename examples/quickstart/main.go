// Quickstart: compile a small OpenCL kernel, analyze it for the Virtex-7
// platform, and compare the FlexCL analytical estimate against the
// cycle-level simulator at a few design points — the whole FlexCL flow
// (Figure 2 of the paper) in ~60 lines.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/irgen"
	"repro/internal/model"
	"repro/internal/opencl/ast"
	"repro/internal/rtlsim"
)

const saxpy = `
__kernel void saxpy(__global const float* x, __global float* y, int n) {
    int i = get_global_id(0);
    if (i < n) {
        y[i] = 2.5f * x[i] + y[i];
    }
}`

func main() {
	mod, err := irgen.Compile("saxpy.cl", []byte(saxpy), nil)
	if err != nil {
		log.Fatal(err)
	}
	k := mod.Kernel("saxpy")
	platform := device.Virtex7()

	const n = 4096
	makeLaunch := func(wg int64) *interp.Config {
		x := interp.NewFloatBuffer(ast.KFloat, n)
		y := interp.NewFloatBuffer(ast.KFloat, n)
		for i := 0; i < n; i++ {
			x.F[i] = float64(i) * 0.25
			y.F[i] = 1.0
		}
		return &interp.Config{
			Range:   interp.NDRange{Global: [3]int64{n}, Local: [3]int64{wg}},
			Buffers: map[string]*interp.Buffer{"x": x, "y": y},
			Scalars: map[string]interp.Val{"n": interp.IntVal(n)},
		}
	}

	designs := []model.Design{
		{WGSize: 64, WIPipeline: false, PE: 1, CU: 1, Mode: model.ModeBarrier},
		{WGSize: 64, WIPipeline: true, PE: 1, CU: 1, Mode: model.ModeBarrier},
		{WGSize: 64, WIPipeline: true, PE: 4, CU: 2, Mode: model.ModePipeline},
		{WGSize: 256, WIPipeline: true, PE: 8, CU: 4, Mode: model.ModePipeline},
	}

	fmt.Println("design                               estimate     simulated    error")
	for _, d := range designs {
		an, err := model.Analyze(context.Background(), k, platform, makeLaunch(d.WGSize))
		if err != nil {
			log.Fatal(err)
		}
		est := an.Predict(d)
		sim, err := rtlsim.Simulate(k, platform, makeLaunch(d.WGSize), d, rtlsim.Options{})
		if err != nil {
			log.Fatal(err)
		}
		errPct := (est.Cycles - sim.Cycles) / sim.Cycles * 100
		fmt.Printf("%-36s %9.0f cy %9.0f cy %+6.1f%%\n",
			d, est.Cycles, sim.Cycles, errPct)
	}

	// The estimate also converts to wall time on the platform clock.
	an, _ := model.Analyze(context.Background(), k, platform, makeLaunch(64))
	best := an.Predict(designs[2])
	fmt.Printf("\nbest shown design runs in ~%.1f µs at %.0f MHz\n",
		best.Seconds*1e6, platform.ClockMHz)
}
