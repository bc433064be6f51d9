// Cross-platform robustness: the §4.2 experiment shape. The same kernel
// and design points are estimated and simulated on both the Virtex-7
// board and the KU060 UltraScale board; the model tracks the ground
// truth on each because every platform-specific quantity (op latencies,
// DRAM timings, scheduling overhead) is profiled, not hard-coded.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/gpumodel"
	"repro/internal/model"
	"repro/internal/rtlsim"
)

func main() {
	k := bench.Find("pathfinder", "dynproc")
	if k == nil {
		log.Fatal("pathfinder kernel not registered")
	}

	designs := []model.Design{
		{WGSize: 64, WIPipeline: true, PE: 1, CU: 1, Mode: model.ModeBarrier},
		{WGSize: 128, WIPipeline: true, PE: 2, CU: 2, Mode: model.ModeBarrier},
		{WGSize: 256, WIPipeline: true, PE: 4, CU: 4, Mode: model.ModeBarrier},
	}

	for _, p := range []*device.Platform{device.Virtex7(), device.KU060()} {
		fmt.Printf("%s (%.0f MHz, %d-bank DRAM):\n", p.Name, p.ClockMHz, p.DRAM.Banks)
		var sumErr float64
		for _, d := range designs {
			f, err := k.Compile(d.WGSize)
			if err != nil {
				log.Fatal(err)
			}
			an, err := model.Analyze(context.Background(), f, p, k.Config(d.WGSize))
			if err != nil {
				log.Fatal(err)
			}
			est := an.Predict(d)

			f2, err := k.Compile(d.WGSize)
			if err != nil {
				log.Fatal(err)
			}
			sim, err := rtlsim.Simulate(f2, p, k.Config(d.WGSize), d, rtlsim.Options{MaxGroups: 8})
			if err != nil {
				log.Fatal(err)
			}
			e := rtlsim.ErrorVs(est.Cycles, sim.Cycles)
			sumErr += e
			fmt.Printf("  %-36s est %9.0f cy  sim %9.0f cy  err %5.1f%%  (%.2f ms)\n",
				d, est.Cycles, sim.Cycles, e, est.Seconds*1e3)
		}
		fmt.Printf("  avg |err| %.1f%% — same model, different platform description\n\n",
			sumErr/float64(len(designs)))
	}

	// §1's heterogeneous comparison: the same analysis also feeds a
	// first-order GPU roofline model, ranking FPGA designs against a
	// GPU ballpark without touching either device.
	f, err := k.Compile(256)
	if err != nil {
		log.Fatal(err)
	}
	an, err := model.Analyze(context.Background(), f, device.Virtex7(), k.Config(256))
	if err != nil {
		log.Fatal(err)
	}
	best := an.Predict(designs[2])
	for _, g := range []*gpumodel.GPU{gpumodel.K20(), gpumodel.EmbeddedGPU()} {
		ge := gpumodel.Predict(an, g)
		bound := "compute"
		if ge.MemoryBound {
			bound = "memory"
		}
		fmt.Printf("GPU %-14s %.3f ms (%s-bound) vs best FPGA design %.3f ms — FPGA speedup %.2fx\n",
			g.Name, ge.Seconds*1e3, bound, best.Seconds*1e3,
			gpumodel.Compare(an, best, g))
	}
}
