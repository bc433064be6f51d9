// Hotspot design-space exploration: the motivating use case of the paper
// (§1, §4.3). Synthesizing one OpenCL-to-FPGA design takes hours; FlexCL
// ranks the ~150-point design space of the Rodinia hotspot kernel in
// well under a second, and the example then validates the top picks
// against the cycle-level simulator.
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/model"
	"repro/internal/rtlsim"
)

func main() {
	k := bench.Find("hotspot", "hotspot")
	if k == nil {
		log.Fatal("hotspot kernel not registered")
	}
	platform := device.Virtex7()

	// Phase 1: model-only exploration (this is what replaces hours of
	// synthesis per design point), sharded over every core. Workers: 1
	// would produce the identical ranking, just serially.
	modelOnly, err := dse.Explore(context.Background(), k, dse.Options{
		Platform:   platform,
		SkipActual: true, SkipBaseline: true,
		Workers: runtime.GOMAXPROCS(0),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ranked %d designs analytically in %v (%d workers, %v of model work)\n\n",
		len(modelOnly.Points), modelOnly.WallTime.Round(time.Millisecond),
		runtime.GOMAXPROCS(0), modelOnly.ModelTime.Round(time.Millisecond))

	pts := modelOnly.Points
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].Est < pts[j].Est })

	// Phase 2: validate the 5 best and 2 worst picks in the simulator.
	fmt.Println("design                               estimate     simulated")
	check := append(append([]int{}, 0, 1, 2, 3, 4), len(pts)-2, len(pts)-1)
	for _, idx := range check {
		pt := pts[idx]
		f, err := k.Compile(pt.Design.WGSize)
		if err != nil {
			log.Fatal(err)
		}
		sim, err := rtlsim.Simulate(f, platform, k.Config(pt.Design.WGSize), pt.Design, rtlsim.Options{MaxGroups: 8})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-36s %9.0f cy %9.0f cy\n", pt.Design, pt.Est, sim.Cycles)
	}

	best := pts[0]
	worst := pts[len(pts)-1]
	fmt.Printf("\nbest/worst estimated ratio: %.0fx — the design space matters\n",
		worst.Est/best.Est)
	fmt.Printf("hotspot contains a barrier, so every design runs in %v mode\n",
		model.ModeBarrier)
}
