// Command flexcl estimates the performance of an OpenCL kernel on an
// FPGA platform at one design point, printing the full model breakdown —
// the FlexCL flow of Figure 2 as a CLI.
//
// Usage:
//
//	flexcl -file kernel.cl [-kernel name] [-platform virtex7|ku060]
//	       [-global 4096] [-wg 64] [-pipeline] [-pe 4] [-cu 2]
//	       [-mode barrier|pipeline] [-arg name=value]...
//
// The design must be one the platform can build: -pe in [1, MaxPE] and
// -cu in [1, MaxCU] of the platform, -pe above 1 only with -pipeline,
// and -wg at least 1. Anything else exits 1 before any analysis.
//
// Pointer arguments are bound to synthetic buffers sized from -global;
// scalar arguments default to the global size and can be set explicitly
// with -arg (a float parameter takes the value as a float).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/model"
	"repro/internal/rtlsim"
	"repro/internal/telemetry"
)

type argList map[string]int64

func (a argList) String() string { return fmt.Sprint(map[string]int64(a)) }

func (a argList) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("bad -arg %q (want name=value)", s)
	}
	v, err := strconv.ParseInt(val, 0, 64)
	if err != nil {
		return err
	}
	a[name] = v
	return nil
}

func main() {
	var (
		file     = flag.String("file", "", "OpenCL source file (required)")
		kernel   = flag.String("kernel", "", "kernel name (default: first kernel)")
		platform = flag.String("platform", "virtex7", "target platform: virtex7 or ku060")
		global   = flag.Int64("global", 4096, "global work size (1D)")
		wg       = flag.Int64("wg", 64, "work-group size")
		pipeline = flag.Bool("pipeline", true, "enable work-item pipelining")
		pe       = flag.Int("pe", 1, "PE parallelism per compute unit")
		cu       = flag.Int("cu", 1, "compute units")
		mode     = flag.String("mode", "pipeline", "communication mode: barrier or pipeline")
		simulate = flag.Bool("sim", false, "also run the cycle-level simulator for comparison")
		trace    = flag.Bool("trace", false, "print a per-stage timing table of the pipeline after the prediction")
	)
	args := argList{}
	flag.Var(args, "arg", "scalar kernel argument name=value (repeatable)")
	flag.Parse()

	if *file == "" {
		flag.Usage()
		os.Exit(2)
	}
	p, ok := device.Lookup(*platform)
	if !ok {
		fatal(fmt.Errorf("unknown platform %q", *platform))
	}
	if *wg < 1 {
		fatal(fmt.Errorf("wg %d must be at least 1", *wg))
	}
	d := model.Design{WGSize: *wg, WIPipeline: *pipeline, PE: *pe, CU: *cu}
	switch *mode {
	case "barrier":
		d.Mode = model.ModeBarrier
	case "pipeline":
		d.Mode = model.ModePipeline
	default:
		fatal(fmt.Errorf("mode %q must be \"barrier\" or \"pipeline\"", *mode))
	}
	fatal(model.ValidateDesign(p, d))

	src, err := os.ReadFile(*file)
	fatal(err)

	// With -trace the whole run becomes one trace: the same spans the
	// service records (compile, profile, memtrace, model, …) are printed
	// as a per-stage table once the prediction is done.
	ctx := context.Background()
	var tr *telemetry.Tracer
	var root *telemetry.Span
	if *trace {
		tr = telemetry.New(telemetry.Options{Capacity: 8})
		ctx, root = tr.StartTrace(ctx, "cli", "flexcl "+*file)
	}

	_, csp := telemetry.Start(ctx, "compile")
	mod, err := irgen.Compile(*file, src, map[string]string{"WG": fmt.Sprint(*wg)})
	csp.End()
	fatal(err)
	if len(mod.Kernels) == 0 {
		fatal(fmt.Errorf("no __kernel functions in %s", *file))
	}
	f := mod.Kernels[0]
	if *kernel != "" {
		if f = mod.Kernel(*kernel); f == nil {
			fatal(fmt.Errorf("kernel %s not found", *kernel))
		}
	}

	launch := makeLaunch(f, *global, *wg, args)
	an, err := model.Analyze(ctx, f, p, launch)
	fatal(err)

	_, msp := telemetry.Start(ctx, "model")
	est := an.Predict(d)
	msp.End()

	fmt.Printf("kernel      %s (%s)\n", f.Name, p.Name)
	fmt.Printf("design      %v (effective mode: %v)\n", d, est.Mode)
	fmt.Printf("II_comp^wi  %d   (RecMII %d, ResMII %d)\n", est.IIComp, est.RecMII, est.ResMII)
	fmt.Printf("D_comp^PE   %d cycles\n", est.Depth)
	fmt.Printf("N_PE        %d   N_CU %d\n", est.NPE, est.NCU)
	fmt.Printf("L_mem^wi    %.2f cycles\n", est.LMemWI)
	fmt.Printf("L_comp^CU   %.0f cycles\n", est.LCompCU)
	fmt.Printf("T_kernel    %.0f cycles = %.3f ms @ %.0f MHz\n",
		est.Cycles, est.Seconds*1e3, p.ClockMHz)

	res := an.ResourceUsage(d)
	feas := "fits"
	if !res.Feasible {
		feas = "DOES NOT FIT"
	}
	fmt.Printf("resources   %d DSP slices, %d Kb BRAM (%s on %s)\n",
		res.DSPs, res.BRAMKb, feas, p.Name)

	diag := an.Diagnose(est)
	fmt.Printf("bottleneck  %v\n", diag.Bottleneck)
	for _, h := range diag.Hints {
		fmt.Printf("  hint: %s\n", h)
	}

	if *simulate {
		launch2 := makeLaunch(f, *global, *wg, args)
		_, ssp := telemetry.Start(ctx, "simulate")
		sim, err := rtlsim.Simulate(f, p, launch2, d, rtlsim.Options{MaxGroups: 8})
		ssp.End()
		fatal(err)
		errPct := 0.0
		if sim.Cycles > 0 {
			errPct = (est.Cycles - sim.Cycles) / sim.Cycles * 100
		}
		fmt.Printf("simulated   %.0f cycles (model error %+.1f%%)\n", sim.Cycles, errPct)
	}

	if root != nil {
		root.End()
		if v, ok := tr.Get("cli"); ok {
			fmt.Println()
			v.WriteTable(os.Stdout)
		}
	}
}

// makeLaunch synthesizes buffers and scalars for an arbitrary kernel:
// pointer parameters get deterministic pseudo-noise buffers sized from
// the global work size; scalars default to the problem size, bound by
// their declared type.
func makeLaunch(f *ir.Func, global, wg int64, args argList) *interp.Config {
	launch := &interp.Config{
		Range:   interp.NDRange{Global: [3]int64{global}, Local: [3]int64{wg}},
		Buffers: map[string]*interp.Buffer{},
		Scalars: map[string]interp.Val{},
	}
	for _, prm := range f.Params {
		if prm.T.Ptr {
			elem := prm.T.Elem()
			n := int(global) * 16 * elem.Lanes()
			if elem.Base.IsFloat() {
				b := interp.NewFloatBuffer(elem.Base, n)
				for i := range b.F {
					h := uint64(i) * 0x9e3779b97f4a7c15
					b.F[i] = float64(h%1000) / 1000
				}
				launch.Buffers[prm.PName] = b
			} else {
				b := interp.NewIntBuffer(elem.Base, n)
				for i := range b.I {
					b.I[i] = int64(i % 97)
				}
				launch.Buffers[prm.PName] = b
			}
			continue
		}
		v, ok := args[prm.PName]
		if !ok {
			v = global // scalars default to the problem size
		}
		if prm.T.Base.IsFloat() {
			launch.Scalars[prm.PName] = interp.FloatVal(float64(v))
		} else {
			launch.Scalars[prm.PName] = interp.IntVal(v)
		}
	}
	return launch
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexcl:", err)
		os.Exit(1)
	}
}
