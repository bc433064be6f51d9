// Host-API example: the OpenCL host/kernel split of Figure 1. The host
// side compiles the program (clBuildProgram), looks the kernel up
// (clCreateKernel), binds buffers and scalars to its parameters
// (clSetKernelArg) and runs the NDRange functionally
// (clEnqueueNDRangeKernel). The same launch then answers two performance
// questions: the FlexCL analytical estimate and the cycle-level ground
// truth.
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

const src = `
__kernel void dot_chunks(__global const float* a,
                         __global const float* b,
                         __global float* partial,
                         int chunk) {
    int i = get_global_id(0);
    float acc = 0.0f;
    for (int j = 0; j < chunk; j++) {
        acc += a[i * chunk + j] * b[i * chunk + j];
    }
    partial[i] = acc;
}`

const (
	items = 1024
	chunk = 16
)

func main() {
	mod, err := irgen.Compile("dot.cl", []byte(src), nil)
	if err != nil {
		log.Fatal(err)
	}
	k := mod.Kernel("dot_chunks")
	if k == nil {
		log.Fatal("kernel dot_chunks not found")
	}
	p := device.Virtex7()

	// 1. Functional execution — exactly what clEnqueueNDRangeKernel does.
	launch := newLaunch()
	if err := interp.Run(k, launch); err != nil {
		log.Fatal(err)
	}
	partial := launch.Buffers["partial"]
	fmt.Printf("partial[0] = %.1f (want %.1f)\n", partial.F[0], float64(chunk))

	// 2. Performance questions. Profiling and simulation execute the
	// kernel, so each runs on a launch of its own.
	an, err := model.Analyze(context.Background(), k, p, newLaunch())
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range []model.Design{
		{WGSize: 64, WIPipeline: false, PE: 1, CU: 1, Mode: model.ModeBarrier},
		{WGSize: 64, WIPipeline: true, PE: 1, CU: 1, Mode: model.ModePipeline},
		{WGSize: 64, WIPipeline: true, PE: 4, CU: 2, Mode: model.ModePipeline},
	} {
		est := an.Predict(d)
		sim, err := rtlsim.Simulate(k, p, newLaunch(), d, rtlsim.Options{MaxGroups: 8})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-36s est %8.0f cy  sim %8.0f cy\n", d, est.Cycles, sim.Cycles)
	}

	fmt.Printf("partial[0] untouched by estimation: %.1f\n", partial.F[0])
}

// newLaunch binds fresh buffers and the chunk scalar to the kernel's
// parameters, over items work-items in groups of 64.
func newLaunch() *interp.Config {
	a := interp.NewFloatBuffer(ast.KFloat, items*chunk)
	b := interp.NewFloatBuffer(ast.KFloat, items*chunk)
	for i := range a.F {
		a.F[i] = 0.5
		b.F[i] = 2.0
	}
	return &interp.Config{
		Range: interp.NDRange{Global: [3]int64{items}, Local: [3]int64{64}},
		Buffers: map[string]*interp.Buffer{
			"a": a, "b": b, "partial": interp.NewFloatBuffer(ast.KFloat, items),
		},
		Scalars: map[string]interp.Val{"chunk": interp.IntVal(chunk)},
	}
}
