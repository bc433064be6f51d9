package interp_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/opencl/ast"
)

// limitKernels are two kernels of one signature: the static executor
// profiles the first, and the analyzer declines the second, whose
// branch reads a buffer it writes, so the interpreter profiles it.
var limitKernels = map[string]string{
	"static": `__kernel void k(__global const float* a, __global float* out) {
    int i = get_global_id(0);
    out[i] = a[i];
}`,
	"interp": `__kernel void k(__global const float* a, __global float* out) {
    int i = get_global_id(0);
    out[i] = a[i];
    if (out[i] > 1.0f) { out[i] = 1.0f; }
}`,
}

// limitLaunch compiles the kernel of limitKernels[path] and binds it to
// 64 work-items in groups of 16, with a of aLen elements.
func limitLaunch(t *testing.T, path string, aLen int) (*ir.Func, *interp.Config) {
	t.Helper()
	k := &bench.Kernel{Bench: "limits", Name: path, Fn: "k", Source: limitKernels[path]}
	f, err := k.Compile(16)
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := interp.StaticAnalyzable(f); ok != (path == "static") {
		t.Fatalf("%s kernel: statically analyzable %v (%s)", path, ok, reason)
	}
	return f, &interp.Config{
		Range: interp.NDRange{Global: [3]int64{64}, Local: [3]int64{16}},
		Buffers: map[string]*interp.Buffer{
			"a":   interp.NewFloatBuffer(ast.KFloat, aLen),
			"out": interp.NewFloatBuffer(ast.KFloat, 64),
		},
		Scalars: map[string]interp.Val{},
	}
}

// profileAll profiles f on cfg through every entry point that takes a
// launch: ProfileStream, and ProfileSweep when the static executor can.
// It returns each one's error and counts the groups their sinks saw.
func profileAll(f *ir.Func, cfg *interp.Config, static bool) (errs map[string]error, groups int) {
	sink := func(int, [][]interp.Access) { groups++ }
	errs = map[string]error{}
	_, errs["ProfileStream"] = interp.ProfileStream(f, cfg, 8, sink)
	if static {
		_, errs["ProfileSweep"] = interp.ProfileSweep(f, cfg, [][3]int64{{16, 1, 1}, {8, 1, 1}}, 8, 2, []interp.GroupSink{sink, sink})
	}
	return errs, groups
}

// TestLaunchLimits pins the two limits that keep every trace record in
// an 8-byte Access: a buffer longer than interp.MaxBufferLen elements
// and a function of more than interp.MaxParams parameters are rejected,
// with an error that names the limit, before anything executes, on both
// executors and in a shared sweep; a launch at either limit runs. The
// buffer limit is lowered to 64 so the check is reached without
// allocating 2^32 elements.
func TestLaunchLimits(t *testing.T) {
	defer interp.SetBufferLimitForTest(64)()
	for _, path := range []string{"static", "interp"} {
		t.Run(path+"/buffer", func(t *testing.T) {
			f, cfg := limitLaunch(t, path, 65)
			errs, groups := profileAll(f, cfg, path == "static")
			for entry, err := range errs {
				if err == nil || !strings.Contains(err.Error(), "65 elements, more than the 64") {
					t.Errorf("%s: error %v, want the buffer limit", entry, err)
				}
			}
			if groups != 0 {
				t.Errorf("sinks saw %d groups of a rejected launch", groups)
			}
			for i, v := range cfg.Buffers["out"].F {
				if v != 0 {
					t.Fatalf("out[%d] = %v: a rejected launch wrote its buffer", i, v)
				}
			}
			f, cfg = limitLaunch(t, path, 64)
			errs, groups = profileAll(f, cfg, path == "static")
			for entry, err := range errs {
				if err != nil {
					t.Errorf("%s at the limit: %v", entry, err)
				}
			}
			if groups == 0 {
				t.Error("a launch at the buffer limit streamed no group")
			}
		})
		t.Run(path+"/params", func(t *testing.T) {
			f, cfg := limitLaunch(t, path, 64)
			padTo(f, cfg, interp.MaxParams)
			if errs, _ := profileAll(f, cfg, path == "static"); errs["ProfileStream"] != nil || errs["ProfileSweep"] != nil {
				t.Errorf("%d parameters: %v", interp.MaxParams, errs)
			}
			f, cfg = limitLaunch(t, path, 64)
			padTo(f, cfg, interp.MaxParams+1)
			errs, groups := profileAll(f, cfg, path == "static")
			want := fmt.Sprintf("%d parameters, more than the %d", interp.MaxParams+1, interp.MaxParams)
			for entry, err := range errs {
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s: error %v, want the parameter limit", entry, err)
				}
			}
			if groups != 0 {
				t.Errorf("sinks saw %d groups of a rejected launch", groups)
			}
		})
	}
}

// padTo appends unused int parameters to f, each bound in cfg, until f
// has n.
func padTo(f *ir.Func, cfg *interp.Config, n int) {
	for i := len(f.Params); i < n; i++ {
		p := &ir.Param{PName: fmt.Sprintf("pad%d", i), T: ast.Scalar(ast.KInt), Index: i}
		f.Params = append(f.Params, p)
		cfg.Scalars[p.PName] = interp.IntVal(0)
	}
}
