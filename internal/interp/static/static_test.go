package static_test

import (
	"strings"
	"testing"

	"repro/internal/interp/static"
	"repro/internal/ir"
	"repro/internal/irgen"
)

func compile(t *testing.T, src, name string) *ir.Func {
	t.Helper()
	m, err := irgen.Compile("test.cl", []byte(src), nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	f := m.Kernel(name)
	if f == nil {
		t.Fatalf("kernel %q not found", name)
	}
	return f
}

func TestAnalyzeVecAdd(t *testing.T) {
	f := compile(t, `
__kernel void vecadd(__global float* a, __global float* b, __global float* c) {
    int i = get_global_id(0);
    c[i] = a[i] + b[i];
}`, "vecadd")
	plan, err := static.Analyze(f, static.Options{})
	if err != nil {
		t.Fatalf("vecadd should be analyzable: %v", err)
	}
	// The float add is pure data computation: it must NOT be in the
	// slice. The address (global id, converts) must be.
	for in := range plan.RegIndex {
		switch in.Op {
		case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
			t.Errorf("data computation %v leaked into the slice", in.Op)
		}
	}
	if plan.NumRegs == 0 {
		t.Error("want at least one slice register for the address")
	}
	if len(plan.SliceParams) != 0 {
		t.Errorf("no address depends on buffer contents, SliceParams = %v", plan.SliceParams)
	}
}

func TestAnalyzeCountedLoop(t *testing.T) {
	f := compile(t, `
__kernel void rowsum(__global float* a, __global float* out, int n) {
    int i = get_global_id(0);
    float s = 0.0f;
    for (int j = 0; j < 12; j++) {
        s += a[i * 12 + j];
    }
    out[i] = s;
}`, "rowsum")
	if _, err := static.Analyze(f, static.Options{}); err != nil {
		t.Fatalf("counted loop should be analyzable: %v", err)
	}
}

func TestAnalyzeScalarBoundLoop(t *testing.T) {
	// A scalar-argument bound is not a compile-time trip count, but the
	// slice still derives it at plan-execution time: analyzable.
	f := compile(t, `
__kernel void scale(__global float* a, int n) {
    int i = get_global_id(0);
    for (int j = 0; j < n; j++) {
        a[i * n + j] = a[i * n + j] * 2.0f;
    }
}`, "scale")
	if ok, reason := static.Analyzable(f, static.Options{}); !ok {
		t.Fatalf("scalar-bound loop should be analyzable, declined: %s", reason)
	}
}

func TestDeclineAddressFromWrittenBuffer(t *testing.T) {
	f := compile(t, `
__kernel void scatter(__global int* idx, __global float* out) {
    int i = get_global_id(0);
    int j = idx[i];
    idx[i] = j + 1;
    out[j] = 1.0f;
}`, "scatter")
	ok, reason := static.Analyzable(f, static.Options{})
	if ok {
		t.Fatal("address from a written buffer must decline")
	}
	if !strings.Contains(reason, "idx") || !strings.Contains(reason, "writes") {
		t.Errorf("reason = %q, want mention of written buffer idx", reason)
	}
}

func TestAnalyzeGatherFromReadOnlyBuffer(t *testing.T) {
	// Indirection through a buffer the kernel never writes is fine: the
	// launch buffers are the values every work-group observes.
	f := compile(t, `
__kernel void gather(__global int* idx, __global float* src, __global float* out) {
    int i = get_global_id(0);
    out[i] = src[idx[i]];
}`, "gather")
	plan, err := static.Analyze(f, static.Options{})
	if err != nil {
		t.Fatalf("gather via read-only index buffer should be analyzable: %v", err)
	}
	var names []string
	for p := range plan.SliceParams {
		names = append(names, p.PName)
	}
	if len(names) != 1 || names[0] != "idx" {
		t.Errorf("SliceParams = %v, want exactly [idx]", names)
	}
}

func TestDeclineAtomicResultAddressing(t *testing.T) {
	f := compile(t, `
__kernel void claim(__global int* ctr, __global float* out) {
    int slot = atomic_add(&ctr[0], 1);
    out[slot] = 1.0f;
}`, "claim")
	ok, reason := static.Analyzable(f, static.Options{})
	if ok {
		t.Fatal("atomic result feeding an address must decline")
	}
	if !strings.Contains(reason, "atomic") {
		t.Errorf("reason = %q, want mention of atomic", reason)
	}
}

func TestDeclineLocalArrayAddressing(t *testing.T) {
	f := compile(t, `
__kernel void viaLocal(__global int* src, __global float* out) {
    __local int tmp[16];
    int l = get_local_id(0);
    tmp[l] = src[l];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[tmp[15 - l]] = 1.0f;
}`, "viaLocal")
	ok, reason := static.Analyzable(f, static.Options{})
	if ok {
		t.Fatal("group-written __local contents in the slice must decline")
	}
	if !strings.Contains(reason, "__local") {
		t.Errorf("reason = %q, want mention of __local", reason)
	}
}

func TestAnalyzePrivateArrayAddressing(t *testing.T) {
	// A private array is per-work-item state: the slice models it.
	f := compile(t, `
__kernel void viaPrivate(__global float* out) {
    int t[4];
    for (int j = 0; j < 4; j++) {
        t[j] = j * 2;
    }
    int i = get_global_id(0);
    out[t[i % 4]] = 1.0f;
}`, "viaPrivate")
	plan, err := static.Analyze(f, static.Options{})
	if err != nil {
		t.Fatalf("private array addressing should be analyzable: %v", err)
	}
	if len(plan.TrackedAllocas) == 0 {
		t.Error("the private array should be tracked")
	}
}

func TestDeclineUnknownBuiltin(t *testing.T) {
	f := compile(t, `
__kernel void usesSqrt(__global float* out) {
    int i = get_global_id(0);
    out[i] = sqrt((float)i);
}`, "usesSqrt")
	// Executor claims to know nothing: every call declines.
	ok, reason := static.Analyzable(f, static.Options{
		KnownCall: func(string) bool { return false },
	})
	if ok {
		t.Fatal("unknown builtin must decline")
	}
	if !strings.Contains(reason, "sqrt") {
		t.Errorf("reason = %q, want mention of sqrt", reason)
	}
	// And with no gate it is analyzable (executor accepts all).
	if ok, reason := static.Analyzable(f, static.Options{}); !ok {
		t.Errorf("nil KnownCall should accept: %s", reason)
	}
}

func TestDeclineErrorIsTyped(t *testing.T) {
	f := compile(t, `
__kernel void claim(__global int* ctr, __global float* out) {
    int slot = atomic_add(&ctr[0], 1);
    out[slot] = 1.0f;
}`, "claim")
	_, err := static.Analyze(f, static.Options{})
	if err == nil {
		t.Fatal("want decline")
	}
	de, ok := err.(*static.DeclineError)
	if !ok {
		t.Fatalf("error type = %T, want *static.DeclineError", err)
	}
	if de.Reason == "" {
		t.Error("decline reason empty")
	}
}

func TestAnalyzeNilFunc(t *testing.T) {
	if _, err := static.Analyze(nil, static.Options{}); err == nil {
		t.Error("nil func should decline, not panic")
	}
}
