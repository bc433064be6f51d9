//go:build go1.24

// runtime.AddCleanup arrived in Go 1.24 and the module's go line admits
// older toolchains, so this file builds only on 1.24 and later.
// SetFinalizer cannot stand in: the static plan points back at its
// function, and a finalizer on an object in a cycle never runs.

package interp_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/interp"
)

// TestProfiledFuncsCollectable checks that profiling a kernel does not
// keep its compiled function alive: the static plan lives on the
// function, so once callers drop the function (a server's inline kernel
// after its request, an evicted prep-cache entry) the garbage collector
// reclaims it with its plan.
func TestProfiledFuncsCollectable(t *testing.T) {
	ids := []string{"nn/nn", "hotspot/hotspot", "gemm/gemm", "pathfinder/dynproc"}
	collected := make(chan string, len(ids))
	for _, id := range ids {
		k := bench.FindID(id)
		if k == nil {
			t.Fatalf("kernel %s missing", id)
		}
		wg := k.WGSizes()[0]
		f, err := k.Compile(wg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := interp.ProfileKernel(f, k.Config(wg), 2); err != nil {
			t.Fatal(err)
		}
		if ok, reason := interp.StaticAnalyzable(f); !ok {
			t.Fatalf("%s: static plan declined (%s); the test needs a plan to hold", id, reason)
		}
		runtime.AddCleanup(f, func(id string) { collected <- id }, id)
	}
	deadline := time.After(10 * time.Second)
	for n := 0; n < len(ids); {
		runtime.GC()
		select {
		case <-collected:
			n++
		case <-time.After(10 * time.Millisecond): // the next GC cycle may free more
		case <-deadline:
			t.Fatalf("%d of %d profiled functions collected", n, len(ids))
		}
	}
}
