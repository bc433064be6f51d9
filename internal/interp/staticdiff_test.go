// Corpus-wide differential harness: for every bundled and generated
// kernel whose profile the static analyzer claims, the static profile
// must be field-for-field identical to the interpreter's. The package
// is interp_test (not interp) because the corpus lives in bench, which
// imports interp.
package interp_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/interp"
)

func corpus() []*bench.Kernel {
	return append(bench.All(), bench.GeneratedCorpus()...)
}

// TestStaticVsInterpCorpus runs each kernel at its smallest and its
// largest WG size. The largest is the size a shared sweep executes, so
// the interpreter stays the independent reference for the profiles
// every WG size of a sweep takes from that run, and for rtlsim's spread
// samples above the smallest size. Under the race detector the largest
// size runs on every sixth kernel: on all of them it adds about a
// minute.
func TestStaticVsInterpCorpus(t *testing.T) {
	const groups = 8
	for i, k := range corpus() {
		k := k
		wgs := k.WGSizes()
		sizes := wgs[:1]
		if len(wgs) > 1 && (!raceEnabled || i%6 == 0) {
			sizes = []int64{wgs[0], wgs[len(wgs)-1]}
		}
		t.Run(k.Bench+"_"+k.Name, func(t *testing.T) {
			t.Parallel()
			for _, wg := range sizes {
				f, err := k.Compile(wg)
				if err != nil {
					t.Fatalf("wg %d: compile: %v", wg, err)
				}
				if ok, _ := interp.StaticAnalyzable(f); !ok {
					continue // fallback kernels are covered by the interp tests
				}
				for _, spread := range []bool{false, true} {
					sp, sok, err := interp.StaticProfile(f, k.Config(wg), groups, spread)
					if !sok {
						t.Fatalf("wg %d: StaticAnalyzable true but StaticProfile declined", wg)
					}
					if err != nil {
						t.Fatalf("wg %d: static profile (spread=%v): %v", wg, spread, err)
					}
					// Fresh Config per run: the interpreter mutates buffers.
					ip, err := interp.InterpProfile(f, k.Config(wg), groups, spread)
					if err != nil {
						t.Fatalf("wg %d: interp profile (spread=%v): %v", wg, spread, err)
					}
					if d := sp.Diff(ip); d != "" {
						t.Fatalf("wg %d: static != interp (spread=%v): %s", wg, spread, d)
					}
				}
			}
		})
	}
}

// TestStaticCoverageFloor pins the headline analyzability claim: at
// least 40% of the PolyBench suite takes the static path.
func TestStaticCoverageFloor(t *testing.T) {
	var ok40, total int
	for _, k := range bench.Suite("polybench") {
		f, err := k.Compile(k.MinWG)
		if err != nil {
			t.Fatalf("%s: %v", k.ID(), err)
		}
		total++
		if ok, _ := interp.StaticAnalyzable(f); ok {
			ok40++
		}
	}
	if total == 0 {
		t.Fatal("no polybench kernels")
	}
	if frac := float64(ok40) / float64(total); frac < 0.40 {
		t.Errorf("polybench static coverage = %d/%d (%.0f%%), want >= 40%%", ok40, total, 100*frac)
	} else {
		t.Logf("polybench static coverage: %d/%d (%.0f%%)", ok40, total, 100*frac)
	}
}

// TestDispatcherUsesStaticPath pins that ProfileKernel actually routes
// analyzable kernels through the fast path (Source tells which).
func TestDispatcherRecordsSource(t *testing.T) {
	va, err := bench.Generate(bench.GenSpec{Family: "vecadd", N: 256})
	if err != nil {
		t.Fatal(err)
	}
	f, err := va.Compile(64)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := interp.ProfileKernel(f, va.Config(64), 4)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Source != interp.SourceStatic {
		t.Errorf("vecadd profile source = %q, want %q", prof.Source, interp.SourceStatic)
	}

	dd, err := bench.Generate(bench.GenSpec{Family: "datadep", N: 256})
	if err != nil {
		t.Fatal(err)
	}
	fd, err := dd.Compile(64)
	if err != nil {
		t.Fatal(err)
	}
	prof, err = interp.ProfileKernel(fd, dd.Config(64), 4)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Source == interp.SourceStatic {
		t.Error("datadep must not take the static path")
	}
}
