package interp_test

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irgen"
)

// fuzzConfig synthesizes a small launch for an arbitrary compiled
// kernel: every pointer parameter gets a buffer, every scalar a small
// positive value, so fuzz inputs fail on the kernel's own behavior, not
// on missing arguments. Index-typed buffers are filled modulo the
// length so mutated gathers usually stay in bounds.
func isStepLimit(err error) bool {
	return err != nil && strings.Contains(err.Error(), "exceeded")
}

func fuzzConfig(f *ir.Func) *interp.Config {
	const n = 128
	cfg := &interp.Config{
		Range:   interp.NDRange{Global: [3]int64{32}, Local: [3]int64{16}},
		Buffers: make(map[string]*interp.Buffer),
		Scalars: make(map[string]interp.Val),
	}
	for _, prm := range f.Params {
		if !prm.T.Ptr {
			cfg.Scalars[prm.PName] = interp.IntVal(8)
			continue
		}
		e := prm.Elem()
		if e.Base.IsFloat() {
			b := interp.NewFloatBuffer(e.Base, n)
			for i := range b.F {
				b.F[i] = float64(i%13) * 0.25
			}
			cfg.Buffers[prm.PName] = b
		} else {
			b := interp.NewIntBuffer(e.Base, n)
			for i := range b.I {
				b.I[i] = int64(i % n)
			}
			cfg.Buffers[prm.PName] = b
		}
	}
	return cfg
}

// FuzzAffineAnalyzer feeds arbitrary OpenCL sources — seeded with every
// bundled benchmark and every generator family — through the static
// analyzer and both profiler paths. Invariants, for each kernel that
// compiles: nothing panics; and whenever the analyzer claims a kernel,
// the static profile must agree with the interpreter's bitwise or fail
// exactly where the interpreter fails. The analyzer declining is always
// acceptable; silently diverging never is.
func FuzzAffineAnalyzer(f *testing.F) {
	for _, k := range bench.All() {
		f.Add(k.Source)
	}
	for _, k := range bench.GeneratedCorpus() {
		f.Add(k.Source)
	}
	f.Add(`__kernel void k(__global float* x) { x[get_global_id(0)] = 1.0f; }`)
	f.Add(`__kernel void k(__global int* x) { for (int i = 0; i < 4; i++) { x[i] = i; } }`)
	f.Add(`__kernel void k(__global int* x) { while (x[0] < 3) { x[0]++; } }`)

	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return // pathological inputs belong to the frontend fuzzers
		}
		m, err := irgen.Compile("fuzz.cl", []byte(src), map[string]string{"WG": "16"})
		if err != nil {
			return // frontend rejections are the parser fuzzers' domain
		}
		// Keep runaway mutated loops cheap: profiling a fuzz kernel
		// never needs more than a few thousand steps to compare paths.
		restore := interp.SetProfileStepLimitForTest(1 << 14)
		defer restore()
		for _, kf := range m.Kernels {
			ok, reason := interp.StaticAnalyzable(kf)
			if !ok && reason == "" {
				t.Errorf("%s: declined without a reason", kf.Name)
			}
			cfg := fuzzConfig(kf)
			sp, sok, serr := interp.StaticProfile(kf, cfg, 2, false)
			if sok != ok {
				t.Errorf("%s: Analyzable=%v but StaticProfile ok=%v", kf.Name, ok, sok)
			}
			ip, ierr := interp.InterpProfile(kf, fuzzConfig(kf), 2, false)
			if !sok {
				continue // interpreter-only kernel: reaching here without a panic is the invariant
			}
			// The runaway-step guard counts in different granularity on
			// the two paths (per block entry vs per instruction), so a
			// kernel at the limit's edge may legitimately trip only one
			// of them: step-limit faults are exempt from exact matching.
			if isStepLimit(serr) || isStepLimit(ierr) {
				continue
			}
			switch {
			case serr == nil && ierr == nil:
				if d := sp.Diff(ip); d != "" {
					t.Errorf("%s: static != interp: %s\nsource:\n%s", kf.Name, d, src)
				}
			case serr == nil && ierr != nil:
				t.Errorf("%s: static succeeded where interp failed (%v)\nsource:\n%s", kf.Name, ierr, src)
			case serr != nil && ierr == nil:
				// The dispatcher recovers by falling back, but an exact
				// executor should not fault more often than the
				// interpreter on the same launch.
				t.Errorf("%s: static failed (%v) where interp succeeded\nsource:\n%s", kf.Name, serr, src)
			default:
				if serr.Error() != ierr.Error() {
					t.Errorf("%s: error mismatch: static %q, interp %q", kf.Name, serr, ierr)
				}
			}
		}
	})
}
