package interp_test

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irgen"
)

func isStepLimit(err error) bool {
	return err != nil && strings.Contains(err.Error(), "exceeded")
}

// fuzzConfig synthesizes a small launch for an arbitrary compiled
// kernel: every pointer parameter gets a buffer, every scalar a small
// positive value, so fuzz inputs fail on the kernel's own behavior, not
// on missing arguments. Index-typed buffers are filled modulo the
// length so mutated gathers usually stay in bounds.
func fuzzConfig(f *ir.Func) *interp.Config {
	const n = 128
	cfg := &interp.Config{
		Range:   interp.NDRange{Global: [3]int64{32}, Local: [3]int64{16}},
		Buffers: make(map[string]*interp.Buffer),
		Scalars: make(map[string]interp.Val),
	}
	for _, prm := range f.Params {
		if !prm.T.Ptr {
			// Bound by declared type, as every launch path binds them.
			if prm.T.Base.IsFloat() {
				cfg.Scalars[prm.PName] = interp.FloatVal(8)
			} else {
				cfg.Scalars[prm.PName] = interp.IntVal(8)
			}
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
// bundled benchmark and every generator family — through the frontend,
// the static analyzer and both profiler paths. Invariants, for each
// kernel that compiles: nothing panics; a second compile of the source
// gives the same code (ir.Func.SameCode), which shared sweep profiles
// and artifact fingerprints assume; and whenever the analyzer claims a
// kernel, the static profile must agree with the interpreter's bitwise
// or fail exactly where the interpreter fails. The analyzer declining
// is always acceptable; silently diverging never is.
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
	for _, src := range bankSeeds() {
		f.Add(src)
	}

	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return // pathological inputs belong to the frontend fuzzers
		}
		defines := map[string]string{"WG": "16"}
		m, err := irgen.Compile("fuzz.cl", []byte(src), defines)
		if err != nil {
			return // frontend rejections are the parser fuzzers' domain
		}
		again, err := irgen.Compile("fuzz.cl", []byte(src), defines)
		if err != nil || len(again.Kernels) != len(m.Kernels) {
			t.Fatalf("second compile differs: %v\nsource:\n%s", err, src)
		}
		for i, kf := range m.Kernels {
			if !kf.SameCode(again.Kernels[i]) {
				t.Errorf("%s: two compiles of one source differ\nsource:\n%s", kf.Name, src)
			}
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

// bankSeeds are kernels whose profile hangs on a value crossing between
// the static executor's register banks (integer, float, vector) or
// passing through a scalar helper that truncates, rounds or picks an
// operand: each one reaches an index or a branch, so an executor that
// gets the crossing wrong changes the trace or the trip counts. Under
// fuzzConfig, int buffers hold i%128, float buffers (i%13)*0.25 and
// scalars 8.
func bankSeeds() []string {
	seeds := []string{
		// A float scalar tested for truth directly, after a copy into a
		// private variable, and as a ?: condition.
		`__kernel void k(__global int* x, float a) {
    int i = get_global_id(0);
    if (a) { x[i] = 1; }
}`,
		`__kernel void k(__global int* x, float a) {
    int i = get_global_id(0);
    float b = a;
    while (b) { x[i] = 1; b = b - 4.0f; }
}`,
		`__kernel void k(__global int* x, float a) {
    int i = get_global_id(0);
    x[a ? i : 0] = 1;
}`,
		// Narrowing and widening casts feeding an index: a cast that
		// skipped the wrap would index out of bounds.
		`__kernel void k(__global int* x) {
    int i = get_global_id(0);
    x[((char)(i * 9) + 128) / 2] = 1;
    x[((uchar)(i * 9)) / 2] = 2;
    x[((short)(i * 3000) + 32768) / 512] = 3;
    x[((ushort)(i * 3000)) / 512] = 4;
    x[((uint)(i - 16)) >> 25] = 5;
    x[(long)(i * 2)] = 6;
}`,
		// Float to int index, with and without a wrap.
		`__kernel void k(__global int* x, __global const float* f) {
    int i = get_global_id(0);
    x[(int)(f[i] * 8.0f)] = 1;
    x[((uchar)(f[i] * 100.0f)) / 2] = 2;
}`,
		// An int-buffer value assigned to a float variable that feeds a
		// branch and a loop.
		`__kernel void k(__global int* x, __global const int* y) {
    int i = get_global_id(0);
    float v = y[i];
    if (v > 8.5f) { x[i] = 1; }
    while (v) { x[i] = 2; v = v - 1.0f; }
}`,
		// bool from an int, and double to float.
		`__kernel void k(__global int* x) {
    int i = get_global_id(0);
    bool b = i & 1;
    bool c = i & 2;
    if (b) { x[c * 64 + i] = 1; }
    double d = i * 0.1;
    float f = (float)d;
    if (f != d) { x[i] = 2; }
}`,
		// A private array read where this work-item never wrote it:
		// every work-item's cells start at zero.
		`__kernel void k(__global int* x) {
    int i = get_global_id(0);
    int a[4];
    if (i % 5 == 0) { a[i & 3] = i; }
    if (a[(i + 1) & 3]) { x[i] = 1; }
}`,
		// A private int4 array.
		`__kernel void k(__global int* x) {
    int i = get_global_id(0);
    int4 v[2];
    v[0] = (int4)(i, i + 1, i + 2, i + 3);
    v[1] = v[0] * 2;
    x[v[1].y] = 1;
    if (v[1].w > 40) { x[i] = 2; }
}`,
	}
	// Every builtin the static executor evaluates, its result tested for
	// truth and used as an index. min, max, clamp, abs and mad pick their
	// integer or float arm from the first argument's type, so they run at
	// both, and max and select also with mixed argument types.
	for _, call := range []string{
		"sqrt(v)", "native_sqrt(v)", "rsqrt(v)", "fabs(v - 2.0f)",
		"exp(v)", "native_exp(v)", "exp2(v)",
		"log(v)", "native_log(v)", "log2(v)",
		"sin(v)", "cos(v)", "tan(v)",
		"floor(v * 3.0f)", "ceil(v * 3.0f)", "round(v * 3.0f)",
		"abs(j - 16)", "abs(v - 2.0f)",
		"pow(v, 2.0f)", "fmax(v, 1.5f)", "fmin(v, 1.5f)", "fmod(v * 7.0f, 2.0f)",
		"atan2(v, 0.5f)", "hypot(v, 2.0f)",
		"max(j, 9)", "max(v, 1.5f)", "max(j, 2.5f)",
		"min(j, 9)", "min(v, 1.5f)",
		"mad(j, 2, 1)", "mad(v, 2.0f, 1.0f)", "fma(v, 2.0f, 1.0f)",
		"clamp(j, 4, 20)", "clamp(v, 0.5f, 2.0f)",
		"select(j, 7, j & 1)", "select(v, 2.5f, j & 1)", "select(j, 2.5f, j & 2)",
		"dot((float2)(v, 1.0f), (float2)(2.0f, v))",
	} {
		seeds = append(seeds, `__kernel void k(__global int* x, __global const float* f, __global const int* y) {
    int i = get_global_id(0);
    float v = f[i];
    int j = y[i];
    if (`+call+`) { x[i] = 1; }
    x[((int)(`+call+`)) & 63] = 2;
}`)
	}
	return seeds
}
