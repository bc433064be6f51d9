// Package check is the cross-layer correctness subsystem: it
// mechanically audits the FlexCL reproduction by running five families
// of checks over the benchmark corpus and reporting every violation as
// a structured finding (see docs/CHECK.md for each invariant's paper
// grounding):
//
//   - model invariants: every prediction is positive and finite with
//     sane breakdown fields; barrier-mode estimates are monotonically
//     non-increasing as PE/CU parallelism grows, except where the model
//     attributes the slowdown to a documented contention term; ablated
//     predictions respect their provable bounds.
//   - differential checks: the analytical model stays inside a
//     per-kernel error band of the cycle-level simulator, and kernel
//     analysis (dynamic profiling) is bit-deterministic across runs.
//   - serve consistency: the HTTP service returns byte-identical cycle
//     estimates for the same design through /v1/predict and
//     /v1/explore, catching cache-aliasing drift between the
//     prediction and preparation caches.
//   - search equivalence: the guided branch-and-bound search returns
//     byte-for-byte the same best design (and Pareto frontier) as the
//     exhaustive sweep while evaluating under 10 % of the space on the
//     corpus-median kernel — the proof-of-equivalence behind trusting
//     its pruning.
//   - profile equivalence: the static-analysis profiler fast path
//     yields bitwise the same Profile as the interpreter for every
//     kernel the analyzer claims (both sampling modes, errors
//     included), the memory classification streamed out of the
//     profiler equals the one computed from materialized traces, and
//     the statically analyzable fraction of PolyBench stays above its
//     floor — the proof behind letting the dispatcher skip
//     interpretation and the prep path skip the traces.
//
// The whole value of an analytical model is that its numbers can be
// trusted in place of synthesis, so silent correctness drift is the
// worst failure mode this codebase has; check exists to make such
// drift loud. cmd/flexcl-check wires it into CI.
package check

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/report"
)

// Family names.
const (
	FamilyInvariant    = "invariant"
	FamilyDifferential = "differential"
	FamilyServe        = "serve"
	// FamilySearch and FamilyProfile are declared in search.go and
	// profile.go with their equivalence contracts.
)

// Finding is one violated check: what was checked, where, and the
// expected-vs-got evidence.
type Finding struct {
	Family string // FamilyInvariant | FamilyDifferential | FamilyServe
	Check  string // machine-readable check name, e.g. "mono-pe"
	Kernel string // "bench/kernel"; empty for corpus-wide checks
	Design string // offending design, or "d1 -> d2" for pair checks
	// Expected and Got carry the falsified assertion.
	Expected string
	Got      string
	// Allowed marks findings matched by the allowlist (known model
	// limitations); Reason carries the allowlist justification.
	Allowed bool
	Reason  string
}

func (f Finding) String() string {
	s := fmt.Sprintf("[%s/%s] %s %s: expected %s, got %s",
		f.Family, f.Check, f.Kernel, f.Design, f.Expected, f.Got)
	if f.Allowed {
		s += " (allowed: " + f.Reason + ")"
	}
	return s
}

// Options tunes a check run.
type Options struct {
	// Platform is the device model everything is checked on
	// (nil = Virtex-7, the paper's board).
	Platform *device.Platform
	// Kernels restricts the corpus (nil = every bundled kernel).
	Kernels []*bench.Kernel
	// Families restricts the check families (nil = all three).
	Families []string
	// Smoke shrinks the run for CI: a deterministic subset of kernels,
	// one work-group size each, and fewer differential design points.
	Smoke bool
	// SimMaxGroups caps ground-truth simulation per differential point
	// (0 = 64; smoke runs use 8). Small samples are noisy referees for
	// kernels whose per-group work varies (e.g. triangular solvers), so
	// the default is deliberately generous.
	SimMaxGroups int
	// Workers shards kernels over goroutines (0 = GOMAXPROCS).
	Workers int
	// ErrorBandPct is the default differential model-vs-simulator error
	// band in percent (0 = 65). Per-kernel exceptions belong in the
	// allowlist, not here.
	ErrorBandPct float64
	// Allowlist marks known model limitations (nil = Default Allowlist;
	// explicit empty slice disables allowances).
	Allowlist []Allow
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
	// Cache, when non-nil, is the prep cache the model-driven families
	// share — pass a disk-backed one (dse.NewPrepCacheOpts with an
	// artifact store) so repeated audits skip the profiling cost.
	// nil uses a private in-memory cache.
	Cache *dse.PrepCache
}

func (o Options) platform() *device.Platform {
	if o.Platform != nil {
		return o.Platform
	}
	return device.Virtex7()
}

func (o Options) families() []string {
	if len(o.Families) == 0 {
		return []string{FamilyInvariant, FamilyDifferential, FamilyServe, FamilySearch, FamilyProfile}
	}
	return o.Families
}

func (o Options) simGroups() int {
	if o.SimMaxGroups > 0 {
		return o.SimMaxGroups
	}
	if o.Smoke {
		return 8
	}
	return 64
}

func (o Options) errorBand() float64 {
	if o.ErrorBandPct > 0 {
		return o.ErrorBandPct
	}
	return 65
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// kernels resolves the corpus under the smoke subsetting rule: every
// smokeStride-th kernel of the stable corpus order, so the subset stays
// deterministic and spans both suites.
func (o Options) kernels() []*bench.Kernel {
	ks := o.Kernels
	if ks == nil {
		ks = bench.All()
	}
	if !o.Smoke {
		return ks
	}
	var out []*bench.Kernel
	for i, k := range ks {
		if i%smokeStride == 0 {
			out = append(out, k)
		}
	}
	return out
}

// smokeStride picks every 6th kernel for -smoke: 10 of the 60 bundled
// kernels, spanning Rodinia and PolyBench.
const smokeStride = 6

// Report is the outcome of one check run.
type Report struct {
	// Findings holds every violation, including allowed ones.
	Findings []Finding
	// Checks counts the individual assertions evaluated.
	Checks int
	// Attributed counts barrier-mode scaling pairs whose slowdown the
	// model attributes to a documented contention term (skipped, see
	// docs/CHECK.md).
	Attributed int
	// Kernels is the number of kernels audited.
	Kernels  int
	Families []string
	Duration time.Duration
}

// Violations returns the findings not excused by the allowlist.
func (r *Report) Violations() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if !f.Allowed {
			out = append(out, f)
		}
	}
	return out
}

// Allowed returns the findings excused by the allowlist.
func (r *Report) Allowed() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Allowed {
			out = append(out, f)
		}
	}
	return out
}

// Table renders the findings in the repository's report format
// (FamilyInvariant first, then by kernel, check, design).
func (r *Report) Table() *report.Table {
	t := report.New(
		fmt.Sprintf("flexcl-check findings (%d checks, %d kernels, %v)",
			r.Checks, r.Kernels, r.Duration.Round(time.Millisecond)),
		"Family", "Check", "Kernel", "Design", "Expected", "Got", "Allowed")
	fs := append([]Finding(nil), r.Findings...)
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].Family != fs[j].Family {
			return fs[i].Family < fs[j].Family
		}
		if fs[i].Kernel != fs[j].Kernel {
			return fs[i].Kernel < fs[j].Kernel
		}
		if fs[i].Check != fs[j].Check {
			return fs[i].Check < fs[j].Check
		}
		return fs[i].Design < fs[j].Design
	})
	for _, f := range fs {
		allowed := ""
		if f.Allowed {
			allowed = "yes: " + f.Reason
		}
		t.Add(f.Family, f.Check, f.Kernel, f.Design, f.Expected, f.Got, allowed)
	}
	return t
}

// Run executes the configured check families over the corpus. The
// returned report holds every finding; a run "passes" when
// Report.Violations() is empty. The error is reserved for harness
// failures (compilation, analysis, the serve fixture) — never for
// findings.
func Run(ctx context.Context, opts Options) (*Report, error) {
	t0 := time.Now()
	allow := opts.Allowlist
	if allow == nil {
		allow = DefaultAllowlist()
	}
	kernels := opts.kernels()
	rep := &Report{Kernels: len(kernels), Families: opts.families()}

	families := map[string]bool{}
	for _, f := range opts.families() {
		families[f] = true
	}
	for f := range families {
		switch f {
		case FamilyInvariant, FamilyDifferential, FamilyServe, FamilySearch, FamilyProfile:
		default:
			return nil, fmt.Errorf("check: unknown family %q", f)
		}
	}

	// The model-driven families share one prep cache, so each
	// (kernel, WG) is compiled and analyzed exactly once per run.
	cache := opts.Cache
	if cache == nil {
		cache = dse.NewPrepCache()
	}

	// Invariant + differential families shard per kernel.
	if families[FamilyInvariant] || families[FamilyDifferential] {
		var mu sync.Mutex
		var firstErr error
		perKernel(ctx, opts.Workers, kernels, func(k *bench.Kernel) {
			res, err := auditKernel(ctx, k, cache, opts, families)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			rep.Findings = append(rep.Findings, res.findings...)
			rep.Checks += res.checks
			rep.Attributed += res.attributed
			opts.logf("checked %-28s %5d assertions, %d findings",
				k.ID(), res.checks, len(res.findings))
		})
		if firstErr != nil {
			return nil, firstErr
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	if families[FamilySearch] {
		fs, checks, err := SearchFindings(ctx, kernels, cache, opts)
		if err != nil {
			return nil, err
		}
		rep.Findings = append(rep.Findings, fs...)
		rep.Checks += checks
		opts.logf("search equivalence: %d assertions, %d findings", checks, len(fs))
	}

	if families[FamilyProfile] {
		fs, checks, err := ProfileFindings(ctx, kernels, opts)
		if err != nil {
			return nil, err
		}
		rep.Findings = append(rep.Findings, fs...)
		rep.Checks += checks
		opts.logf("profile equivalence: %d assertions, %d findings", checks, len(fs))
	}

	if families[FamilyServe] {
		serveKernels := kernels
		if opts.Smoke && len(serveKernels) > 2 {
			serveKernels = serveKernels[:2]
		}
		fs, checks, err := ServeConsistency(ctx, serveKernels, opts)
		if err != nil {
			return nil, err
		}
		rep.Findings = append(rep.Findings, fs...)
		rep.Checks += checks
		opts.logf("serve consistency: %d assertions, %d findings", checks, len(fs))
	}

	applyAllowlist(rep.Findings, allow)
	rep.Duration = time.Since(t0)
	return rep, nil
}

// perKernel fans kernels over min(workers, n) goroutines.
func perKernel(ctx context.Context, workers int, ks []*bench.Kernel, fn func(*bench.Kernel)) {
	if workers <= 0 {
		workers = 4
	}
	if workers > len(ks) {
		workers = len(ks)
	}
	if workers <= 1 {
		for _, k := range ks {
			if ctx.Err() != nil {
				return
			}
			fn(k)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan *bench.Kernel)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				fn(k)
			}
		}()
	}
	for _, k := range ks {
		if ctx.Err() != nil {
			break
		}
		next <- k
	}
	close(next)
	wg.Wait()
}
