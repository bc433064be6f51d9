package check

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/trace"
)

// FamilyProfile proves the profiler's fast paths exact. For every
// kernel the analyzer claims, the statically derived profile must be
// field-for-field identical to the interpreter's — both prefix and
// spread sampling — so the dispatcher can pick either path without
// changing a single downstream model estimate. For every kernel, the
// memory classification model.Analyze streams out of the profiler must
// be bitwise the one trace.ClassifyGrouped computes from the
// materialized traces. For every kernel whose WG sizes compile to the
// same code, the analyses model.AnalyzeSweep builds from one shared
// profile must be bitwise the per-WG model.Analyze ones, and a shared
// run may fault only where the largest WG size faults on its own.
// Corpus-wide the analyzer must claim at least
// profileMinStaticFraction of the PolyBench suite, the regular
// workloads the fast path exists for.
const FamilyProfile = "profile"

// profileMinStaticFraction is the floor on the statically analyzable
// fraction of PolyBench: below it the fast path has regressed into
// decoration.
const profileMinStaticFraction = 0.40

// profileAudit is one kernel's raw material for the comparator: the
// analyzer's verdict and the profile diffs, precomputed so the
// comparator stays pure and tests can feed fabricated mismatches.
type profileAudit struct {
	kernel     string
	analyzable bool   // at the smallest WG size
	reason     string // decline reason when !analyzable
	// static holds the static-vs-interpreter comparisons: the smallest
	// and the largest WG size, each where the analyzer claims it.
	static     []staticAudit
	streamDiff string // model.Analyze's streamed analysis vs materialized traces
	sweepDiff  string // model.AnalyzeSweep vs per-WG model.Analyze
	shared     bool   // the sweep shared one profile over every WG size
}

// staticAudit compares the static executor with the interpreter at one
// WG size.
type staticAudit struct {
	wg         int64
	staticErr  string // error from the static executor ("" = none)
	interpErr  string // error from the interpreter ("" = none)
	prefixDiff string // static vs interp, prefix sampling
	spreadDiff string // static vs interp, spread sampling
}

// profileKernelFindings turns one kernel's audit into findings.
func profileKernelFindings(a profileAudit) (findings []Finding, checks int) {
	fail := func(check, expected, got string) {
		findings = append(findings, Finding{
			Family: FamilyProfile, Check: check, Kernel: a.kernel,
			Expected: expected, Got: got,
		})
	}

	// Every decline must carry a reason: "static didn't feel like it"
	// is not a diagnosable state.
	checks++
	if !a.analyzable && a.reason == "" {
		fail("decline-reason", "a decline reason for the fallback", "empty reason")
	}

	// Streaming the traces must not change the analysis, whichever path
	// produced the profile.
	checks++
	if a.streamDiff != "" {
		fail("stream-equals-materialized",
			"model.Analyze equals ClassifyGrouped over ProfileKernel's traces", a.streamDiff)
	}

	// Sharing one profile over the WG sweep must not change any size's
	// analysis.
	checks++
	if a.sweepDiff != "" {
		fail("sweep-equals-per-wg",
			"model.AnalyzeSweep equals model.Analyze at every WG size", a.sweepDiff)
	}

	// Exactness: the static profile equals the interpreted one, or
	// fails with the identical error, under both sampling modes.
	for _, st := range a.static {
		checks++
		if st.staticErr != st.interpErr {
			fail("error-match",
				fmt.Sprintf("wg %d: static error %q == interp error %q", st.wg, st.staticErr, st.interpErr),
				"errors differ")
		} else if st.staticErr == "" {
			if st.prefixDiff != "" {
				fail("static-equals-interp", fmt.Sprintf("wg %d: identical profiles (prefix sampling)", st.wg), st.prefixDiff)
			}
			if st.spreadDiff != "" {
				fail("static-equals-interp", fmt.Sprintf("wg %d: identical profiles (spread sampling)", st.wg), st.spreadDiff)
			}
		}
	}
	return findings, checks
}

// profileAuditKernel runs both profiler paths for one kernel, at its
// smallest and its largest WG size, and records the comparisons.
func profileAuditKernel(ctx context.Context, k *bench.Kernel, p *device.Platform) (profileAudit, error) {
	a := profileAudit{kernel: k.ID()}
	f, err := k.Compile(k.MinWG)
	if err != nil {
		return a, err
	}
	a.analyzable, a.reason = interp.StaticAnalyzable(f)
	if a.analyzable {
		a.static = append(a.static, staticVsInterp(f, k, k.MinWG))
	}
	if wgs := k.WGSizes(); len(wgs) > 1 {
		wg := wgs[len(wgs)-1]
		fmax, err := k.Compile(wg)
		if err != nil {
			return a, err
		}
		if ok, _ := interp.StaticAnalyzable(fmax); ok {
			a.static = append(a.static, staticVsInterp(fmax, k, wg))
		}
	}
	a.streamDiff = streamVsMaterialized(ctx, f, k, p)
	a.shared, a.sweepDiff = sweepVsPerWG(ctx, k, p)
	return a, nil
}

// staticVsInterp profiles f, k compiled at wg, with the static executor
// and the interpreter, under prefix then spread sampling. A fault ends
// the comparison: both paths must fail alike.
func staticVsInterp(f *ir.Func, k *bench.Kernel, wg int64) staticAudit {
	st := staticAudit{wg: wg}
	for _, spread := range []bool{false, true} {
		// Fresh Config per run: the interpreter mutates buffers.
		sp, _, serr := interp.StaticProfile(f, k.Config(wg), model.ProfileGroups, spread)
		ip, ierr := interp.InterpProfile(f, k.Config(wg), model.ProfileGroups, spread)
		if serr != nil {
			st.staticErr = serr.Error()
		}
		if ierr != nil {
			st.interpErr = ierr.Error()
		}
		if serr != nil || ierr != nil {
			break
		}
		if spread {
			st.spreadDiff = sp.Diff(ip)
		} else {
			st.prefixDiff = sp.Diff(ip)
		}
	}
	return st
}

// sweepWorkers splits the shared run of sweepVsPerWG, so the check also
// covers the hand-off between goroutines.
const sweepWorkers = 2

// sweepVsPerWG compares model.AnalyzeSweep, which profiles every WG
// size of k with one run, against model.Analyze at each size, bitwise
// (Analysis.Diff). A shared run that faults must fault where the
// largest size, whose profiled work-groups it executes, faults on its
// own. It reports whether the sweep shared the profile and describes
// the first difference, or returns "" — also when the sizes compile to
// different code or the sweep declines, where per-WG is the only path.
func sweepVsPerWG(ctx context.Context, k *bench.Kernel, p *device.Platform) (bool, string) {
	wgs := k.WGSizes()
	slices.Reverse(wgs) // largest first, as the prep cache fills a sweep
	if len(wgs) < 2 {
		return false, ""
	}
	fs := make([]*ir.Func, len(wgs))
	locals := make([][3]int64, len(wgs))
	for i, wg := range wgs {
		f, err := k.Compile(wg)
		if err != nil {
			return false, ""
		}
		if fs[i], locals[i] = f, k.Local(wg); !fs[0].SameCode(f) {
			return false, ""
		}
	}
	ans, err := model.AnalyzeSweep(ctx, fs[0], p, k.Config(wgs[0]), locals, sweepWorkers)
	if errors.Is(err, interp.ErrNotShareable) {
		return false, ""
	}
	if err != nil {
		if _, rerr := model.Analyze(ctx, fs[0], p, k.Config(wgs[0])); rerr == nil {
			return false, fmt.Sprintf("shared run faults (%v), wg %d analyzes", err, wgs[0])
		}
		return false, ""
	}
	for i, wg := range wgs {
		ref, rerr := model.Analyze(ctx, fs[i], p, k.Config(wg))
		if rerr != nil {
			return true, fmt.Sprintf("wg %d: shared run succeeds, per-WG fails: %v", wg, rerr)
		}
		if d := ans[i].Diff(ref); d != "" {
			return true, fmt.Sprintf("wg %d: %s", wg, d)
		}
	}
	return true, ""
}

// streamVsMaterialized compares model.Analyze, which classifies the
// memory trace as the profiler streams it, with trace.ClassifyGrouped
// over ProfileKernel's materialized traces: the classification bitwise,
// plus the trip counts, barriers and work-item count behind it. It
// describes the first difference, or returns "".
func streamVsMaterialized(ctx context.Context, f *ir.Func, k *bench.Kernel, p *device.Platform) string {
	// Fresh Config per run: the interpreter mutates buffers.
	an, aerr := model.Analyze(ctx, f, p, k.Config(k.MinWG))
	cfg := k.Config(k.MinWG)
	prof, perr := interp.ProfileKernel(f, cfg, model.ProfileGroups)
	switch {
	case aerr != nil && perr != nil:
		if !strings.HasSuffix(aerr.Error(), perr.Error()) {
			return fmt.Sprintf("errors differ: %q vs %q", aerr, perr)
		}
		return ""
	case aerr != nil || perr != nil:
		return fmt.Sprintf("one path failed: analyze %v, profile %v", aerr, perr)
	}
	l := trace.NewLayout(f, trace.BufferCounts(f, cfg), p.DRAM)
	mem := trace.ClassifyGrouped(prof.Traces, cfg.Range.Normalize().WorkGroupSize(), l, p.DRAM, p.MemAccessUnitBits/8)
	if d := an.Mem.Diff(mem); d != "" {
		return "Mem: " + d
	}
	streamed := &interp.Profile{BlockCounts: an.Freq, Barriers: an.Barriers, WorkItems: an.Mem.WorkItems}
	kept := &interp.Profile{BlockCounts: prof.BlockCounts, Barriers: prof.Barriers, WorkItems: prof.WorkItems}
	if d := streamed.Diff(kept); d != "" {
		return "profile: " + d
	}
	return ""
}

// ProfileFindings runs the profile family: the bundled corpus subset
// plus every generator family (the generated kernels pin both the
// static families and the designed interpreter fallback), then the
// corpus-wide PolyBench coverage floor.
func ProfileFindings(ctx context.Context, kernels []*bench.Kernel, opts Options) ([]Finding, int, error) {
	all := append(append([]*bench.Kernel(nil), kernels...), bench.GeneratedCorpus()...)
	var mu sync.Mutex
	var findings []Finding
	checks := 0
	var polyStatic, polyTotal int
	var firstErr error
	perKernel(ctx, opts.Workers, all, func(k *bench.Kernel) {
		a, err := profileAuditKernel(ctx, k, opts.platform())
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("check profile %s: %w", k.ID(), err)
			}
			return
		}
		fs, n := profileKernelFindings(a)
		findings = append(findings, fs...)
		checks += n
		if k.Suite == "polybench" {
			polyTotal++
			if a.analyzable {
				polyStatic++
			}
		}
		path, sweep := "interp", "per-wg"
		if a.analyzable {
			path = "static"
		}
		if a.shared {
			sweep = "shared"
		}
		opts.logf("profile %-28s path %-6s sweep %-6s %d findings", k.ID(), path, sweep, len(fs))
	})
	if firstErr != nil {
		return nil, 0, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}

	checks++
	if polyTotal > 0 {
		if frac := float64(polyStatic) / float64(polyTotal); frac < profileMinStaticFraction {
			findings = append(findings, Finding{
				Family: FamilyProfile, Check: "static-coverage",
				Expected: fmt.Sprintf("≥ %.0f%% of PolyBench statically analyzable", profileMinStaticFraction*100),
				Got:      fmt.Sprintf("%d/%d (%.0f%%)", polyStatic, polyTotal, frac*100),
			})
		}
	}
	return findings, checks, nil
}
