package check

import (
	"context"
	"fmt"
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
// materialized traces. Corpus-wide the analyzer must claim at least
// profileMinStaticFraction of the PolyBench suite, the regular
// workloads the fast path exists for.
const FamilyProfile = "profile"

// profileMinStaticFraction is the floor on the statically analyzable
// fraction of PolyBench: below it the fast path has regressed into
// decoration.
const profileMinStaticFraction = 0.40

// profileGroups is the sampled work-group budget of each comparison:
// matches the prep pipeline's ProfileGroups so the family audits the
// exact launches production profiles.
const profileGroups = 8

// profileAudit is one kernel's raw material for the comparator: the
// analyzer's verdict and the profile diffs, precomputed so the
// comparator stays pure and tests can feed fabricated mismatches.
type profileAudit struct {
	kernel     string
	analyzable bool
	reason     string // decline reason when !analyzable
	staticErr  string // error from the static executor ("" = none)
	interpErr  string // error from the interpreter ("" = none)
	prefixDiff string // static vs interp, prefix sampling
	spreadDiff string // static vs interp, spread sampling
	streamDiff string // model.Analyze's streamed analysis vs materialized traces
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

	if !a.analyzable {
		return findings, checks
	}

	// Exactness: the static profile equals the interpreted one, or
	// fails with the identical error, under both sampling modes.
	checks++
	if a.staticErr != a.interpErr {
		fail("error-match",
			fmt.Sprintf("static error %q == interp error %q", a.staticErr, a.interpErr),
			"errors differ")
	} else if a.staticErr == "" {
		if a.prefixDiff != "" {
			fail("static-equals-interp", "identical profiles (prefix sampling)", a.prefixDiff)
		}
		if a.spreadDiff != "" {
			fail("static-equals-interp", "identical profiles (spread sampling)", a.spreadDiff)
		}
	}
	return findings, checks
}

// profileAuditKernel runs both profiler paths for one kernel and
// records the comparisons.
func profileAuditKernel(ctx context.Context, k *bench.Kernel, p *device.Platform) (profileAudit, error) {
	a := profileAudit{kernel: k.ID()}
	f, err := k.Compile(k.MinWG)
	if err != nil {
		return a, err
	}
	a.analyzable, a.reason = interp.StaticAnalyzable(f)

	diff := func(spread bool) (string, string, string, error) {
		sp, _, serr := interp.StaticProfile(f, k.Config(k.MinWG), profileGroups, spread)
		ip, ierr := interp.InterpProfile(f, k.Config(k.MinWG), profileGroups, spread)
		se, ie := "", ""
		if serr != nil {
			se = serr.Error()
		}
		if ierr != nil {
			ie = ierr.Error()
		}
		if serr != nil || ierr != nil {
			return "", se, ie, nil
		}
		return sp.Diff(ip), se, ie, nil
	}
	if a.analyzable {
		var err error
		if a.prefixDiff, a.staticErr, a.interpErr, err = diff(false); err != nil {
			return a, err
		}
		if a.spreadDiff, _, _, err = diff(true); err != nil {
			return a, err
		}
	}

	a.streamDiff = streamVsMaterialized(ctx, f, k, p)
	return a, nil
}

// streamVsMaterialized compares model.Analyze, which classifies the
// memory trace as the profiler streams it, with trace.ClassifyGrouped
// over ProfileKernel's materialized traces: the classification bitwise,
// plus the trip counts, barriers and work-item count behind it. It
// describes the first difference, or returns "".
func streamVsMaterialized(ctx context.Context, f *ir.Func, k *bench.Kernel, p *device.Platform) string {
	// Fresh Config per run: the interpreter mutates buffers.
	an, aerr := model.Analyze(ctx, f, p, k.Config(k.MinWG),
		model.AnalysisOptions{ProfileGroups: profileGroups})
	cfg := k.Config(k.MinWG)
	prof, perr := interp.ProfileKernel(f, cfg, profileGroups)
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
		path := "interp"
		if a.analyzable {
			path = "static"
		}
		opts.logf("profile %-28s path %-6s %d findings", k.ID(), path, len(fs))
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
