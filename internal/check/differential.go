package check

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/dse"
	"repro/internal/model"
	"repro/internal/rtlsim"
)

// kernelResult is one kernel's share of a check run.
type kernelResult struct {
	findings   []Finding
	checks     int
	attributed int
}

// auditKernel runs the invariant and differential families for one
// kernel: every (WG size, design) point is predicted and audited, then
// a sampled subset is cross-checked against the cycle-level simulator
// and the analysis is re-run to prove profiling determinism.
func auditKernel(ctx context.Context, k *bench.Kernel, cache *dse.PrepCache, opts Options, families map[string]bool) (kernelResult, error) {
	var res kernelResult
	p := opts.platform()
	dls := float64(p.WGSchedOverhead)

	wgs := k.WGSizes()
	if len(wgs) == 0 {
		return res, fmt.Errorf("check: %s has an empty WG sweep", k.ID())
	}
	if opts.Smoke && len(wgs) > 1 {
		wgs = wgs[:1]
	}
	// Ground truth is expensive; sample the ends of the WG sweep rather
	// than the whole grid (first = smallest groups, last = largest).
	simWGs := map[int64]bool{wgs[0]: true}
	if !opts.Smoke {
		simWGs[wgs[len(wgs)-1]] = true
	}

	for _, wg := range wgs {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		an, err := cache.Analysis(k, p, wg)
		if err != nil {
			return res, err
		}
		designs := model.WGSpace(nil, wg, p.MaxPE, p.MaxCU)

		if families[FamilyInvariant] {
			fs, checks, attributed := InvariantFindings(k.ID(), an, designs, dls)
			res.findings = append(res.findings, fs...)
			res.checks += checks
			res.attributed += attributed
		}

		if families[FamilyDifferential] && simWGs[wg] {
			fs, checks, err := errorBandFindings(ctx, k, an, wg, opts)
			if err != nil {
				return res, err
			}
			res.findings = append(res.findings, fs...)
			res.checks += checks
		}
	}

	if families[FamilyDifferential] {
		f, err := determinismFinding(k, cache, wgs[0], opts)
		if err != nil {
			return res, err
		}
		res.checks++
		if f != nil {
			res.findings = append(res.findings, *f)
		}
	}
	return res, nil
}

// errorBandFindings cross-checks the analytical model against the
// cycle-level simulator on a sampled set of design points: the serial
// baseline, the deepest single-CU pipeline, and (full runs only) the
// maximally parallel point. Each point's relative error must stay
// inside the kernel's band (Options.ErrorBandPct, with allowlist
// overrides for known outliers).
func errorBandFindings(ctx context.Context, k *bench.Kernel, an *model.Analysis, wg int64, opts Options) (findings []Finding, checks int, err error) {
	p := opts.platform()
	points := []model.Design{
		{WGSize: wg, WIPipeline: false, PE: 1, CU: 1, Mode: model.ModeBarrier},
		{WGSize: wg, WIPipeline: true, PE: p.MaxPE, CU: 1, Mode: model.ModePipeline},
	}
	if !opts.Smoke {
		points = append(points,
			model.Design{WGSize: wg, WIPipeline: true, PE: p.MaxPE, CU: p.MaxCU, Mode: model.ModeBarrier})
	}
	band := opts.errorBand()
	for _, d := range points {
		est := an.Predict(d)
		sim, serr := rtlsim.Simulate(an.F, p, k.Config(wg), d,
			rtlsim.Options{MaxGroups: opts.simGroups(), Ctx: ctx})
		if serr != nil {
			return nil, checks, fmt.Errorf("check: simulating %s %v: %w", k.ID(), d, serr)
		}
		checks++
		if e := rtlsim.ErrorVs(est.Cycles, sim.Cycles); e > band {
			findings = append(findings, Finding{
				Family:   FamilyDifferential,
				Check:    "error-band",
				Kernel:   k.ID(),
				Design:   d.String(),
				Expected: fmt.Sprintf("|model-sim|/sim <= %.0f%%", band),
				Got: fmt.Sprintf("%.1f%% (model=%.0f sim=%.0f)",
					e, est.Cycles, sim.Cycles),
			})
		}
	}
	return findings, checks, nil
}

// determinismFinding re-runs the whole analysis pipeline (compile,
// dynamic profiling, trace classification) for one WG size and demands
// a bit-identical profile fingerprint: trip counts, barrier counts and
// classified memory statistics must not depend on run order, map
// iteration, or any other accidental state. The reference profile comes
// from the shared prep cache, so the comparison crosses the same code
// path the DSE and serve layers consume.
func determinismFinding(k *bench.Kernel, cache *dse.PrepCache, wg int64, opts Options) (*Finding, error) {
	p := opts.platform()
	ref, err := cache.Analysis(k, p, wg)
	if err != nil {
		return nil, err
	}
	f2, err := k.Compile(wg)
	if err != nil {
		return nil, fmt.Errorf("check: recompiling %s wg=%d: %w", k.ID(), wg, err)
	}
	an2, err := model.Analyze(context.Background(), f2, p, k.Config(wg))
	if err != nil {
		return nil, fmt.Errorf("check: re-analyzing %s wg=%d: %w", k.ID(), wg, err)
	}
	fp1, fp2 := profileFingerprint(ref), profileFingerprint(an2)
	if fp1 == fp2 {
		return nil, nil
	}
	return &Finding{
		Family:   FamilyDifferential,
		Check:    "interp-determinism",
		Kernel:   k.ID(),
		Design:   fmt.Sprintf("wg=%d", wg),
		Expected: "identical profile fingerprints across runs",
		Got:      fingerprintDiff(fp1, fp2),
	}, nil
}

// profileFingerprint renders everything the model reads from a profile
// into one canonical string. Blocks are keyed by label (pointers differ
// across compiles) and sorted, so equal profiles always render equally.
func profileFingerprint(an *model.Analysis) string {
	var b strings.Builder
	fmt.Fprintf(&b, "nwi=%d wg=%d barriers=%g\n", an.NWI, an.WGSize, an.Barriers)
	m := an.Mem
	fmt.Fprintf(&b, "mem: wi=%d bursts=%g raw=%g reads=%g writes=%g pat=%v\n",
		m.WorkItems, m.BurstsPerWI, m.RawPerWI, m.Reads, m.Writes, m.N)
	lines := make([]string, 0, len(an.Freq))
	for blk, n := range an.Freq {
		lines = append(lines, fmt.Sprintf("freq %s=%g", blk.Label(), n))
	}
	sort.Strings(lines)
	b.WriteString(strings.Join(lines, "\n"))
	return b.String()
}

// fingerprintDiff reports the first line where two fingerprints differ,
// keeping findings readable instead of dumping both profiles.
func fingerprintDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: %q vs %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("fingerprint lengths differ: %d vs %d lines", len(al), len(bl))
}
