package main

import (
	"hash/fnv"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/model"
	"repro/internal/rtlsim"
)

// simGroups caps each ground-truth simulation, as flexcl-dse -sim does.
const simGroups = 8

// sample is one design point whose estimate a workload returned, to be
// compared against the cycle-level simulator.
type sample struct {
	k   *bench.Kernel
	an  *model.Analysis
	d   model.Design
	est float64
}

// pick returns a stable index in [0, n) for (kernel, wg). The accuracy
// samples choose designs by it rather than by the seed: the model's
// error is heavy-tailed across designs (one kernel errs by up to
// ~1000 % at some points and ~0 % at others), so a seeded choice moves
// the mean error by 20-40 % between seeds. With a fixed rule only the
// seeded generated kernels vary.
func pick(k *bench.Kernel, wg int64, n int) int {
	h := fnv.New64a()
	h.Write([]byte(k.CacheKey()))
	h.Write([]byte{byte(wg), byte(wg >> 8), byte(wg >> 16)})
	return int(h.Sum64() % uint64(n))
}

// accuracy simulates every sample with rtlsim and sets model_err_pct
// and sdaccel_err_pct: the mean |estimate - rtlsim| / rtlsim of the
// model and of the SDAccel baseline (over the points the baseline
// supports). It runs outside the timed passes; in the traced run its
// rtlsim and baseline calls are spans outside any op.
func (r *run) accuracy(t *tracer, samples []sample) {
	r.op(len(samples))
	var mSum, sSum float64
	var mN, sN, bCalls, bFails int
	for _, s := range samples {
		op := "accuracy " + s.k.ID() + " " + s.d.String()
		var res *rtlsim.Result
		var err error
		t.call("rtlsim", func() {
			res, err = rtlsim.Simulate(s.an.F, r.p, s.k.Config(s.d.WGSize), s.d, rtlsim.Options{MaxGroups: simGroups})
		})
		if err != nil || res.Cycles <= 0 {
			r.fail(op, "rtlsim: %v", err)
			continue
		}
		mSum += rtlsim.ErrorVs(s.est, res.Cycles)
		mN++
		var b float64
		t.call("baseline", func() { b, err = baseline.SDAccel(s.an, s.d) })
		bCalls++
		if err != nil {
			bFails++
			continue
		}
		sSum += rtlsim.ErrorVs(b, res.Cycles)
		sN++
	}
	r.check(mN > 0 && sN > 0, "accuracy", "%d model and %d baseline comparisons", mN, sN)
	if mN > 0 {
		r.set("model_err_pct", "%", mSum/float64(mN))
	}
	if sN > 0 {
		r.set("sdaccel_err_pct", "%", sSum/float64(sN))
	}
	if bCalls > 0 {
		r.set("baseline.fail_ratio", "ratio", float64(bFails)/float64(bCalls))
	}
}
