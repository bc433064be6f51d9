package sched_test

import (
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/ir"
	. "repro/internal/sched"
)

// smsDSPSlots are the DSP slot counts smsCases schedules at. 10, 14 and
// 16 are what the model's PE resources come to over the KU060 and
// Virtex-7 design lattices; 4 and 8 are tighter tables. Fewer slots
// make SMS search far longer, past what a test can wait for.
var smsDSPSlots = []int{4, 8, 10, 14, 16}

// smsCase is one schedule of a pipelined prediction: a kernel's function
// at one WG size with its profiled block frequencies, the CDFG's block
// offsets and one set of PE resources.
type smsCase struct {
	id      string
	wg      int64
	f       *ir.Func
	freq    map[*ir.Block]float64
	offsets map[*ir.Block]int
	cfg     *Config
}

// smsCases prepares every bundled and generated kernel at every WG size
// on the Virtex-7, the way prediction does, and returns a schedule per
// prep and DSP slot count in smsDSPSlots, at the Virtex-7's local-memory
// ports and two global ports.
func smsCases(tb testing.TB) []smsCase {
	tb.Helper()
	p := device.Virtex7()
	cache := dse.NewPrepCache()
	var cases []smsCase
	for _, k := range append(bench.All(), bench.GeneratedCorpus()...) {
		as, err := cache.Analyses(k, p)
		if err != nil {
			tb.Fatalf("%s: %v", k.ID(), err)
		}
		wgs := make([]int64, 0, len(as))
		for wg := range as {
			wgs = append(wgs, wg)
		}
		slices.Sort(wgs)
		for _, wg := range wgs {
			a := as[wg]
			for _, dsp := range smsDSPSlots {
				cfg := &Config{Table: a.Table, Res: Resources{
					LocalRead:  p.LocalReadPorts(),
					LocalWrite: p.LocalWritePorts(),
					Global:     2,
					DSPSlots:   dsp,
				}}
				g := cdfg.Build(a.F, a.Freq, cfg)
				cases = append(cases, smsCase{id: k.ID(), wg: wg, f: a.F, freq: g.Freq, offsets: g.BlockOffsets, cfg: cfg})
			}
		}
	}
	return cases
}

// TestSMSEqualsReference pins SMS's flat per-candidate state: on every
// schedule of smsCases, SMS returns exactly the PipelineResult of
// SMSReference, which builds fresh maps for every candidate II. A floor
// on the schedules whose II rises above MII keeps the comparison from
// passing on placements that never search.
func TestSMSEqualsReference(t *testing.T) {
	cases := smsCases(t)
	searched := 0
	for _, c := range cases {
		got := SMS(c.f, c.freq, c.offsets, c.cfg)
		want := SMSReference(c.f, c.freq, c.offsets, c.cfg)
		if *got != *want {
			t.Errorf("%s at WG %d, %d DSP slots: SMS %+v, reference %+v", c.id, c.wg, c.cfg.Res.DSPSlots, *got, *want)
		}
		if want.II > want.MII {
			searched++
		}
	}
	t.Logf("%d schedules, %d with II above MII", len(cases), searched)
	if searched == 0 {
		t.Errorf("no schedule raises II above MII")
	}
}

// BenchmarkSMS schedules every case of smsCases once per op, with SMS
// and with its map-based reference. Run it with
//
//	go test -run '^$' -bench BenchmarkSMS -benchmem ./internal/sched
func BenchmarkSMS(b *testing.B) {
	cases := smsCases(b)
	for _, bc := range []struct {
		name string
		sms  func(*ir.Func, map[*ir.Block]float64, map[*ir.Block]int, *Config) *PipelineResult
	}{{"flat", SMS}, {"reference", SMSReference}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, c := range cases {
					bc.sms(c.f, c.freq, c.offsets, c.cfg)
				}
			}
		})
	}
}
