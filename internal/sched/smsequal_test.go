package sched_test

import (
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/ir"
	. "repro/internal/sched"
)

// smsDSPSlots are the DSP slot counts TestSMSEqualsReference schedules
// at. 10, 14 and 16 are what the model's PE resources come to over the
// KU060 and Virtex-7 design lattices; 4 and 8 are tighter tables. Fewer
// slots make SMS search far longer, past what a test can wait for.
var smsDSPSlots = []int{4, 8, 10, 14, 16}

// smsCase is one schedule of a pipelined prediction: a kernel's function
// at one WG size with its profiled block frequencies and one set of PE
// resources.
type smsCase struct {
	id   string
	wg   int64
	f    *ir.Func
	freq map[*ir.Block]float64
	cfg  *Config
}

// smsCases prepares every bundled and generated kernel at every WG size
// on the Virtex-7, the way prediction does, and returns a schedule per
// prep and DSP slot count in dspSlots, at the Virtex-7's local-memory
// ports and two global ports.
func smsCases(tb testing.TB, dspSlots []int) []smsCase {
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
			for _, dsp := range dspSlots {
				cfg := &Config{Table: a.Table, Res: Resources{
					LocalRead:  p.LocalReadPorts(),
					LocalWrite: p.LocalWritePorts(),
					Global:     2,
					DSPSlots:   dsp,
				}}
				cases = append(cases, smsCase{id: k.ID(), wg: wg, f: a.F, freq: a.Freq, cfg: cfg})
			}
		}
	}
	return cases
}

// TestSMSEqualsReference pins SMS's flat per-candidate state and the
// ASAP times Build keeps for it: on every schedule of smsCases, SMS on
// Build's graph returns exactly the PipelineResult of SMSReference,
// which builds fresh maps for every candidate II and derives each
// block's ASAP times from a dependence graph of its own. A floor on the
// schedules whose II rises above MII keeps the comparison from passing
// on placements that never search.
func TestSMSEqualsReference(t *testing.T) {
	cases := smsCases(t, smsDSPSlots)
	// At the Virtex-7's ports the list scheduler delays operations past
	// their ASAP times in some corpus schedules but never changes an SMS
	// result, so lpKernel's 8 local loads on one read port pin that SMS
	// starts from the ASAP times.
	tight := defaultCfg()
	tight.Res.LocalRead = 1
	cases = append(cases, smsCase{id: "lp", f: compileKernel(t, lpKernel, "lp"), cfg: tight})
	searched := 0
	for _, c := range cases {
		g := Build(c.f, c.freq, c.cfg)
		got := g.SMS()
		want := SMSReference(c.f, g.Freq, g.BlockOffsets, c.cfg)
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
// and with its map-based reference, on graphs built before timing. Run
// it with
//
//	go test -run '^$' -bench BenchmarkSMS -benchmem ./internal/sched
func BenchmarkSMS(b *testing.B) {
	cases := smsCases(b, smsDSPSlots)
	graphs := make([]*Graph, len(cases))
	for i, c := range cases {
		graphs[i] = Build(c.f, c.freq, c.cfg)
	}
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, g := range graphs {
				g.SMS()
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, g := range graphs {
				SMSReference(g.Func, g.Freq, g.BlockOffsets, cases[j].cfg)
			}
		}
	})
}

var sinkDepth int

// BenchmarkSchedule is the schedule layer of a cold prediction: Build,
// SMS and SerialDepth of every prep of smsCases at the DSP slot counts
// the design lattices give (10, 14 and 16), once per op. Run it with
//
//	go test -run '^$' -bench BenchmarkSchedule -benchmem ./internal/sched
func BenchmarkSchedule(b *testing.B) {
	cases := smsCases(b, []int{10, 14, 16})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cases {
			g := Build(c.f, c.freq, c.cfg)
			sinkDepth = g.SMS().Depth + g.SerialDepth()
		}
	}
}
