package interp_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/trace"
)

// BenchmarkProfileStaticVsInterp times both profiler paths the way prep
// runs them: the first model.ProfileGroups groups of the launch, at each
// kernel's largest WG size (the size a shared sweep executes). The
// static cases stream to no sink, so they time the slice executor and
// its sweep driver alone; static/corpus profiles every statically
// analyzable bundled and generated kernel once per op. stream/corpus
// profiles the same kernels the way model.Analyze does, each streamed
// into a fresh trace.Stream and classified, so it adds the trace path:
// the executor's trace buffers and trace's coalescing and
// classification. interp/corpus runs every bundled and generated kernel
// the static analyzer declines through the interpreter once per op, each
// on a fresh binding, as prep profiles them. Run it on demand with
//
//	go test -run '^$' -bench BenchmarkProfileStaticVsInterp ./internal/interp
func BenchmarkProfileStaticVsInterp(b *testing.B) {
	for _, id := range []string{"backprop/layer", "gemm/gemm", "hotspot/hotspot"} {
		k := bench.FindID(id)
		if k == nil {
			b.Fatalf("kernel %s not bundled", id)
		}
		l := compileLargest(b, k)
		if ok, reason := interp.StaticAnalyzable(l.f); !ok {
			b.Fatalf("%s not statically analyzable: %s", id, reason)
		}
		b.Run("static/"+id, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.profileStatic(b, nil)
			}
		})
		b.Run("interp/"+id, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// A fresh launch per run: the interpreter writes buffers.
				b.StopTimer()
				cfg := k.Config(l.wg)
				b.StartTimer()
				if _, err := interp.InterpProfile(l.f, cfg, model.ProfileGroups, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	var corpus, declined []launch
	for _, k := range append(bench.All(), bench.GeneratedCorpus()...) {
		l := compileLargest(b, k)
		if ok, _ := interp.StaticAnalyzable(l.f); ok {
			corpus = append(corpus, l)
		} else {
			declined = append(declined, l)
		}
	}
	b.Run("static/corpus", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, l := range corpus {
				l.profileStatic(b, nil)
			}
		}
	})
	b.Run("interp/corpus", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, l := range declined {
				b.StopTimer()
				cfg := l.k.Config(l.wg)
				b.StartTimer()
				if _, err := interp.InterpProfile(l.f, cfg, model.ProfileGroups, false); err != nil {
					b.Fatalf("%s: %v", l.k.ID(), err)
				}
			}
		}
	})
	p := device.Virtex7()
	b.Run("stream/corpus", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, l := range corpus {
				s := trace.NewStream(trace.NewLayout(l.f, trace.BufferCounts(l.f, l.cfg), p.DRAM), p.DRAM, p.MemAccessUnitBits/8)
				l.profileStatic(b, s.Group)
				s.Classified()
			}
		}
	})
}

// launch is one kernel compiled and bound at one WG size. The static
// executor never writes buffers, so its runs share one binding.
type launch struct {
	k   *bench.Kernel
	wg  int64
	f   *ir.Func
	cfg *interp.Config
}

func compileLargest(b *testing.B, k *bench.Kernel) launch {
	wgs := k.WGSizes()
	wg := wgs[len(wgs)-1]
	f, err := k.Compile(wg)
	if err != nil {
		b.Fatal(err)
	}
	return launch{k: k, wg: wg, f: f, cfg: k.Config(wg)}
}

// profileStatic profiles l into sink, which may be nil, and fails
// unless the static executor produced the profile.
func (l launch) profileStatic(b *testing.B, sink interp.GroupSink) {
	prof, err := interp.ProfileStream(l.f, l.cfg, model.ProfileGroups, sink)
	if err != nil {
		b.Fatalf("%s: %v", l.k.ID(), err)
	}
	if prof.Source != interp.SourceStatic {
		b.Fatalf("%s: profiled by %s, not the static executor", l.k.ID(), prof.Source)
	}
}
