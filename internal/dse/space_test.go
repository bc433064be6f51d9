package dse_test

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/model"
)

// filteredDefaultSpace is how Space used to enumerate a kernel's
// designs: for each WG size, the whole 16·2^j lattice up to it, kept
// where the design's WG size matched. It is the reference for the
// kernels whose sizes are all 16·2^j (or one size below 16).
func filteredDefaultSpace(k *bench.Kernel, p *device.Platform) []model.Design {
	var out []model.Design
	for _, wg := range k.WGSizes() {
		var wgs []int64
		for w := int64(16); w <= wg; w *= 2 {
			wgs = append(wgs, w)
		}
		if len(wgs) == 0 {
			wgs = []int64{wg}
		}
		for _, w := range wgs {
			if w != wg {
				continue
			}
			for _, pipe := range []bool{false, true} {
				for pe := 1; pe <= p.MaxPE; pe *= 2 {
					if !pipe && pe > 1 {
						continue
					}
					for cu := 1; cu <= p.MaxCU; cu *= 2 {
						for _, mode := range []model.CommMode{model.ModeBarrier, model.ModePipeline} {
							out = append(out, model.Design{WGSize: w, WIPipeline: pipe, PE: pe, CU: cu, Mode: mode})
						}
					}
				}
			}
		}
	}
	return out
}

// TestSpaceMatchesFilteredDefaultSpace pins Space's order: for every
// bundled and generated kernel on both platforms, it lists exactly the
// designs, in exactly the order, the filtered lattice did.
func TestSpaceMatchesFilteredDefaultSpace(t *testing.T) {
	kernels := append(bench.All(), bench.GeneratedCorpus()...)
	for _, p := range []*device.Platform{device.Virtex7(), device.KU060()} {
		for _, k := range kernels {
			got, want := dse.Space(k, p), filteredDefaultSpace(k, p)
			if len(got) != len(want) {
				t.Errorf("%s on %s: %d designs, want %d", k.ID(), p.Name, len(got), len(want))
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s on %s: design %d is %v, want %v", k.ID(), p.Name, i, got[i], want[i])
					break
				}
			}
		}
	}
}

// sweptCopy returns a copy of b+tree/findK sweeping WG sizes lo..hi.
func sweptCopy(t *testing.T, lo, hi int64) *bench.Kernel {
	t.Helper()
	k := *bench.Find("b+tree", "findK")
	k.MinWG, k.MaxWG = lo, hi
	return &k
}

// TestSpaceCoversEveryWGSize: a sweep whose sizes are not 16·2^j still
// lists every swept size's full lattice, in sweep order.
func TestSpaceCoversEveryWGSize(t *testing.T) {
	p := device.Virtex7()
	k := sweptCopy(t, 24, 96)
	wgs := k.WGSizes()
	if len(wgs) != 3 || wgs[0] != 24 || wgs[2] != 96 {
		t.Fatalf("WGSizes = %v, want [24 48 96]", wgs)
	}
	per := model.WGSpaceLen(p.MaxPE, p.MaxCU)
	if per != 36 {
		t.Fatalf("WGSpaceLen = %d, want 36", per)
	}
	space := dse.Space(k, p)
	if len(space) != per*len(wgs) {
		t.Fatalf("len(Space) = %d, want %d", len(space), per*len(wgs))
	}
	for i, d := range space {
		if want := wgs[i/per]; d.WGSize != want {
			t.Fatalf("design %d %v: WG size %d, want %d", i, d, d.WGSize, want)
		}
	}
}

// TestExploreSweepsEveryWGSize: Explore evaluates the designs of every
// WG size it prepares, 12..48 included.
func TestExploreSweepsEveryWGSize(t *testing.T) {
	k := sweptCopy(t, 12, 48)
	r, err := dse.Explore(context.Background(), k, dse.Options{SkipActual: true, SkipBaseline: true})
	if err != nil {
		t.Fatal(err)
	}
	per := map[int64]int{}
	for _, pt := range r.Points {
		per[pt.Design.WGSize]++
	}
	for _, wg := range []int64{12, 24, 48} {
		if per[wg] != 36 {
			t.Errorf("WG %d: %d points, want 36 (all: %v)", wg, per[wg], per)
		}
	}
}

// TestWarmExploreAllocs guards the warm model-only sweep: its
// allocations are per call and per WG size, none per design, so a
// 180-design space and a 108-design one stay under a bound below
// either's design count.
func TestWarmExploreAllocs(t *testing.T) {
	cache := dse.NewPrepCache()
	ctx := context.Background()
	for _, id := range []string{"nn/nn", "gaussian/fan1"} {
		k := bench.FindID(id)
		opts := dse.Options{SkipActual: true, SkipBaseline: true, Cache: cache}
		r, err := dse.Explore(ctx, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := dse.Explore(ctx, k, opts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d designs, %.0f allocations", id, len(r.Points), allocs)
		if allocs > 100 {
			t.Errorf("%s: warm Explore of %d designs makes %.0f allocations, want ≤ 100", id, len(r.Points), allocs)
		}
	}
}
