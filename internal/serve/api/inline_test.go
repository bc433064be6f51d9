package api

import (
	"net/http"
	"slices"
	"testing"
)

const scaleSrc = `__kernel void scale(__global const float* x, __global float* y, int n) {
	int i = get_global_id(0);
	y[i] = x[i] * 2.0f + (float)n;
}`

func scaleRef(minWG, maxWG int64, global ...int64) KernelRef {
	return KernelRef{
		Source: scaleSrc, Fn: "scale", Global: global,
		Scalars: map[string]int64{"n": 3},
		MinWG:   minWG, MaxWG: maxWG,
	}
}

// TestInlineSweepWalksMinWGLadder: an inline kernel sweeps min_wg·2^j
// up to the largest size within max_wg that divides global[0], whether
// or not min_wg is a power of two.
func TestInlineSweepWalksMinWGLadder(t *testing.T) {
	for _, tc := range []struct {
		name         string
		minWG, maxWG int64
		global       []int64
		want         []int64
	}{
		{"24 in 72", 24, 0, []int64{72}, []int64{24}},
		{"24 in 96", 24, 0, []int64{96}, []int64{24, 48, 96}},
		{"24 in 96 up to 48", 24, 48, []int64{96}, []int64{24, 48}},
		{"12 in 2-D 48x4", 12, 0, []int64{48, 4}, []int64{12, 24, 48}},
		{"default in 4096", 0, 0, []int64{4096}, []int64{16, 32, 64, 128, 256}},
		{"default in 96", 0, 0, []int64{96}, []int64{16, 32}},
		{"max 100 in 4096", 16, 100, []int64{4096}, []int64{16, 32, 64}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, e := ResolveKernel(scaleRef(tc.minWG, tc.maxWG, tc.global...), V2)
			if e != nil {
				t.Fatalf("ResolveKernel: %v", e)
			}
			if got := k.WGSizes(); !slices.Equal(got, tc.want) {
				t.Errorf("WGSizes = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestInlineSweepMinAboveMax: min_wg above max_wg is a typed 400, not
// an accepted kernel with an empty sweep.
func TestInlineSweepMinAboveMax(t *testing.T) {
	for _, ref := range []KernelRef{scaleRef(64, 32, 4096), scaleRef(512, 0, 4096)} {
		k, e := ResolveKernel(ref, V2)
		if e == nil {
			t.Errorf("min_wg %d, max_wg %d: accepted with sweep %v, want 400", ref.MinWG, ref.MaxWG, k.WGSizes())
			continue
		}
		if e.Status != http.StatusBadRequest || e.Code != CodeBadRequest {
			t.Errorf("min_wg %d, max_wg %d: error %d %s, want 400 %s", ref.MinWG, ref.MaxWG, e.Status, e.Code, CodeBadRequest)
		}
	}
}

// TestInlineSweepPowerOfTwoUnchanged: for power-of-two min_wg and
// max_wg, the sweep is the one the earlier rule gave, which halved
// max_wg until it divided global[0] and fit the work-items.
func TestInlineSweepPowerOfTwoUnchanged(t *testing.T) {
	halved := func(minWG, maxWG, g0, nwi int64) int64 {
		for maxWG > minWG && (g0%maxWG != 0 || maxWG > nwi) {
			maxWG /= 2
		}
		return maxWG
	}
	for _, minWG := range []int64{1, 2, 8, 16, 64} {
		for _, maxWG := range []int64{16, 64, 256, 1024} {
			if minWG > maxWG {
				continue
			}
			for _, global := range [][]int64{{64}, {96}, {100}, {384}, {4096}, {48, 4}, {16, 16}} {
				if global[0]%minWG != 0 {
					continue
				}
				k, e := ResolveKernel(scaleRef(minWG, maxWG, global...), V2)
				if e != nil {
					t.Fatalf("min %d max %d global %v: %v", minWG, maxWG, global, e)
				}
				if want := halved(minWG, maxWG, global[0], k.NWI()); k.MaxWG != want {
					t.Errorf("min %d max %d global %v: MaxWG %d, want %d", minWG, maxWG, global, k.MaxWG, want)
				}
			}
		}
	}
}
