package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/model"
)

// warmMMSize is the warm-up kernel's matrix dimension (NWI 16384, above
// the corpus's largest launch).
const warmMMSize = 128

// goldenDir holds the pinned predictions of every bundled kernel
// (see golden_test.go at the repository root).
var goldenDir = filepath.Join("testdata", "golden")

// corpusNWI is the work-item range of the bundled corpus. Generated
// kernels stay inside it: larger launches are the unbounded-input defect
// of ROADMAP item 5, not traffic.
func corpusNWI() (lo, hi int64) {
	for i, k := range bench.All() {
		n := k.NWI()
		if i == 0 || n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	return lo, hi
}

// twoD reports whether a generator family launches a 2-D NDRange.
func twoD(family string) bool {
	switch family {
	case "mm", "stencil", "transpose":
		return true
	}
	return false
}

// genSizes lists the distinct problem sizes of a family whose launches
// stay inside the corpus work-item range (Generate rounds 1-D sizes to
// 256 and 2-D sizes to 16).
func genSizes(family string) []int64 {
	lo, hi := corpusNWI()
	var out []int64
	if twoD(family) {
		for n := int64(16); n*n <= hi; n += 16 {
			if n*n >= lo {
				out = append(out, n)
			}
		}
		return out
	}
	for n := int64(256); n <= hi; n += 256 {
		if n >= lo {
			out = append(out, n)
		}
	}
	return out
}

func generate(family string, n int64) *bench.Kernel {
	k, err := bench.Generate(bench.GenSpec{Family: family, N: n})
	if err != nil {
		panic(err) // unreachable: every family accepts the positive sizes genSizes lists
	}
	return k
}

// draw is the DSE workloads' seeded kernel set: the bundled
// Rodinia/PolyBench corpus plus every generator family at two distinct
// seeded sizes. warm is a kernel outside the draw for dse-cold's
// warm-up search: a matrix multiply above the corpus range, so the
// set-up does enough work (~0.3 s) to be timed with a bounded relative
// spread.
type draw struct {
	kernels []*bench.Kernel
	warm    *bench.Kernel
}

func makeDraw(seed int64, maxKernels int) draw {
	rng := rand.New(rand.NewSource(seed))
	d := draw{kernels: append([]*bench.Kernel(nil), bench.All()...)}
	for _, fam := range bench.GenFamilies() {
		sizes := genSizes(fam)
		perm := rng.Perm(len(sizes))
		for _, i := range perm[:2] {
			d.kernels = append(d.kernels, generate(fam, sizes[i]))
		}
	}
	d.warm = generate("mm", warmMMSize)
	if maxKernels > 0 && maxKernels < len(d.kernels) {
		// Keep the generated tail (it carries the interpreter fallback
		// and the exhaustive cross-check) and trim the bundled head.
		nGen := len(d.kernels) - len(bench.All())
		keep := maxKernels - nGen
		if keep < 1 {
			keep = 1
		}
		d.kernels = append(d.kernels[:keep:keep], d.kernels[len(bench.All()):]...)
	}
	return d
}

// ids lists the draw's kernel identities (the determinism test compares
// draws by it).
func (d draw) ids() []string {
	out := make([]string, len(d.kernels))
	for i, k := range d.kernels {
		out[i] = k.ID()
	}
	return out
}

// generated reports whether k came from bench.Generate.
func generated(k *bench.Kernel) bool { return k.Suite == "generated" }

// goldenDesigns is the grid golden_test.go pins for every WG size.
func goldenDesigns(wg int64) []model.Design {
	return []model.Design{
		{WGSize: wg, WIPipeline: false, PE: 1, CU: 1, Mode: model.ModeBarrier},
		{WGSize: wg, WIPipeline: true, PE: 1, CU: 1, Mode: model.ModeBarrier},
		{WGSize: wg, WIPipeline: true, PE: 4, CU: 2, Mode: model.ModePipeline},
		{WGSize: wg, WIPipeline: true, PE: 16, CU: 4, Mode: model.ModePipeline},
	}
}

// golden maps "design" strings to pinned cycles for one bundled kernel.
type golden map[string]float64

// loadGolden reads the pinned predictions of every bundled kernel,
// keyed by kernel id.
func loadGolden() (map[string]golden, error) {
	out := make(map[string]golden)
	for _, k := range bench.All() {
		name := k.Suite + "__" + strings.ReplaceAll(k.ID(), "/", "__") + ".golden"
		data, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			return nil, fmt.Errorf("golden corpus: %w", err)
		}
		g := golden{}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			design, val, ok := strings.Cut(line, " ")
			v, err := strconv.ParseFloat(val, 64)
			if !ok || err != nil {
				return nil, fmt.Errorf("golden %s: malformed line %q", name, line)
			}
			g[design] = v
		}
		out[k.ID()] = g
	}
	return out, nil
}

// checkGolden compares predict at every golden design of k against the
// pinned value, failing op on the first mismatch.
func (r *run) checkGolden(gold map[string]golden, op string, k *bench.Kernel, predict func(model.Design) (float64, bool)) {
	g, ok := gold[k.ID()]
	if !ok {
		r.fail(op, "no golden file for %s", k.ID())
		return
	}
	n := 0
	for _, wg := range k.WGSizes() {
		for _, d := range goldenDesigns(wg) {
			want, ok := g[d.String()]
			if !ok {
				r.fail(op, "golden grid point %s not pinned", d)
				return
			}
			got, ok := predict(d)
			if !ok || got != want {
				r.fail(op, "%s predicts %v, golden %v", d, got, want)
				return
			}
			n++
		}
	}
	r.check(n == len(g), op, "golden file has %d points, grid %d", len(g), n)
}
