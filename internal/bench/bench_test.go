package bench

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/interp"
)

func TestCorpusComplete(t *testing.T) {
	rod := Suite("rodinia")
	if len(rod) != 45 {
		t.Errorf("rodinia kernels = %d, want 45 (Table 2)", len(rod))
	}
	poly := Suite("polybench")
	if len(poly) != 15 {
		t.Errorf("polybench kernels = %d, want 15", len(poly))
	}
	if len(All()) != 60 {
		t.Errorf("total = %d, want 60", len(All()))
	}
	// Table 2 benchmark groups.
	wantBenches := map[string]int{
		"backprop": 2, "bfs": 2, "b+tree": 2, "cfd": 4, "dwt2d": 4,
		"gaussian": 2, "hotspot": 1, "hotspot3D": 1, "hybridsort": 3,
		"kmeans": 2, "lavaMD": 1, "leukocyte": 3, "lud": 2, "nn": 1,
		"nw": 2, "particlefilter": 4, "pathfinder": 1, "srad": 6,
		"streamcluster": 2,
	}
	got := map[string]int{}
	for _, k := range rod {
		got[k.Bench]++
	}
	for b, n := range wantBenches {
		if got[b] != n {
			t.Errorf("bench %s: %d kernels, want %d", b, got[b], n)
		}
	}
}

// TestEveryKernelCompilesAndRuns is the corpus smoke test: every kernel
// must compile and execute its first two work-groups at the smallest and
// largest work-group sizes of its sweep.
func TestEveryKernelCompilesAndRuns(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.ID(), func(t *testing.T) {
			sizes := k.WGSizes()
			for _, wg := range []int64{sizes[0], sizes[len(sizes)-1]} {
				f, err := k.Compile(wg)
				if err != nil {
					t.Fatalf("wg=%d compile: %v", wg, err)
				}
				cfg := k.Config(wg)
				if _, err := interp.ProfileKernel(f, cfg, 2); err != nil {
					t.Fatalf("wg=%d run: %v", wg, err)
				}
			}
		})
	}
}

// TestEveryKernelFullRun executes every kernel over its whole NDRange at
// one medium work-group size — catches out-of-bounds accesses in late
// work-groups.
func TestEveryKernelFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus run")
	}
	for _, k := range All() {
		k := k
		t.Run(k.ID(), func(t *testing.T) {
			sizes := k.WGSizes()
			wg := sizes[len(sizes)/2]
			f, err := k.Compile(wg)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if err := interp.Run(f, k.Config(wg)); err != nil {
				t.Fatalf("run: %v", err)
			}
		})
	}
}

func TestGemmMatchesReference(t *testing.T) {
	k := Find("gemm", "gemm")
	if k == nil {
		t.Fatal("gemm missing")
	}
	const wg = 64
	f, err := k.Compile(wg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := k.Config(wg)
	// Snapshot inputs.
	n := int(k.Scalars["ni"])
	A := append([]float64(nil), cfg.Buffers["A"].F...)
	B := append([]float64(nil), cfg.Buffers["B"].F...)
	C := append([]float64(nil), cfg.Buffers["C"].F...)
	if err := interp.Run(f, cfg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := C[i*n+j] * 0.5
			for kk := 0; kk < n; kk++ {
				want += 1.5 * float64(float32(A[i*n+kk])) * float64(float32(B[kk*n+j]))
			}
			got := cfg.Buffers["C"].F[i*n+j]
			if math.Abs(got-want) > 1e-2*(math.Abs(want)+1) {
				t.Fatalf("C[%d][%d] = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestKmeansCenterMatchesReference(t *testing.T) {
	k := Find("kmeans", "center")
	if k == nil {
		t.Fatal("kmeans/center missing")
	}
	f, err := k.Compile(64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := k.Config(64)
	feat := append([]float64(nil), cfg.Buffers["feature"].F...)
	clus := append([]float64(nil), cfg.Buffers["clusters"].F...)
	if err := interp.Run(f, cfg); err != nil {
		t.Fatal(err)
	}
	npoints, nclusters, nfeatures := 2048, 5, 8
	for p := 0; p < npoints; p += 97 {
		best, bestd := 0, math.Inf(1)
		for c := 0; c < nclusters; c++ {
			d := 0.0
			for ft := 0; ft < nfeatures; ft++ {
				diff := feat[p*nfeatures+ft] - clus[c*nfeatures+ft]
				d += diff * diff
			}
			if d < bestd {
				bestd, best = d, c
			}
		}
		if got := cfg.Buffers["membership"].I[p]; got != int64(best) {
			t.Fatalf("membership[%d] = %d, want %d", p, got, best)
		}
	}
}

func TestPathfinderMatchesReference(t *testing.T) {
	k := Find("pathfinder", "dynproc")
	if k == nil {
		t.Fatal("pathfinder missing")
	}
	const wg = 64
	f, err := k.Compile(wg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := k.Config(wg)
	cols, iters := 2048, 8
	wall := append([]int64(nil), cfg.Buffers["wall"].I...)
	src := append([]int64(nil), cfg.Buffers["src"].I...)
	if err := interp.Run(f, cfg); err != nil {
		t.Fatal(err)
	}
	// Reference: same wavefront with WG-local neighborhoods.
	prev := append([]int64(nil), src...)
	for it := 0; it < iters; it++ {
		next := make([]int64, cols)
		for g := 0; g < cols; g++ {
			l := g % wg
			left, right := prev[g], prev[g]
			if l > 0 {
				left = prev[g-1]
			}
			if l < wg-1 {
				right = prev[g+1]
			}
			best := prev[g]
			if left < best {
				best = left
			}
			if right < best {
				best = right
			}
			next[g] = best + wall[it*cols+g]
		}
		prev = next
	}
	for g := 0; g < cols; g += 131 {
		if got := cfg.Buffers["dst"].I[g]; got != prev[g] {
			t.Fatalf("dst[%d] = %d, want %d", g, got, prev[g])
		}
	}
}

func TestLocalSplit2D(t *testing.T) {
	k := &Kernel{TwoD: true}
	cases := map[int64][3]int64{
		16:  {4, 4, 1},
		64:  {8, 8, 1},
		256: {16, 16, 1},
	}
	for wg, want := range cases {
		if got := k.Local(wg); got != want {
			t.Errorf("Local(%d) = %v, want %v", wg, got, want)
		}
	}
	k1 := &Kernel{}
	if got := k1.Local(128); got != [3]int64{128, 1, 1} {
		t.Errorf("1D Local = %v", got)
	}
}

func TestConfigDeterministic(t *testing.T) {
	k := Find("hotspot", "hotspot")
	a := k.Config(64)
	b := k.Config(64)
	for name, buf := range a.Buffers {
		other := b.Buffers[name]
		for i := range buf.F {
			if buf.F[i] != other.F[i] {
				t.Fatalf("%s differs at %d", name, i)
			}
		}
	}
}

// TestRegistryHashes: a registered kernel's SourceHash and CacheKey,
// computed once per process, equal a fresh computation on a by-value
// copy and cost no allocation; a copy with a changed launch gets its own
// CacheKey.
func TestRegistryHashes(t *testing.T) {
	for _, k := range All() {
		c := *k
		if got, want := k.SourceHash(), c.SourceHash(); got != want {
			t.Errorf("%s: SourceHash %s, fresh copy %s", k.ID(), got, want)
		}
		if got, want := k.CacheKey(), c.CacheKey(); got != want {
			t.Errorf("%s: CacheKey %s, fresh copy %s", k.ID(), got, want)
		}
		if n := testing.AllocsPerRun(10, func() { _, _ = k.SourceHash(), k.CacheKey() }); n != 0 {
			t.Errorf("%s: hashing a registered kernel allocates %.0f times", k.ID(), n)
		}
		c.Global[0] *= 2
		if c.CacheKey() == k.CacheKey() {
			t.Errorf("%s: a copy with Global %v keeps the registered CacheKey", k.ID(), c.Global)
		}
		if c.SourceHash() != k.SourceHash() {
			t.Errorf("%s: a copy with another Global changed its SourceHash", k.ID())
		}
	}
}

// TestSizeIndependentCompilesAlike pins the compile rule prep relies on
// to compile a kernel once for its whole WG sweep. Every bundled and
// generated kernel SizeIndependent accepts compiles to the same code at
// every size of its sweep as at the largest, and the kernels it refuses
// are exactly the ten whose source names WG.
func TestSizeIndependentCompilesAlike(t *testing.T) {
	var dependent []string
	for _, k := range append(All(), GeneratedCorpus()...) {
		if !k.SizeIndependent() {
			dependent = append(dependent, k.ID())
			continue
		}
		wgs := k.WGSizes()
		largest, err := k.Compile(wgs[len(wgs)-1])
		if err != nil {
			t.Fatal(err)
		}
		for _, wg := range wgs[:len(wgs)-1] {
			f, err := k.Compile(wg)
			if err != nil {
				t.Fatal(err)
			}
			if !largest.SameCode(f) {
				t.Errorf("%s: called size-independent, but WG %d compiles to other code than WG %d", k.ID(), wg, wgs[len(wgs)-1])
			}
		}
	}
	want := []string{
		"dwt2d/fdwt", "hotspot/hotspot", "hybridsort/prefix", "nw/nw1", "nw/nw2",
		"particlefilter/sum", "pathfinder/dynproc", "srad/reduce",
	}
	if len(dependent) != len(want)+2 || !slices.Equal(dependent[:len(want)], want) {
		t.Errorf("size-dependent kernels %v, want %v and two generated reductions", dependent, want)
	}
	for _, id := range dependent[len(want):] {
		if !strings.HasPrefix(id, "gen/reduce") {
			t.Errorf("generated kernel %s is size-dependent", id)
		}
	}
}

// TestSizeIndependentRule pins what the rule reads: the text WG
// anywhere in the source, a comment or a longer identifier included,
// keeps a kernel per-size, and Defines that set WG make it
// size-independent.
func TestSizeIndependentRule(t *testing.T) {
	const body = "__kernel void k(__global float* a) {\n    int i = get_global_id(0);\n    %s\n}"
	for _, c := range []struct {
		name, src string
		defines   map[string]string
		want      bool
	}{
		{"no WG", fmt.Sprintf(body, "a[i] = 1.0f;"), nil, true},
		{"reads WG", fmt.Sprintf(body, "a[i] = WG;"), nil, false},
		{"WG in a comment", fmt.Sprintf(body, "a[i] = 1.0f; // one per WG"), nil, false},
		{"WG in an identifier", fmt.Sprintf(body, "int NWG = 2; a[i] = NWG;"), nil, false},
		{"Defines set WG", fmt.Sprintf(body, "a[i] = WG;"), map[string]string{"WG": "64"}, true},
	} {
		k := &Kernel{Bench: "rule", Name: "k", Fn: "k", Source: c.src, Defines: c.defines}
		if got := k.SizeIndependent(); got != c.want {
			t.Errorf("%s: SizeIndependent() = %v, want %v", c.name, got, c.want)
		}
		if !c.want {
			continue
		}
		f16, err16 := k.Compile(16)
		f256, err256 := k.Compile(256)
		if err16 != nil || err256 != nil {
			t.Fatalf("%s: %v, %v", c.name, err16, err256)
		}
		if !f16.SameCode(f256) {
			t.Errorf("%s: size-independent, but WG 16 and 256 compile to other code", c.name)
		}
	}
}
