// Package bench provides the evaluation workloads of the paper (§4.1):
// all 45 Rodinia kernels of Table 2 and 15 PolyBench kernels, rewritten
// in the supported OpenCL subset with deterministic input generators.
// Each kernel preserves the loop structure, local-memory staging,
// barriers and global-access patterns of its original — the features the
// FlexCL model consumes.
package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/opencl/ast"
)

// Fill selects a deterministic buffer initializer.
type Fill int

// Buffer fill patterns.
const (
	FillZero Fill = iota
	FillRamp      // 0, 1, 2, ...
	FillMod       // (i % 17) * 0.5
	FillOne
	FillPerm    // pseudo-random permutation of [0, Len)
	FillSmall   // small positive ints (i%7 + 1)
	FillNoise   // deterministic pseudo-noise in [0, 1)
	FillRowPtr  // CSR-style row offsets: i * Aux
	FillConst   // constant Aux
	FillDiagDom // diagonally dominant matrix of row width Aux
)

// Buf describes one global buffer argument.
type Buf struct {
	Name  string
	Float bool
	Kind  ast.BaseKind // element kind; KFloat/KInt defaults apply when 0
	Len   int64
	Fill  Fill
	// Aux parameterizes some fills: row stride for FillRowPtr and
	// FillDiagDom, the constant for FillConst.
	Aux int64
	// Mod, when positive, reduces every generated value modulo Mod
	// (useful for index buffers that must stay in range).
	Mod int64
}

// Kernel is one benchmark kernel with its workload.
type Kernel struct {
	Suite  string // "rodinia" or "polybench"
	Bench  string // e.g. "backprop"
	Name   string // e.g. "layer" (Table 2 kernel name)
	Fn     string // kernel function name in Source
	Source string

	// Global is the NDRange global size.
	Global [3]int64
	// TwoD lays work-groups out in two dimensions.
	TwoD bool
	// MinWG/MaxWG bound the work-group-size sweep (local arrays sized by
	// the WG macro bound the upper end).
	MinWG, MaxWG int64

	Bufs    []Buf
	Scalars map[string]int64
	// FloatScalars names the Scalars whose parameter is floating-point.
	// Config binds each scalar by its parameter's type: these as floats,
	// the rest as integers. Inline kernels fill it from the compiled
	// parameters; a bundled kernel that omits one fails its launch with
	// a type error instead of reading 0.
	FloatScalars map[string]bool
	Defines      map[string]string
}

// ID returns "bench/kernel".
func (k *Kernel) ID() string { return k.Bench + "/" + k.Name }

// SourceHash returns a stable hex digest of everything that determines
// the kernel's compiled form — source text, entry point and macro
// definitions — so caches keyed on it are invalidated the moment the
// kernel text changes. A registered kernel's digest is computed once
// per process (registryHashes); any other Kernel value, a by-value copy
// of a registered one included, hashes on every call.
func (k *Kernel) SourceHash() string {
	if h, ok := registryHashes()[k]; ok {
		return h.source
	}
	return k.sourceHash()
}

func (k *Kernel) sourceHash() string {
	h := sha256.New()
	h.Write([]byte(k.Fn))
	h.Write([]byte{0})
	h.Write([]byte(k.Source))
	keys := make([]string, 0, len(k.Defines))
	for key := range k.Defines {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		h.Write([]byte{0})
		h.Write([]byte(key))
		h.Write([]byte{'='})
		h.Write([]byte(k.Defines[key]))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// CacheKey returns a stable hex digest of everything that determines
// the kernel's *analysis*: the compiled form (SourceHash) plus the
// workload — NDRange geometry, buffer specs and scalar arguments.
// Analyses cached under this key may be shared by any two Kernel values
// with equal keys, even distinct allocations (e.g. inline kernels
// submitted by different API requests carrying identical source and
// launch), which is what lets a serving layer coalesce their
// compile+analyze work. Like SourceHash, it is computed once per
// process for a registered kernel and on every call for any other.
func (k *Kernel) CacheKey() string {
	if h, ok := registryHashes()[k]; ok {
		return h.cache
	}
	return k.cacheKey(k.sourceHash())
}

// cacheKey is CacheKey over the kernel's source hash src.
func (k *Kernel) cacheKey(src string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|g=%v|2d=%v", src, k.Global, k.TwoD)
	for _, b := range k.Bufs {
		fmt.Fprintf(h, "|b=%s,%v,%d,%d,%d,%d,%d", b.Name, b.Float, b.Kind, b.Len, b.Fill, b.Aux, b.Mod)
	}
	keys := make([]string, 0, len(k.Scalars))
	for key := range k.Scalars {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		fmt.Fprintf(h, "|s=%s=%d", key, k.Scalars[key])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// NWI returns the total work-items of the launch.
func (k *Kernel) NWI() int64 {
	n := int64(1)
	for _, g := range k.Global {
		if g > 0 {
			n *= g
		}
	}
	return n
}

// WGSizes enumerates the power-of-two work-group sizes of the sweep.
func (k *Kernel) WGSizes() []int64 {
	lo, hi := k.MinWG, k.MaxWG
	if lo <= 0 {
		lo = 16
	}
	if hi <= 0 {
		hi = 256
	}
	var out []int64
	for wg := lo; wg <= hi; wg *= 2 {
		out = append(out, wg)
	}
	return out
}

// Compile builds the kernel's IR at one work-group size: the WG macro is
// predefined so local arrays scale with the sweep.
func (k *Kernel) Compile(wg int64) (*ir.Func, error) {
	defines := map[string]string{"WG": fmt.Sprint(wg)}
	for key, v := range k.Defines {
		defines[key] = v
	}
	m, err := irgen.Compile(k.ID()+".cl", []byte(k.Source), defines)
	if err != nil {
		return nil, fmt.Errorf("bench %s: %w", k.ID(), err)
	}
	f := m.Kernel(k.Fn)
	if f == nil {
		return nil, fmt.Errorf("bench %s: kernel %s not found", k.ID(), k.Fn)
	}
	return f, nil
}

// SizeIndependent reports whether Compile gives the same code at every
// work-group size. WG is the only define that differs between sizes, and
// the lexer expands it only where the source spells the identifier: its
// macros are object-like, without token pasting, a predefined macro
// expands to an integer literal, and a directive's backslash-newline
// becomes a space. So a source that never contains the text "WG" cannot
// read the size, and neither can a kernel whose Defines set WG, which
// override the predefinition. A source that names WG only in a comment
// or inside a longer identifier is still called size-dependent.
func (k *Kernel) SizeIndependent() bool {
	if _, ok := k.Defines["WG"]; ok {
		return true
	}
	return !strings.Contains(k.Source, "WG")
}

// Local returns the local size for a work-group size, splitting two
// dimensions when the kernel is 2-D.
func (k *Kernel) Local(wg int64) [3]int64 {
	if !k.TwoD {
		return [3]int64{wg, 1, 1}
	}
	// Largest power-of-two y ≤ √wg.
	y := int64(1)
	for y*y*4 <= wg {
		y *= 2
	}
	return [3]int64{wg / y, y, 1}
}

// Config builds a fresh launch configuration (buffers filled
// deterministically) for one work-group size.
func (k *Kernel) Config(wg int64) *interp.Config {
	cfg := &interp.Config{
		Range:   interp.NDRange{Global: k.Global, Local: k.Local(wg)},
		Buffers: make(map[string]*interp.Buffer),
		Scalars: make(map[string]interp.Val),
	}
	for _, b := range k.Bufs {
		cfg.Buffers[b.Name] = makeBuf(b)
	}
	for name, v := range k.Scalars {
		if k.FloatScalars[name] {
			cfg.Scalars[name] = interp.FloatVal(float64(v))
		} else {
			cfg.Scalars[name] = interp.IntVal(v)
		}
	}
	return cfg
}

func makeBuf(b Buf) *interp.Buffer {
	kind := b.Kind
	if kind == ast.KVoid {
		if b.Float {
			kind = ast.KFloat
		} else {
			kind = ast.KInt
		}
	}
	n := int(b.Len)
	var buf *interp.Buffer
	if b.Float {
		buf = interp.NewFloatBuffer(kind, n)
	} else {
		buf = interp.NewIntBuffer(kind, n)
	}
	for i := 0; i < n; i++ {
		var fv float64
		var iv int64
		switch b.Fill {
		case FillRamp:
			fv, iv = float64(i), int64(i)
		case FillMod:
			fv, iv = float64(i%17)*0.5, int64(i%17)
		case FillOne:
			fv, iv = 1, 1
		case FillPerm:
			p := (int64(i)*2654435761 + 12345) % b.Len
			fv, iv = float64(p), p
		case FillSmall:
			fv, iv = float64(i%7+1), int64(i%7+1)
		case FillNoise:
			h := uint64(i) * 0x9e3779b97f4a7c15
			h ^= h >> 31
			fv = float64(h%1000) / 1000.0
			iv = int64(h % 1000)
		case FillRowPtr:
			aux := b.Aux
			if aux <= 0 {
				aux = 4
			}
			fv, iv = float64(int64(i)*aux), int64(i)*aux
		case FillConst:
			fv, iv = float64(b.Aux), b.Aux
		case FillDiagDom:
			aux := b.Aux
			if aux <= 0 {
				aux = 16
			}
			row, col := int64(i)/aux, int64(i)%aux
			if row == col {
				fv, iv = float64(aux)+8, aux+8
			} else {
				fv, iv = float64((int64(i)*7)%5)*0.25+0.25, (int64(i)*7)%5+1
			}
		}
		if b.Mod > 0 {
			iv = ((iv % b.Mod) + b.Mod) % b.Mod
			fv = float64(iv)
		}
		if b.Float {
			buf.F[i] = fv
		} else {
			buf.I[i] = iv
		}
	}
	return buf
}

var registry []*Kernel

// kernelHashes is one kernel's SourceHash and CacheKey.
type kernelHashes struct{ source, cache string }

// registryHashes maps each registered kernel to its hashes, computed on
// first use. The registry is complete once package init has run, and
// its kernels are never modified after it, so the table cannot go
// stale; a modified copy is a different pointer and misses it.
var registryHashes = sync.OnceValue(func() map[*Kernel]kernelHashes {
	m := make(map[*Kernel]kernelHashes, len(registry))
	for _, k := range registry {
		src := k.sourceHash()
		m[k] = kernelHashes{source: src, cache: k.cacheKey(src)}
	}
	return m
})

func register(k *Kernel) {
	if k.MinWG == 0 {
		k.MinWG = 16
	}
	if k.MaxWG == 0 {
		k.MaxWG = 256
	}
	registry = append(registry, k)
}

// All returns every registered kernel, Rodinia first, in stable order.
// All, Find and FindID hand out the registry's own kernels: callers must
// not modify them, and copy one by value to vary it.
func All() []*Kernel {
	out := make([]*Kernel, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Suite != out[j].Suite {
			return out[i].Suite == "rodinia"
		}
		if out[i].Bench != out[j].Bench {
			return out[i].Bench < out[j].Bench
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Suite returns the kernels of one suite.
func Suite(name string) []*Kernel {
	var out []*Kernel
	for _, k := range All() {
		if k.Suite == name {
			out = append(out, k)
		}
	}
	return out
}

// FindID returns the kernel with the given "bench/kernel" ID (the form
// Kernel.ID renders and the serving API accepts), or nil.
func FindID(id string) *Kernel {
	b, n, ok := strings.Cut(id, "/")
	if !ok {
		return nil
	}
	return Find(b, n)
}

// Find returns the kernel with the given bench and kernel name, or nil.
func Find(bench, name string) *Kernel {
	for _, k := range registry {
		if k.Bench == bench && k.Name == name {
			return k
		}
	}
	return nil
}
