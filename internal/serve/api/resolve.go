package api

import (
	"net/http"
	"strings"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/model"
)

// Flavor selects which API version's diagnostics a resolution emits.
// The validation logic is identical — only hint strings differ, so the
// v1 adapters stay byte-for-byte compatible with their historical
// error bodies.
type Flavor int

// API flavors.
const (
	V1 Flavor = iota + 1
	V2
)

func (f Flavor) kernelsPath() string {
	if f == V1 {
		return "/v1/kernels"
	}
	return "/v2/kernels"
}

// Resolved is a fully validated prediction/exploration target.
type Resolved struct {
	K *bench.Kernel
	P *device.Platform
	// PlatformKey is the catalogue key the platform was resolved from
	// (p.Name is the marketing name, e.g. "virtex7-xc7vx690t").
	PlatformKey string
	D           model.Design
}

// ResolvePredict validates a predict request end to end: kernel
// reference (corpus or inline), platform, then design against the
// kernel's sweep and the platform's resource limits.
func ResolvePredict(req PredictRequest, fl Flavor) (Resolved, *Error) {
	k, e := ResolveKernel(req.Kernel, fl)
	if e != nil {
		return Resolved{}, e
	}
	p, key, e := ResolvePlatform(req.Platform)
	if e != nil {
		return Resolved{}, e
	}
	d, e := ResolveDesign(k, p, req.Design)
	if e != nil {
		return Resolved{}, e
	}
	return Resolved{K: k, P: p, PlatformKey: key, D: d}, nil
}

// ResolveKernel maps a KernelRef to a kernel: corpus lookups answer
// not_found for unknown ids, inline references are compiled and get a
// synthesized workload. Mixing the corpus and inline shapes is
// rejected.
func ResolveKernel(ref KernelRef, fl Flavor) (*bench.Kernel, *Error) {
	if ref.IsInline() {
		if ref.ID != "" || ref.Bench != "" || ref.Kernel != "" {
			return nil, Errf(CodeBadRequest, http.StatusBadRequest,
				"kernel ref is ambiguous: give id, bench+kernel, or source — not both")
		}
		return inlineKernel(ref)
	}
	benchName, kernelName := ref.Bench, ref.Kernel
	if ref.ID != "" {
		if benchName != "" || kernelName != "" {
			return nil, Errf(CodeBadRequest, http.StatusBadRequest,
				"kernel ref is ambiguous: give id or bench+kernel, not both")
		}
		b, n, ok := strings.Cut(ref.ID, "/")
		if !ok {
			return nil, Errf(CodeBadRequest, http.StatusBadRequest,
				"kernel id %q must look like \"bench/kernel\"", ref.ID)
		}
		benchName, kernelName = b, n
	}
	if benchName == "" || kernelName == "" {
		if fl == V1 {
			return nil, Errf(CodeBadRequest, http.StatusBadRequest,
				"bench and kernel are required")
		}
		return nil, Errf(CodeBadRequest, http.StatusBadRequest,
			"kernel is required: give id, bench+kernel, or inline source+fn")
	}
	k := bench.Find(benchName, kernelName)
	if k == nil {
		return nil, Errf(CodeNotFound, http.StatusNotFound,
			"unknown kernel %s/%s (see GET %s)", benchName, kernelName, fl.kernelsPath())
	}
	return k, nil
}

// ResolvePlatform maps a platform name ("" = virtex7) to its catalogue
// entry and key. The platform is the process-wide catalogue's, shared by
// every request and never modified.
func ResolvePlatform(name string) (*device.Platform, string, *Error) {
	if name == "" {
		name = "virtex7"
	}
	p, ok := device.Lookup(name)
	if !ok {
		return nil, "", Errf(CodeBadRequest, http.StatusBadRequest,
			"unknown platform %q (known: %s)", name, strings.Join(device.PlatformNames(), ", "))
	}
	return p, name, nil
}

// ResolveDesign validates the wire design against the kernel's sweep
// bounds and the platform's resource limits, applying friendly
// defaults (zero values mean "the unoptimized choice").
func ResolveDesign(k *bench.Kernel, p *device.Platform, dj Design) (model.Design, *Error) {
	var zero model.Design
	wgs := k.WGSizes()
	if dj.WGSize == 0 {
		dj.WGSize = wgs[0]
	}
	valid := false
	for _, wg := range wgs {
		if wg == dj.WGSize {
			valid = true
			break
		}
	}
	if !valid {
		return zero, Errf(CodeBadRequest, http.StatusBadRequest,
			"wg_size %d not in the kernel's sweep %v", dj.WGSize, wgs)
	}
	if dj.PE == 0 {
		dj.PE = 1
	}
	if dj.CU == 0 {
		dj.CU = 1
	}
	d := model.Design{WGSize: dj.WGSize, WIPipeline: dj.WIPipeline, PE: dj.PE, CU: dj.CU}
	if err := model.ValidateDesign(p, d); err != nil {
		return zero, Errf(CodeBadRequest, http.StatusBadRequest, "%v", err)
	}
	switch dj.Mode {
	case "", "barrier":
		d.Mode = model.ModeBarrier
	case "pipeline":
		d.Mode = model.ModePipeline
	default:
		return zero, Errf(CodeBadRequest, http.StatusBadRequest,
			"mode %q must be \"barrier\" or \"pipeline\"", dj.Mode)
	}
	return d, nil
}

// DesignToWire renders a model.Design back into its wire form.
func DesignToWire(d model.Design) Design {
	return Design{
		WGSize: d.WGSize, WIPipeline: d.WIPipeline, PE: d.PE, CU: d.CU,
		Mode: d.Mode.String(),
	}
}

// KernelInfoOf builds the listing entry for one corpus kernel.
func KernelInfoOf(k *bench.Kernel, p *device.Platform) KernelInfo {
	return KernelInfo{
		ID:           k.ID(),
		Suite:        k.Suite,
		Bench:        k.Bench,
		Kernel:       k.Name,
		WorkItems:    k.NWI(),
		WGSizes:      k.WGSizes(),
		DesignPoints: len(dse.Space(k, p)),
	}
}
