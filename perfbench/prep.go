package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/dram"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/trace"
)

// Profiling parameters of the timed path: dse.PrepCache profiles 8
// work-groups and model.Analyze's defaults size the micro-benchmarks.
const (
	profileGroups = 8
	opSamples     = 256
	dramSamples   = 4096
)

// tracedPrep prepares one (kernel, WG size) through the same exported
// calls dse.PrepCache makes behind one fill — compile, profile,
// memtrace, device and DRAM profiling — each in its own span, and
// assembles the model.Analysis the cache would hold.
func tracedPrep(t *tracer, p *device.Platform, k *bench.Kernel, wg int64) (*model.Analysis, error) {
	var f *ir.Func
	var err error
	t.call("irgen", func() {
		f, err = k.Compile(wg)
		if err == nil {
			f.EnsureLoops()
		}
	})
	if err != nil {
		return nil, err
	}
	cfg := k.Config(wg)
	var prof *interp.Profile
	t.allocs("interp", func() {
		t.call("interp", func() { prof, err = interp.ProfileKernel(f, cfg, profileGroups) })
	})
	if err != nil {
		return nil, fmt.Errorf("profiling %s wg=%d: %w", k.ID(), wg, err)
	}
	t.count("interp.profiles", 1)
	if prof.Source == interp.SourceStatic {
		t.count("interp.static", 1)
	}
	for _, tr := range prof.Traces {
		t.count("interp.accesses", int64(len(tr)))
	}
	nd := cfg.Range.Normalize()
	var cls *trace.Classified
	t.allocs("trace", func() {
		t.call("trace", func() {
			layout := trace.NewLayout(f, trace.BufferCounts(f, cfg), p.DRAM)
			cls = trace.ClassifyGrouped(prof.Traces, nd.WorkGroupSize(), layout, p.DRAM, p.MemAccessUnitBits/8)
		})
	})
	var table *device.LatencyTable
	t.call("device", func() { table = device.Profile(p, opSamples) })
	var patLat dram.PatternLatencies
	t.call("dram", func() { patLat = dram.ProfilePatterns(p.DRAM, dramSamples, device.HashString(p.Name)) })
	return &model.Analysis{
		F:        f,
		Platform: p,
		Table:    table,
		PatLat:   patLat,
		Freq:     prof.BlockCounts,
		Mem:      cls,
		NWI:      nd.TotalWorkItems(),
		WGSize:   nd.WorkGroupSize(),
		Barriers: prof.Barriers,
	}, nil
}

// tracedSave persists an assembled analysis the way a prep-cache fill
// does after computing it.
func tracedSave(t *tracer, st *artifact.Store, key artifact.Key, an *model.Analysis, fill time.Duration) error {
	var err error
	t.call("artifact.save", func() { err = st.Save(artifact.New(key, an, fill)) })
	if err != nil {
		return err
	}
	t.countFile(st.Path(key))
	return nil
}

func artifactKey(k *bench.Kernel, p *device.Platform, wg int64) artifact.Key {
	return artifact.Key{Kernel: k.CacheKey(), Platform: p.Name, WG: wg}
}

// countFile adds the size of an artifact file to artifact.bytes.
func (t *tracer) countFile(path string) {
	if t == nil {
		return
	}
	if fi, err := os.Stat(path); err == nil {
		t.count("artifact.bytes", fi.Size())
	}
}
