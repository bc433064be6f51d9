package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/device"
	"repro/internal/model"
)

// metricDef names one reported metric and its unit. The two lists
// below are the benchmark's contract with BENCHMARK.json: every run
// prints every metric of its mode, and the determinism test checks the
// lists against the file.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by
// untraced runs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"alloc_mb", "MB"},
	{"heap_mb", "MB"},
	{"model_err_pct", "%"},
	{"sdaccel_err_pct", "%"},
}

// perLayer are the traced run's metrics. A layer a workload's pass does
// not reach reports 0.
var perLayer = []metricDef{
	{"irgen.calls", "count"}, {"irgen.self_ms", "ms"},
	{"interp.calls", "count"}, {"interp.self_ms", "ms"}, {"interp.static_share", "ratio"},
	{"interp.accesses", "count"}, {"interp.alloc_mb", "MB"},
	{"trace.calls", "count"}, {"trace.self_ms", "ms"}, {"trace.alloc_mb", "MB"},
	{"device.self_ms", "ms"}, {"dram.self_ms", "ms"}, {"device.distinct_ratio", "ratio"},
	{"model.calls", "count"}, {"model.self_ms", "ms"}, {"model.us_per_call", "us"}, {"model.allocs_per_call", "count"},
	{"baseline.calls", "count"}, {"baseline.self_ms", "ms"}, {"baseline.fail_ratio", "ratio"},
	{"dse.search_ms", "ms"}, {"dse.evaluated", "count"}, {"dse.pruned", "count"}, {"dse.eval_ratio", "ratio"},
	{"dse.prep_computes", "count"}, {"dse.prep_coalesced", "count"},
	{"artifact.saves", "count"},
	{"artifact.save_ms", "ms"}, {"artifact.bytes", "bytes"},
	{"serve.requests", "count"}, {"serve.server_ms", "ms"}, {"serve.queue_wait_ms", "ms"}, {"serve.shed", "count"},
	{"serve.pred_hit_ratio", "ratio"}, {"serve.edge_ms", "ms"}, {"serve.self_ms", "ms"},
	{"flexclclient.rtt_ms", "ms"}, {"flexclclient.self_ms", "ms"}, {"flexclclient.errors", "count"},
	{"rtlsim.calls", "count"}, {"rtlsim.self_ms", "ms"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_cpu_pct", "%"}, {"runtime.gc_pause_ms", "ms"},
	{"op.count", "count"}, {"op.traced_ms", "ms"}, {"other.self_ms", "ms"},
	{"tracing.pass_s", "s"}, {"tracing.untraced_pass_s", "s"}, {"tracing.overhead_s", "s"},
}

// selectMetrics keeps exactly the metrics of the run's mode. Per-layer
// metrics a workload does not produce are 0; a missing end-to-end
// metric is a bug in the workload's function.
func selectMetrics(all map[string]metric, traced bool) (map[string]metric, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := all[d.name]
		switch {
		case !ok && traced:
			m = metric{Value: 0, Unit: d.unit}
		case !ok:
			return nil, fmt.Errorf("metric %s not measured", d.name)
		case m.Unit != d.unit:
			return nil, fmt.Errorf("metric %s has unit %s, want %s", d.name, m.Unit, d.unit)
		}
		out[d.name] = m
	}
	return out, nil
}

// passStats accumulates the per-pass end-to-end measurements.
type passStats struct {
	wall, allocMB, heapMB []float64
	// opSec holds, per pass, each op's wall time in seconds (the batch
	// workloads' kernels, in draw order).
	opSec [][]float64
}

// measure times one pass and records its allocation and the live heap
// after it. keep is referenced after the forced GC, so the workload's
// caches count as live heap.
func (ps *passStats) measure(pass func() any) {
	a0 := totalAlloc()
	t0 := time.Now()
	keep := pass()
	wall := time.Since(t0)
	a1 := totalAlloc()
	ps.wall = append(ps.wall, wall.Seconds())
	ps.allocMB = append(ps.allocMB, float64(a1-a0)/1e6)
	ps.heapMB = append(ps.heapMB, liveHeapMB())
	runtime.KeepAlive(keep)
}

// report sets alloc_mb (median over passes) and heap_mb, the live heap
// after the first pass: the heap grows by a few MB with every pass
// (compiled functions stay reachable from process-wide caches), so a
// later pass's heap would depend on how many passes a run's --seconds
// allowed.
func (ps *passStats) report(r *run) {
	r.set("alloc_mb", "MB", median(ps.allocMB))
	r.set("heap_mb", "MB", ps.heapMB[0])
}

// reportBatch sets the batch workloads' times. pass_s is the sum over
// the draw's kernels of each kernel's median time across the run's
// passes: the host is a shared VM whose CPU steal comes in bursts of a
// few seconds, and a burst slows the kernels it overlaps in one pass,
// which the per-kernel median discards. A batch workload's op is one
// pass over the draw; fewer than 21 passes leave no percentile above
// the median with ten samples beyond it, so op_p50_ms and op_tail_ms
// both report that median pass.
func (ps *passStats) reportBatch(r *run) {
	ps.report(r)
	var total float64
	for k := range ps.opSec[0] {
		per := make([]float64, len(ps.opSec))
		for p := range ps.opSec {
			per[p] = ps.opSec[p][k]
		}
		total += median(per)
	}
	r.set("pass_s", "s", total)
	r.set("op_p50_ms", "ms", total*1e3)
	r.set("op_tail_ms", "ms", total*1e3)
	fmt.Printf("# %d passes of %d ops, wall %.3g s; pass_s sums each op's median\n", len(ps.wall), len(ps.opSec[0]), ps.wall)
}

// measured is the summed time of the passes so far.
func (ps *passStats) measured() float64 {
	var s float64
	for _, w := range ps.wall {
		s += w
	}
	return s
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// liveHeapMB forces a collection and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// gcWindow measures the Go runtime's collector over an interval.
type gcWindow struct {
	t0      time.Time
	ms      runtime.MemStats
	gcCPU   float64
	samples []metrics.Sample
}

func startGC() *gcWindow {
	w := &gcWindow{t0: time.Now(), samples: []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}}
	runtime.ReadMemStats(&w.ms)
	metrics.Read(w.samples)
	w.gcCPU = gcSeconds(w.samples)
	return w
}

func gcSeconds(s []metrics.Sample) float64 {
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// gcStats sums the collector's activity over measured windows.
type gcStats struct {
	cycles          uint32
	pauseNs         uint64
	cpuSec, wallSec float64
}

// stop adds the window's collector activity to acc.
func (w *gcWindow) stop(acc *gcStats) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(w.samples)
	acc.cycles += ms.NumGC - w.ms.NumGC
	acc.pauseNs += ms.PauseTotalNs - w.ms.PauseTotalNs
	acc.cpuSec += gcSeconds(w.samples) - w.gcCPU
	acc.wallSec += time.Since(w.t0).Seconds()
}

// report sets the runtime.* per-layer metrics.
func (g gcStats) report(r *run) {
	r.set("runtime.gc_cycles", "count", float64(g.cycles))
	r.set("runtime.gc_pause_ms", "ms", float64(g.pauseNs)/1e6)
	if g.wallSec > 0 {
		r.set("runtime.gc_cpu_pct", "%", g.cpuSec/(g.wallSec*float64(runtime.GOMAXPROCS(0)))*100)
	}
}

// reportLayers turns the first traced pass's spans and counts into the
// per-layer metrics, with op.traced_ms (the summed op time) split
// exactly into the layers' self times plus other.self_ms.
func reportLayers(r *run, t *tracer) {
	t.gc.report(r)
	layers, total := aggregate(t)
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	for _, name := range []string{"irgen", "interp", "trace", "model", "baseline", "rtlsim"} {
		r.set(name+".calls", "count", float64(layers[name].calls))
		r.set(name+".self_ms", "ms", ms(layers[name].self))
	}
	r.set("device.self_ms", "ms", ms(layers["device"].self))
	r.set("dram.self_ms", "ms", ms(layers["dram"].self))
	r.set("dse.search_ms", "ms", ms(layers["dse"].self))
	r.set("artifact.save_ms", "ms", ms(layers["artifact.save"].self))
	r.set("artifact.saves", "count", float64(layers["artifact.save"].calls))
	r.set("artifact.bytes", "bytes", float64(t.counts["artifact.bytes"]))
	r.set("op.count", "count", float64(t.ops()))
	r.set("op.traced_ms", "ms", ms(total))
	r.set("other.self_ms", "ms", ms(layers["op"].self))
	if n := t.counts["interp.profiles"]; n > 0 {
		r.set("interp.static_share", "ratio", float64(t.counts["interp.static"])/float64(n))
	}
	r.set("interp.accesses", "count", float64(t.counts["interp.accesses"]))
	r.set("interp.alloc_mb", "MB", float64(t.allocBytes["interp"])/1e6)
	r.set("trace.alloc_mb", "MB", float64(t.allocBytes["trace"])/1e6)
	if n := layers["model"].calls; n > 0 {
		r.set("model.us_per_call", "us", float64(layers["model"].self)/1e3/float64(n))
		r.set("model.allocs_per_call", "count", float64(t.allocObjs["model"])/float64(n))
	}
	// The layers' self times and other add up to the op time by
	// construction; a mismatch means spans were left open or nested
	// across ops.
	var sum time.Duration
	for name, lt := range layers {
		if name != "rtlsim" && name != "baseline" {
			sum += lt.self
		}
	}
	r.check(sum == total, "trace", "layer self times sum to %v, op time %v", sum, total)
}

// reportDistinct sets device.distinct_ratio, distinct platforms over
// device profiles, from the analyses the timed path built. Each
// device.Profile call returns a new latency table, so the profiles are
// the distinct tables: the ratio is 1/preps while every prep re-profiles
// the platform, and reaches 1 when the program profiles each platform
// once.
func reportDistinct(r *run, ans []*model.Analysis) {
	platforms := map[string]bool{}
	tables := map[*device.LatencyTable]bool{}
	for _, an := range ans {
		platforms[an.Platform.Name] = true
		tables[an.Table] = true
	}
	if len(tables) > 0 {
		r.set("device.distinct_ratio", "ratio", float64(len(platforms))/float64(len(tables)))
	}
}
