// Package obs is the observability layer of the FlexCL service: a
// small stdlib-only metrics registry (counters, gauges and latency
// histograms) rendered both through expvar and in Prometheus text
// exposition format, plus structured request logging built on log/slog.
//
// The registry is deliberately tiny — no client_golang dependency — but
// keeps the Prometheus data model (metric families with a TYPE, label
// sets per child, cumulative histogram buckets) so a real scraper can
// consume /metrics unchanged.
package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default latency histogram bucket upper bounds in
// seconds, spanning cache-hit predictions (sub-millisecond) to full
// design-space explorations (seconds).
var DefBuckets = []float64{
	0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// QueueBuckets are histogram bounds for admission-queue waits, in
// seconds. Most admissions are immediate (the 100 µs bucket) and the
// interesting signal is sub-second contention, so the resolution is
// concentrated below DefBuckets' first bound.
var QueueBuckets = []float64{
	0.0001, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can move in both directions.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram (Prometheus
// semantics: bucket counts are cumulative, +Inf is implicit).
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // sorted upper bounds
	counts  []uint64  // per-bucket (non-cumulative) counts; len = len(bounds)+1
	sum     float64
	samples uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.samples++
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.samples
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// snapshot returns cumulative bucket counts, the sum and the total.
func (h *Histogram) snapshot() (cum []uint64, sum float64, total uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]uint64, len(h.counts))
	var run uint64
	for i, c := range h.counts {
		run += c
		cum[i] = run
	}
	return cum, h.sum, h.samples
}

// metric family types.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

type family struct {
	name  string
	typ   string
	order []string // label sets in first-seen order
	items map[string]any
}

// Registry is a named collection of metric families. Get-or-create
// accessors make call sites self-registering:
//
//	reg.Counter("requests_total", `route="/v1/predict",code="200"`).Inc()
type Registry struct {
	namespace string
	mu        sync.Mutex
	order     []string
	fams      map[string]*family
	help      map[string]string // family name → HELP text (see Help)
}

// NewRegistry returns an empty registry; namespace (e.g. "flexcl")
// prefixes every exported metric name.
func NewRegistry(namespace string) *Registry {
	return &Registry{namespace: namespace, fams: make(map[string]*family), help: make(map[string]string)}
}

func (r *Registry) family(name, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, typ: typ, items: make(map[string]any)}
		r.fams[name] = f
		r.order = append(r.order, name)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.typ, typ))
	}
	return f
}

func (r *Registry) child(name, typ, labels string, mk func() any) any {
	f := r.family(name, typ)
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := f.items[labels]
	if !ok {
		m = mk()
		f.items[labels] = m
		f.order = append(f.order, labels)
	}
	return m
}

// Counter returns the counter child for a label set (`k="v",k2="v2"` or
// "" for no labels), creating it on first use.
func (r *Registry) Counter(name, labels string) *Counter {
	return r.child(name, typeCounter, labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge child for a label set, creating it on first use.
func (r *Registry) Gauge(name, labels string) *Gauge {
	return r.child(name, typeGauge, labels, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the histogram child for a label set, creating it
// with the given bucket bounds (DefBuckets when empty) on first use.
func (r *Registry) Histogram(name, labels string, buckets ...float64) *Histogram {
	return r.child(name, typeHistogram, labels, func() any {
		b := buckets
		if len(b) == 0 {
			b = DefBuckets
		}
		bounds := append([]float64(nil), b...)
		sort.Float64s(bounds)
		return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	}).(*Histogram)
}

// Help sets the HELP string of a family (optional; shown in /metrics).
// It may be called before the family's first child exists: the text is
// kept by name and rendered once the family does.
func (r *Registry) Help(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = help
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// escapeLabelValue escapes a label value per the Prometheus text
// exposition format: backslash, double-quote and newline.
func escapeLabelValue(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string per the text exposition format:
// backslash and newline (quotes are legal in help text).
func escapeHelp(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Label renders one `key="value"` label pair with the value escaped, so
// call sites carrying arbitrary strings (kernel ids, error text,
// versions) cannot corrupt the exposition format. Join several with
// Labels.
func Label(key, value string) string {
	return key + `="` + escapeLabelValue(value) + `"`
}

// Labels joins pre-rendered label pairs into one label-set string.
func Labels(pairs ...string) string { return strings.Join(pairs, ",") }

func withLabels(base, extra string) string {
	switch {
	case base == "" && extra == "":
		return ""
	case base == "":
		return "{" + extra + "}"
	case extra == "":
		return "{" + base + "}"
	default:
		return "{" + base + "," + extra + "}"
	}
}

// WritePrometheus renders every family in registration order in the
// Prometheus text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	r.mu.Unlock()
	for _, name := range names {
		r.mu.Lock()
		f := r.fams[name]
		labelSets := append([]string(nil), f.order...)
		typ, help := f.typ, r.help[name]
		r.mu.Unlock()

		full := r.namespace + "_" + name
		if help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", full, escapeHelp(help))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", full, typ)
		for _, labels := range labelSets {
			r.mu.Lock()
			m := f.items[labels]
			r.mu.Unlock()
			switch v := m.(type) {
			case *Counter:
				fmt.Fprintf(w, "%s%s %d\n", full, withLabels(labels, ""), v.Value())
			case *Gauge:
				fmt.Fprintf(w, "%s%s %s\n", full, withLabels(labels, ""), fmtFloat(v.Value()))
			case *Histogram:
				cum, sum, total := v.snapshot()
				for i, bound := range v.bounds {
					le := `le="` + fmtFloat(bound) + `"`
					fmt.Fprintf(w, "%s_bucket%s %d\n", full, withLabels(labels, le), cum[i])
				}
				fmt.Fprintf(w, "%s_bucket%s %d\n", full, withLabels(labels, `le="+Inf"`), total)
				fmt.Fprintf(w, "%s_sum%s %s\n", full, withLabels(labels, ""), fmtFloat(sum))
				fmt.Fprintf(w, "%s_count%s %d\n", full, withLabels(labels, ""), total)
			}
		}
	}
}

// Expvar returns an expvar.Func exposing a flat snapshot of every
// metric (histograms as {count, sum}).
func (r *Registry) Expvar() expvar.Func {
	return func() any {
		out := make(map[string]any)
		r.mu.Lock()
		names := append([]string(nil), r.order...)
		r.mu.Unlock()
		for _, name := range names {
			r.mu.Lock()
			f := r.fams[name]
			labelSets := append([]string(nil), f.order...)
			r.mu.Unlock()
			for _, labels := range labelSets {
				r.mu.Lock()
				m := f.items[labels]
				r.mu.Unlock()
				key := name + withLabels(labels, "")
				switch v := m.(type) {
				case *Counter:
					out[key] = v.Value()
				case *Gauge:
					out[key] = v.Value()
				case *Histogram:
					out[key] = map[string]any{"count": v.Count(), "sum": v.Sum()}
				}
			}
		}
		return out
	}
}

var publishMu sync.Mutex

// PublishExpvar publishes the registry under the given expvar name,
// skipping silently when the name is already taken (expvar.Publish
// panics on duplicates, which would break multi-server tests).
func (r *Registry) PublishExpvar(name string) {
	publishMu.Lock()
	defer publishMu.Unlock()
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, r.Expvar())
}
