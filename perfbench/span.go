package main

import (
	"runtime"
	"time"
)

// span is one recorded interval: a call the benchmark made into a
// layer's exported function, or a segment of one op (layer "op").
type span struct {
	layer      string
	start, end time.Duration // offsets from the tracer's origin
	parent     int           // index into tracer.spans; -1 for op segments
	op         int           // op id shared by every span of one op
}

// tracer keeps spans and per-layer counts in memory for the traced run;
// they are aggregated when the run ends. One tracer is used from one
// goroutine, so a layer's self time (its span minus its children) sums
// with the others to the op's time. A nil *tracer records and counts
// nothing: the untraced half of each overhead pair runs the same op
// function with a nil tracer.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // stack of open span indices
	op     int
	// counts holds the counts the traced ops record next to their spans
	// (interp profiles, accesses, artifact bytes, ...).
	counts map[string]int64
	// allocBytes and allocObjs hold the heap bytes and objects allocated
	// inside a layer's calls, where allocs measured them.
	allocBytes, allocObjs map[string]uint64
	// gc is the collector's activity during the traced ops.
	gc gcStats
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), op: -1, counts: map[string]int64{},
		allocBytes: map[string]uint64{}, allocObjs: map[string]uint64{}}
}

// beginOp opens a segment of op id (an op may have several segments,
// for example dse-cold's prep and its search).
func (t *tracer) beginOp(id int) {
	if t == nil {
		return
	}
	t.op = id
	t.push("op")
}

func (t *tracer) endOp() {
	if t == nil {
		return
	}
	t.pop()
	t.op = -1
}

// call runs fn inside a span of layer.
func (t *tracer) call(layer string, fn func()) {
	if t == nil {
		fn()
		return
	}
	t.push(layer)
	fn()
	t.pop()
}

// allocs runs fn and adds the heap bytes and objects it allocates to
// layer. It reads the runtime's counters, so it only attributes
// correctly where nothing else allocates concurrently, which holds in
// the serial traced ops.
func (t *tracer) allocs(layer string, fn func()) {
	if t == nil {
		fn()
		return
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	t.allocBytes[layer] += b.TotalAlloc - a.TotalAlloc
	t.allocObjs[layer] += b.Mallocs - a.Mallocs
}

// count adds n to the named count.
func (t *tracer) count(name string, n int64) {
	if t != nil {
		t.counts[name] += n
	}
}

func (t *tracer) push(layer string) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{layer: layer, start: time.Since(t.origin), parent: parent, op: t.op})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) pop() {
	n := len(t.open)
	i := t.open[n-1]
	t.open = t.open[:n-1]
	t.spans[i].end = time.Since(t.origin)
}

// layerTime is one layer's aggregate over the traced pass.
type layerTime struct {
	calls int
	self  time.Duration
}

// aggregate folds the spans of ts into per-layer self times. A span's
// self time is its duration minus its children's; children of one span
// never overlap because each tracer's ops are serial. Layer "op"
// collects the op segments' self time: the part of each op no layer
// call covers. total is the summed duration of every op segment, which
// the self times of the layers called inside ops add up to exactly
// (rtlsim and baseline run outside ops, in the untimed accuracy check).
func aggregate(ts ...*tracer) (layers map[string]layerTime, total time.Duration) {
	layers = map[string]layerTime{}
	for _, t := range ts {
		child := make([]time.Duration, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range t.spans {
			d := s.end - s.start
			if s.layer == "op" {
				total += d
			}
			lt := layers[s.layer]
			lt.calls++
			lt.self += d - child[i]
			layers[s.layer] = lt
		}
	}
	return layers, total
}

// ops counts the distinct ops traced.
func (t *tracer) ops() int {
	seen := map[int]bool{}
	for _, s := range t.spans {
		if s.layer == "op" {
			seen[s.op] = true
		}
	}
	return len(seen)
}
