package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/telemetry"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newBenchServer(b *testing.B, s *Server) *httptest.Server {
	b.Helper()
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	return ts
}

func newDebugTestServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.DebugHandler())
	t.Cleanup(ts.Close)
	return ts
}

var tracePredictBody = map[string]any{
	"kernel": map[string]any{"id": "hotspot/hotspot"},
	"design": map[string]any{
		"wg_size": 64, "wi_pipeline": true, "pe": 4, "cu": 2, "mode": "pipeline",
	},
}

// getTrace polls /debug/traces/{id} until the trace lands in the ring:
// the root span ends in a middleware defer, after the client already has
// the response, so an immediate GET can race the insert.
func getTrace(t *testing.T, base, id string) telemetry.TraceView {
	t.Helper()
	var v telemetry.TraceView
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp := getJSON(t, base+"/debug/traces/"+id, &v)
		if resp.StatusCode == http.StatusOK {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %q never appeared (last status %d)", id, resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func spanNames(sv telemetry.SpanView, into map[string]int) {
	into[sv.Name]++
	for _, c := range sv.Children {
		spanNames(c, into)
	}
}

// TestPredictTraceSpans is the tentpole's acceptance test: one cold
// /v2/predict produces a retrievable trace whose span tree names every
// pipeline stage, with durations that fit inside the request wall time.
func TestPredictTraceSpans(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(tracePredictBody)
	req, err := http.NewRequest("POST", ts.URL+"/v2/predict", &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "trace-e2e-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "trace-e2e-1" {
		t.Fatalf("response request id = %q, want the one sent", got)
	}

	v := getTrace(t, ts.URL, "trace-e2e-1")
	if v.Spans < 6 {
		t.Errorf("trace has %d spans, want ≥ 6", v.Spans)
	}
	names := map[string]int{}
	spanNames(v.Root, names)
	for _, want := range []string{"admission", "prep", "compile", "profile", "memtrace", "model"} {
		if names[want] == 0 {
			t.Errorf("trace missing %q span; got %v", want, names)
		}
	}
	// Per-stage attribution: each stage appears in the rollup, and the
	// root's direct children (sequential stages) fit in the wall time.
	for _, stage := range []string{"admission", "prep", "model"} {
		if _, ok := v.StageMS[stage]; !ok {
			t.Errorf("stage_ms missing %q: %v", stage, v.StageMS)
		}
	}
	var sum float64
	for _, c := range v.Root.Children {
		sum += c.DurationMS
	}
	if sum > v.DurationMS+0.5 {
		t.Errorf("children sum %.3fms exceeds request wall %.3fms", sum, v.DurationMS)
	}
	// Correlation annotations: kernel identity on the root, cache
	// outcome recorded, HTTP status annotated by the middleware.
	if v.Root.Attrs["kernel"] != "hotspot/hotspot" {
		t.Errorf("root kernel attr = %q", v.Root.Attrs["kernel"])
	}
	if v.Root.Attrs["cache"] != "miss" {
		t.Errorf("cold predict cache attr = %q, want miss", v.Root.Attrs["cache"])
	}
	if v.Root.Attrs["status"] != "200" {
		t.Errorf("status attr = %q, want 200", v.Root.Attrs["status"])
	}
	if v.Root.Attrs["source_hash"] == "" {
		t.Error("root missing source_hash attr")
	}

	// The listing includes it too.
	var list struct {
		Count  int                      `json:"count"`
		Traces []telemetry.TraceSummary `json:"traces"`
	}
	getJSON(t, ts.URL+"/debug/traces", &list)
	found := false
	for _, s := range list.Traces {
		if s.ID == "trace-e2e-1" {
			found = true
		}
	}
	if !found {
		t.Error("trace listing does not include the finished request")
	}
}

// TestRequestIDGeneratedAndInvalidReplaced: missing and malformed client
// ids both yield a server-generated id on the response.
func TestRequestIDGeneratedAndInvalidReplaced(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-ID"); id == "" {
		t.Error("no generated request id on the response")
	}

	for _, bad := range []string{"bad id with spaces", strings.Repeat("x", 65), "inj{ect}"} {
		req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
		req.Header.Set("X-Request-ID", bad)
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get("X-Request-ID")
		if id == "" || id == bad {
			t.Errorf("malformed client id %q not replaced: %q", bad, id)
		}
	}
}

// TestScrapePathsUntraced: /metrics and /healthz carry request ids but
// must not occupy the trace ring.
func TestScrapePathsUntraced(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, p := range []string{"/metrics", "/healthz", "/debug/traces"} {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if got := len(s.Tracer().List()); got != 0 {
		t.Errorf("scrape paths produced %d traces, want 0", got)
	}
}

// TestTracingDisabled: TraceCapacity<0 serves requests untraced and the
// trace API answers with an empty listing.
func TestTracingDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceCapacity: -1})
	resp, body := postJSON(t, ts.URL+"/v2/predict", tracePredictBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status = %d, body %s", resp.StatusCode, body)
	}
	var list struct {
		Count int `json:"count"`
	}
	getJSON(t, ts.URL+"/debug/traces", &list)
	if list.Count != 0 {
		t.Errorf("disabled tracer listed %d traces", list.Count)
	}
}

// TestBatchItemSpans: each batch item gets its own span subtree under
// the request trace.
func TestBatchItemSpans(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	items := make([]map[string]any, 3)
	for i := range items {
		items[i] = map[string]any{
			"kernel": map[string]any{"id": "hotspot/hotspot"},
			"design": map[string]any{
				"wg_size": 64, "wi_pipeline": true, "pe": 1 + i, "cu": 1, "mode": "pipeline",
			},
		}
	}
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(map[string]any{"items": items})
	req, _ := http.NewRequest("POST", ts.URL+"/v2/predict:batch", &buf)
	req.Header.Set("X-Request-ID", "batch-e2e")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	v := getTrace(t, ts.URL, "batch-e2e")
	names := map[string]int{}
	spanNames(v.Root, names)
	if names["item"] != 3 {
		t.Errorf("batch trace has %d item spans, want 3: %v", names["item"], names)
	}
}

// TestJobTrace: an exploration job records its own trace under the
// predictable job-{id} key, with the DSE stage spans. nn/nn compiles to
// the same code at every WG size, so its fill profiles the sweep once:
// that fill must still name every prep stage, and its profile span says
// it was shared and by how many WG sizes.
func TestJobTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v2/explore", map[string]any{
		"kernel": map[string]any{"id": "nn/nn"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("explore status = %d, body %s", resp.StatusCode, body)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	// Wait for the job to finish.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var jv struct {
			State string `json:"state"`
		}
		getJSON(t, ts.URL+"/v2/jobs/"+acc.ID, &jv)
		if jv.State == "done" || jv.State == "failed" {
			if jv.State != "done" {
				t.Fatalf("job state = %q", jv.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(25 * time.Millisecond)
	}
	v := getTrace(t, ts.URL, "job-"+acc.ID)
	names := map[string]int{}
	spanNames(v.Root, names)
	for _, want := range []string{"prep", "sweep", "compile", "profile", "memtrace", "devprofile"} {
		if names[want] == 0 {
			t.Errorf("job trace missing %q span: %v", want, names)
		}
	}
	var profile func(sv telemetry.SpanView) map[string]string
	profile = func(sv telemetry.SpanView) map[string]string {
		if sv.Name == "profile" {
			return sv.Attrs
		}
		for _, c := range sv.Children {
			if a := profile(c); a != nil {
				return a
			}
		}
		return nil
	}
	wgs := fmt.Sprint(len(bench.FindID("nn/nn").WGSizes()))
	if a := profile(v.Root); a["shared"] != "true" || a["wg_sizes"] != wgs {
		t.Errorf("profile span attrs = %v, want shared=true and wg_sizes=%s", a, wgs)
	}
}

// TestStageHistogramFed: finished traces feed the per-stage latency
// histogram on the metrics endpoint.
func TestStageHistogramFed(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v2/predict", tracePredictBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status = %d, body %s", resp.StatusCode, body)
	}
	// Wait for the deferred root-End to finish the trace.
	deadline := time.Now().Add(2 * time.Second)
	for s.reg.Histogram("stage_seconds", `stage="model"`).Count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stage_seconds{stage=model} never observed a sample")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var sb bytes.Buffer
	s.reg.WritePrometheus(&sb)
	if !bytes.Contains(sb.Bytes(), []byte(`flexcl_stage_seconds_count{stage="model"}`)) {
		t.Error("metrics output missing stage_seconds{stage=model}")
	}
}

// TestDebugHandler: the opt-in debug listener serves pprof and traces.
func TestDebugHandler(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// Produce one trace via the main handler.
	resp, _ := postJSON(t, ts.URL+"/v2/predict", tracePredictBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status = %d", resp.StatusCode)
	}
	dbg := newDebugTestServer(t, s)
	for _, p := range []string{"/debug/pprof/", "/debug/vars", "/debug/traces"} {
		r, err := http.Get(dbg.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", p, r.StatusCode)
		}
	}
}

// benchPredict measures the full HTTP round trip of a warm (pred-LRU
// hit) /v2/predict — the hot path TestTracingAllocs budgets — and of a
// warm 16-item /v2/predict:batch. Each body is read to its end, so the
// client keeps its connection alive as flexclclient does.
func benchPredict(b *testing.B, traceCapacity int) {
	s := New(Config{
		Logger:        discardLogger(),
		TraceCapacity: traceCapacity,
	})
	ts := newBenchServer(b, s)
	for _, arm := range []struct {
		name, path string
		body       any
	}{
		{"predict", "/v2/predict", tracePredictBody},
		{"batch16", "/v2/predict:batch", warmBatchBody},
	} {
		b.Run(arm.name, func(b *testing.B) {
			body, err := json.Marshal(arm.body)
			if err != nil {
				b.Fatal(err)
			}
			post := func() {
				resp, err := http.Post(ts.URL+arm.path, "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("%s status = %d", arm.path, resp.StatusCode)
				}
			}
			post() // warm the caches
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post()
			}
		})
	}
}

func BenchmarkPredictTraced(b *testing.B)   { benchPredict(b, 256) }
func BenchmarkPredictUntraced(b *testing.B) { benchPredict(b, -1) }

// tracingAllocBudget is how many heap allocations tracing may add to
// one warm /v2/predict. Measured with Go 1.24: +8 (88 vs 80), up to
// +11 under -race.
const tracingAllocBudget = 16

// TestTracingAllocs bounds the cost of tracing on the warm predict
// path by allocations per request, which — unlike a timed A/B on a
// shared machine — are deterministic enough to fail on. The request
// goes straight into Server.Handler() with a ResponseRecorder, so no
// socket or client allocations enter the count.
func TestTracingAllocs(t *testing.T) {
	body, err := json.Marshal(tracePredictBody)
	if err != nil {
		t.Fatal(err)
	}
	warmAllocs := func(traceCapacity int) float64 {
		s := New(Config{Logger: discardLogger(), TraceCapacity: traceCapacity})
		t.Cleanup(func() {
			if err := s.Close(context.Background()); err != nil {
				t.Error(err)
			}
		})
		h := s.Handler()
		predict := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/predict", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("predict status = %d, body %s", rec.Code, rec.Body)
			}
		}
		predict() // fill the prediction cache
		return testing.AllocsPerRun(100, predict)
	}
	traced, untraced := warmAllocs(256), warmAllocs(-1)
	t.Logf("warm /v2/predict: %.0f allocs traced, %.0f untraced", traced, untraced)
	if traced-untraced > tracingAllocBudget {
		t.Errorf("tracing adds %.0f allocs per warm predict (%.0f vs %.0f), budget %d",
			traced-untraced, traced, untraced, tracingAllocBudget)
	}
}
