package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry("t")
	c := r.Counter("reqs_total", `route="/x"`)
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same (name, labels) returns the same child.
	if r.Counter("reqs_total", `route="/x"`) != c {
		t.Fatal("counter not memoized")
	}
	g := r.Gauge("inflight", "")
	g.Set(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %v, want 2", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry("t")
	h := r.Histogram("lat_seconds", "", 0.01, 0.1, 1)
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	var sb bytes.Buffer
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE t_lat_seconds histogram",
		`t_lat_seconds_bucket{le="0.01"} 1`,
		`t_lat_seconds_bucket{le="0.1"} 2`,
		`t_lat_seconds_bucket{le="1"} 3`,
		`t_lat_seconds_bucket{le="+Inf"} 4`,
		"t_lat_seconds_count 4",
		"t_lat_seconds_sum 5.555",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestPrometheusTextFormat(t *testing.T) {
	r := NewRegistry("flexcl")
	r.Counter("requests_total", `route="/v1/predict",code="200"`).Add(7)
	r.Counter("requests_total", `route="/v1/predict",code="404"`).Add(2)
	r.Help("requests_total", "HTTP requests by route and status.")
	// Help before the family exists still renders once it does.
	r.Help("cache_entries", "Resident cache entries.")
	r.Gauge("cache_entries", "").Set(42)
	var sb bytes.Buffer
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# HELP flexcl_requests_total HTTP requests by route and status.",
		"# TYPE flexcl_requests_total counter",
		`flexcl_requests_total{route="/v1/predict",code="200"} 7`,
		`flexcl_requests_total{route="/v1/predict",code="404"} 2`,
		"# HELP flexcl_cache_entries Resident cache entries.",
		"# TYPE flexcl_cache_entries gauge",
		"flexcl_cache_entries 42",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Rendering is deterministic (registration order).
	var sb2 bytes.Buffer
	r.WritePrometheus(&sb2)
	if sb2.String() != out {
		t.Error("non-deterministic rendering")
	}
}

func TestConcurrentMetricUpdates(t *testing.T) {
	r := NewRegistry("t")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("hits_total", "").Inc()
				r.Gauge("g", "").Add(1)
				r.Histogram("h", "").Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits_total", "").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("g", "").Value(); got != 8000 {
		t.Fatalf("gauge = %v, want 8000", got)
	}
	if got := r.Histogram("h", "").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestExpvarSnapshot(t *testing.T) {
	r := NewRegistry("t")
	r.Counter("reqs_total", `code="200"`).Add(3)
	r.Histogram("lat", "").Observe(0.2)
	raw := r.Expvar().String()
	var m map[string]any
	if err := json.Unmarshal([]byte(raw), &m); err != nil {
		t.Fatalf("expvar output not JSON: %v\n%s", err, raw)
	}
	if m[`reqs_total{code="200"}`] != float64(3) {
		t.Fatalf("missing counter in %v", m)
	}
	// Publishing twice under one name must not panic.
	r.PublishExpvar("obs_test_metrics")
	r.PublishExpvar("obs_test_metrics")
}

func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewJSONHandler(&buf, nil))
	h := AccessLog(log, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte("short and stout"))
	}))
	req := httptest.NewRequest("GET", "/v1/kernels", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("log line not JSON: %v\n%s", err, buf.String())
	}
	if line["code"] != float64(http.StatusTeapot) {
		t.Errorf("code = %v, want 418", line["code"])
	}
	if line["path"] != "/v1/kernels" {
		t.Errorf("path = %v", line["path"])
	}
	if line["bytes"] != float64(len("short and stout")) {
		t.Errorf("bytes = %v", line["bytes"])
	}
}
