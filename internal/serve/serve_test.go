package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.pool.stop(ctx)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.Unmarshal(b, v); err != nil {
			t.Fatalf("bad JSON from %s: %v\n%s", url, err, b)
		}
	}
	return resp
}

func TestPredictHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/predict", map[string]any{
		"bench": "hotspot", "kernel": "hotspot",
		"design": map[string]any{
			"wg_size": 64, "wi_pipeline": true, "pe": 4, "cu": 2, "mode": "pipeline",
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Cycles <= 0 || pr.Seconds <= 0 {
		t.Fatalf("non-positive prediction: %+v", pr)
	}
	if pr.Cached {
		t.Error("first request reported cached")
	}
	// Same request again: must come out of the LRU cache, identically.
	resp2, body2 := postJSON(t, ts.URL+"/v1/predict", map[string]any{
		"bench": "hotspot", "kernel": "hotspot",
		"design": map[string]any{
			"wg_size": 64, "wi_pipeline": true, "pe": 4, "cu": 2, "mode": "pipeline",
		},
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp2.StatusCode)
	}
	var pr2 predictResponse
	if err := json.Unmarshal(body2, &pr2); err != nil {
		t.Fatal(err)
	}
	if !pr2.Cached {
		t.Error("second identical request missed the prediction cache")
	}
	if pr2.Cycles != pr.Cycles {
		t.Errorf("cached cycles %v != fresh cycles %v", pr2.Cycles, pr.Cycles)
	}
}

// TestPredictEveryKernel is the acceptance sweep: the service answers
// /v1/predict for every bundled Rodinia/PolyBench kernel.
func TestPredictEveryKernel(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus sweep skipped in -short")
	}
	_, ts := newTestServer(t, Config{RequestTimeout: 2 * time.Minute})
	for _, k := range bench.All() {
		resp, body := postJSON(t, ts.URL+"/v1/predict", map[string]any{
			"bench": k.Bench, "kernel": k.Name,
			"design": map[string]any{"wg_size": k.WGSizes()[0]},
		})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status = %d, body %s", k.ID(), resp.StatusCode, body)
		}
	}
}

func TestPredictUnknownKernel404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/predict", map[string]any{
		"bench": "nope", "kernel": "missing",
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404; body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "unknown kernel") {
		t.Errorf("unhelpful 404 body: %s", body)
	}
}

func TestPredictMalformed400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, tc := range map[string]struct {
		raw  string // used when non-empty
		body map[string]any
		want string
	}{
		"bad json":      {raw: "{not json", want: "bad request body"},
		"unknown field": {raw: `{"bench":"nn","kernel":"nn","bogus":1}`, want: "bogus"},
		"missing names": {body: map[string]any{}, want: "required"},
		"bad wg": {body: map[string]any{
			"bench": "nn", "kernel": "nn", "design": map[string]any{"wg_size": 57},
		}, want: "not in the kernel's sweep"},
		"bad mode": {body: map[string]any{
			"bench": "nn", "kernel": "nn", "design": map[string]any{"mode": "warp"},
		}, want: "barrier"},
		"pe too big": {body: map[string]any{
			"bench": "nn", "kernel": "nn",
			"design": map[string]any{"wi_pipeline": true, "pe": 1024},
		}, want: "pe 1024 out of range [1, 16]"},
		"cu too big": {body: map[string]any{
			"bench": "nn", "kernel": "nn", "design": map[string]any{"cu": 9},
		}, want: "cu 9 out of range [1, 4]"},
		"pe without pipeline": {body: map[string]any{
			"bench": "nn", "kernel": "nn", "design": map[string]any{"pe": 4},
		}, want: "pe 4 requires wi_pipeline (parallel PEs share the pipeline control)"},
		"bad platform": {body: map[string]any{
			"bench": "nn", "kernel": "nn", "platform": "stratix",
		}, want: "unknown platform"},
	} {
		t.Run(name, func(t *testing.T) {
			var resp *http.Response
			var body []byte
			if tc.raw != "" {
				r, err := http.Post(ts.URL+"/v1/predict", "application/json",
					strings.NewReader(tc.raw))
				if err != nil {
					t.Fatal(err)
				}
				defer r.Body.Close()
				body, _ = io.ReadAll(r.Body)
				resp = r
			} else {
				resp, body = postJSON(t, ts.URL+"/v1/predict", tc.body)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, body)
			}
			if !strings.Contains(string(body), tc.want) {
				t.Errorf("400 body %q missing %q", body, tc.want)
			}
		})
	}
}

func TestPredictTimeout504(t *testing.T) {
	// A deadline too short for any analysis: the handler must answer
	// 504, not hang or 200.
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	resp, body := postJSON(t, ts.URL+"/v1/predict", map[string]any{
		"bench": "srad", "kernel": "srad",
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "timed out") {
		t.Errorf("unhelpful 504 body: %s", body)
	}
}

func TestKernelsListing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var out struct {
		Count   int          `json:"count"`
		Kernels []kernelInfo `json:"kernels"`
	}
	resp := getJSON(t, ts.URL+"/v1/kernels", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Count != len(bench.All()) || len(out.Kernels) != out.Count {
		t.Fatalf("count = %d, want %d", out.Count, len(bench.All()))
	}
	for _, k := range out.Kernels {
		if k.ID == "" || len(k.WGSizes) == 0 || k.DesignPoints == 0 {
			t.Fatalf("degenerate kernel info: %+v", k)
		}
	}
}

func waitJob(t *testing.T, url string, timeout time.Duration) jobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var v jobView
		resp := getJSON(t, url, &v)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job poll status = %d", resp.StatusCode)
		}
		switch v.State {
		case JobDone, JobFailed, JobCanceled:
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", v.ID, v.State, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestExploreJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := postJSON(t, ts.URL+"/v1/explore", map[string]any{
		"bench": "nn", "kernel": "nn",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var acc struct {
		ID  string `json:"id"`
		URL string `json:"url"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if loc := resp.Header.Get("Location"); loc != acc.URL {
		t.Errorf("Location %q != url %q", loc, acc.URL)
	}
	v := waitJob(t, ts.URL+acc.URL, 2*time.Minute)
	if v.State != JobDone {
		t.Fatalf("job state = %s (%s)", v.State, v.Error)
	}
	if v.Summary == nil || v.Summary.Points == 0 || v.Summary.Best == nil {
		t.Fatalf("empty summary: %+v", v.Summary)
	}
	if v.Summary.Best.Est <= 0 {
		t.Errorf("best estimate %v", v.Summary.Best.Est)
	}
	if len(v.Summary.Top) == 0 || len(v.Summary.Top) > 10 {
		t.Errorf("top size %d", len(v.Summary.Top))
	}
}

func TestJobUnknown404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := getJSON(t, ts.URL+"/v1/jobs/j999999", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestExploreUnknownKernel404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := postJSON(t, ts.URL+"/v1/explore", map[string]any{
		"bench": "nope", "kernel": "nn",
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// TestConcurrentExploreJobs races several jobs over the shared prep
// cache and worker pool; run under -race in CI.
func TestConcurrentExploreJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3})
	kernels := [][2]string{
		{"nn", "nn"}, {"kmeans", "swap"}, {"gemm", "gemm"},
		{"nn", "nn"}, {"kmeans", "swap"}, {"gemm", "gemm"},
	}
	urls := make([]string, len(kernels))
	var wg sync.WaitGroup
	for i, kk := range kernels {
		wg.Add(1)
		go func(i int, benchName, kernel string) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/explore", map[string]any{
				"bench": benchName, "kernel": kernel,
			})
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit %d: status %d body %s", i, resp.StatusCode, body)
				return
			}
			var acc struct {
				URL string `json:"url"`
			}
			if err := json.Unmarshal(body, &acc); err != nil {
				t.Error(err)
				return
			}
			urls[i] = acc.URL
		}(i, kk[0], kk[1])
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, u := range urls {
		v := waitJob(t, ts.URL+u, 3*time.Minute)
		if v.State != JobDone {
			t.Errorf("job %d (%s): state %s (%s)", i, v.Kernel, v.State, v.Error)
		}
	}
}

// TestGracefulDrain submits jobs, fires the shutdown signal and checks
// that (a) every accepted job still finishes, (b) new work is refused,
// and (c) Serve returns within the drain budget.
func TestGracefulDrain(t *testing.T) {
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	s := New(Config{
		Addr: "127.0.0.1:0", Workers: 2, DrainTimeout: 2 * time.Minute,
		Logger: log,
	})
	if _, err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx) }()
	base := "http://" + s.Addr()

	// Occupy the pool with real explorations.
	var urls []string
	for _, kk := range [][2]string{{"nn", "nn"}, {"kmeans", "swap"}, {"gemm", "gemm"}} {
		resp, body := postJSON(t, base+"/v1/explore", map[string]any{
			"bench": kk[0], "kernel": kk[1],
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d %s", resp.StatusCode, body)
		}
		var acc struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &acc); err != nil {
			t.Fatal(err)
		}
		urls = append(urls, acc.ID)
	}

	cancel() // SIGTERM equivalent
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(3 * time.Minute):
		t.Fatal("Serve did not drain in time")
	}
	// Every accepted job ran to completion (none canceled or dropped).
	for _, id := range urls {
		j, ok := s.pool.get(id)
		if !ok {
			t.Fatalf("job %s dropped during drain", id)
		}
		if v := j.view(); v.State != JobDone {
			t.Errorf("job %s state after drain = %s (%s)", id, v.State, v.Error)
		}
	}
	// The pool refuses new intake after drain.
	if _, err := s.pool.submit(exploreRequest{Bench: "nn", Kernel: "nn", Platform: "virtex7"}); err == nil {
		t.Error("pool accepted a job after drain")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Generate traffic: one miss, one hit, one 404.
	req := map[string]any{
		"bench": "nn", "kernel": "nn",
		"design": map[string]any{"wg_size": 16},
	}
	postJSON(t, ts.URL+"/v1/predict", req)
	postJSON(t, ts.URL+"/v1/predict", req)
	postJSON(t, ts.URL+"/v1/predict", map[string]any{"bench": "x", "kernel": "y"})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	out := string(b)
	for _, want := range []string{
		`# HELP flexcl_requests_total HTTP requests by route and status code.`,
		`flexcl_requests_total{route="/v1/predict",code="200"} 2`,
		`flexcl_requests_total{route="/v1/predict",code="404"} 1`,
		`# TYPE flexcl_request_seconds histogram`,
		`flexcl_request_seconds_count{route="/v1/predict"} 3`,
		"flexcl_predict_cache_hits 1",
		"flexcl_predict_cache_misses 1",
		"flexcl_predict_cache_hit_ratio 0.5",
		"flexcl_jobs_inflight 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in /metrics:\n%s", want, out)
		}
	}
	// expvar endpoint serves JSON including our namespace.
	resp2, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var vars map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&vars); err != nil {
		t.Fatalf("expvar not JSON: %v", err)
	}
	if _, ok := vars["flexcl"]; !ok {
		t.Error("expvar missing flexcl namespace")
	}
}

// TestV1DeprecationHeaders: every /v1 response advertises the sunset
// and its /v2 successor; /v2 responses carry neither.
func TestV1DeprecationHeaders(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp := getJSON(t, ts.URL+"/v1/kernels", nil)
	if resp.Header.Get("Deprecation") != "true" {
		t.Error("/v1/kernels: missing Deprecation: true")
	}
	if link := resp.Header.Get("Link"); link != `</v2/kernels>; rel="successor-version"` {
		t.Errorf("/v1/kernels: Link = %q", link)
	}

	// POST endpoints carry it too, including error responses.
	resp, _ = postJSON(t, ts.URL+"/v1/predict", map[string]any{"bench": "nope", "kernel": "nope"})
	if resp.Header.Get("Deprecation") != "true" {
		t.Error("/v1/predict error response: missing Deprecation header")
	}
	if link := resp.Header.Get("Link"); !strings.Contains(link, "/v2/predict") {
		t.Errorf("/v1/predict: Link = %q, want the /v2 successor", link)
	}

	for _, path := range []string{"/v2/kernels", "/healthz"} {
		resp := getJSON(t, ts.URL+path, nil)
		if resp.Header.Get("Deprecation") != "" {
			t.Errorf("%s: spurious Deprecation header", path)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := getJSON(t, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

func TestQueueFull503(t *testing.T) {
	// One worker, depth 1: the third submission while the first job
	// blocks must be refused with 503 — backpressure, not unbounded
	// memory.
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	// Park the worker on a slow simulated exploration.
	resp, body := postJSON(t, ts.URL+"/v1/explore", map[string]any{
		"bench": "gemm", "kernel": "gemm", "sim": true, "sim_max_groups": 4,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", resp.StatusCode, body)
	}
	got503 := false
	for i := 0; i < 10 && !got503; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/explore", map[string]any{
			"bench": "nn", "kernel": "nn",
		})
		if resp.StatusCode == http.StatusServiceUnavailable {
			got503 = true
		}
	}
	if !got503 {
		t.Error("queue never refused work")
	}
	_ = s
}

// TestRouteLabelBounded: requests are labelled with the route pattern
// the mux matched, so unknown paths (the retired /v2/cluster routes
// among them) and per-id lookups add no metric series of their own.
func TestRouteLabelBounded(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	serve := func(method, path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		return rec.Code
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		serve(http.MethodGet, fmt.Sprintf("/no/such/path/%d", rng.Int63()))
	}
	if code := serve(http.MethodGet, "/v2/cluster"); code != http.StatusNotFound {
		t.Errorf("GET /v2/cluster = %d, want 404", code)
	}
	if code := serve(http.MethodPost, "/v2/cluster/prep"); code != http.StatusNotFound {
		t.Errorf("POST /v2/cluster/prep = %d, want 404", code)
	}
	for i := 0; i < 20; i++ {
		serve(http.MethodGet, fmt.Sprintf("/debug/traces/%016x", rng.Uint64()))
		serve(http.MethodGet, fmt.Sprintf("/v2/jobs/j%06d", i))
	}

	var buf bytes.Buffer
	s.Metrics().WritePrometheus(&buf)
	routes := map[string]int{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, `flexcl_requests_total{route="`); ok {
			routes[rest[:strings.IndexByte(rest, '"')]]++
		}
	}
	want := map[string]int{routeUnmatched: 1, "/debug/traces/{id}": 1, "/v2/jobs/{id}": 1}
	if !maps.Equal(routes, want) {
		t.Errorf("requests_total series by route = %v, want %v", routes, want)
	}
}
