package flexclclient_test

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/pkg/flexclclient"
)

// The client tests run end to end against a real serve.Server mounted
// in an httptest fixture — they are the executable form of the v2 API
// walkthrough in docs/API.md.

func newFixture(t *testing.T, cfg serve.Config) *flexclclient.Client {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := serve.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return flexclclient.New(ts.URL, ts.Client())
}

func TestClientPredict(t *testing.T) {
	c := newFixture(t, serve.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := c.Predict(ctx, flexclclient.PredictRequest{
		Kernel: flexclclient.KernelRef{ID: "hotspot/hotspot"},
		Design: flexclclient.Design{WGSize: 64, WIPipeline: true, PE: 4, CU: 2, Mode: "pipeline"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel != "hotspot/hotspot" || res.Cycles <= 0 {
		t.Fatalf("bad result: %+v", res)
	}

	// The second identical call is answered from the prediction cache.
	res, err = c.Predict(ctx, flexclclient.PredictRequest{
		Kernel: flexclclient.KernelRef{ID: "hotspot/hotspot"},
		Design: flexclclient.Design{WGSize: 64, WIPipeline: true, PE: 4, CU: 2, Mode: "pipeline"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != "pred" {
		t.Errorf("cache = %q, want pred", res.Cache)
	}
}

func TestClientTypedErrors(t *testing.T) {
	c := newFixture(t, serve.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	_, err := c.Predict(ctx, flexclclient.PredictRequest{
		Kernel: flexclclient.KernelRef{ID: "bogus/bogus"},
	})
	if !errors.Is(err, flexclclient.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	var ae *flexclclient.APIError
	if !errors.As(err, &ae) || ae.Status != 404 {
		t.Fatalf("err = %v, want *APIError with status 404", err)
	}
	if errors.Is(err, flexclclient.ErrShed) {
		t.Error("not_found must not match ErrShed")
	}

	_, err = c.Job(ctx, "zzz")
	if !errors.Is(err, flexclclient.ErrNotFound) {
		t.Fatalf("unknown job err = %v, want ErrNotFound", err)
	}
}

func TestClientBatch(t *testing.T) {
	c := newFixture(t, serve.Config{BatchTimeout: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	out, err := c.PredictBatch(ctx, flexclclient.BatchPredictRequest{
		Items: []flexclclient.PredictRequest{
			{Kernel: flexclclient.KernelRef{ID: "hotspot/hotspot"},
				Design: flexclclient.Design{WGSize: 64}},
			{Kernel: flexclclient.KernelRef{ID: "missing/missing"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Succeeded != 1 || out.Failed != 1 {
		t.Fatalf("succeeded/failed = %d/%d, want 1/1", out.Succeeded, out.Failed)
	}
	if out.Items[1].Error == nil || out.Items[1].Error.Code != "not_found" {
		t.Fatalf("item 1 error = %+v, want not_found", out.Items[1].Error)
	}
}

func TestClientExploreWaitJob(t *testing.T) {
	c := newFixture(t, serve.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	acc, err := c.Explore(ctx, flexclclient.ExploreRequest{
		Kernel: flexclclient.KernelRef{ID: "nn/nn"},
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.WaitJob(ctx, acc.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != flexclclient.JobDone {
		t.Fatalf("job state = %s (err %q), want done", v.State, v.Error)
	}
	if v.Summary == nil || v.Summary.Best == nil {
		t.Fatalf("bad summary: %+v", v.Summary)
	}
}

func TestClientKernels(t *testing.T) {
	c := newFixture(t, serve.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	list, err := c.Kernels(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if list.Count == 0 || len(list.Kernels) != list.Count {
		t.Fatalf("bad listing: count=%d kernels=%d", list.Count, len(list.Kernels))
	}
}

// TestClientRequestID: every client call stamps an X-Request-ID, and a
// typed error carries the server-echoed id so users can quote it
// against the access log and /debug/traces/{id}.
func TestClientRequestID(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]bool{}
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		mu.Lock()
		if id == "" {
			t.Error("client request missing X-Request-ID")
		} else if seen[id] {
			t.Errorf("request id %q reused", id)
		}
		seen[id] = true
		mu.Unlock()
		w.Header().Set("X-Request-ID", id)
		http.Error(w, `{"error":{"code":"not_found","message":"nope"}}`, http.StatusNotFound)
	}))
	t.Cleanup(backend.Close)
	c := flexclclient.New(backend.URL, backend.Client())
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		_, err := c.Job(ctx, "x")
		var ae *flexclclient.APIError
		if !errors.As(err, &ae) {
			t.Fatalf("err = %v, want *APIError", err)
		}
		if ae.RequestID == "" || !seen[ae.RequestID] {
			t.Errorf("APIError.RequestID = %q, not a sent id", ae.RequestID)
		}
		if !strings.Contains(ae.Error(), ae.RequestID) {
			t.Errorf("Error() %q does not quote the request id", ae.Error())
		}
	}
}

// TestClientRequestIDFallback: when the response carries no echo (a
// proxy answered), the error still carries the id the client sent.
func TestClientRequestIDFallback(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "proxy error", http.StatusBadGateway)
	}))
	t.Cleanup(backend.Close)
	c := flexclclient.New(backend.URL, backend.Client())
	_, err := c.Job(context.Background(), "x")
	var ae *flexclclient.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if !strings.HasPrefix(ae.RequestID, "cli-") {
		t.Errorf("RequestID = %q, want the client-sent cli-… id", ae.RequestID)
	}
}

// TestClientEndToEndTraceFetch: the id on a successful server round
// trip keys a retrievable trace — the correlation loop the request id
// exists for, exercised through the real server.
func TestClientEndToEndTraceFetch(t *testing.T) {
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	s := serve.New(serve.Config{Logger: log})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	c := flexclclient.New(ts.URL, ts.Client())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := c.Predict(ctx, flexclclient.PredictRequest{
		Kernel: flexclclient.KernelRef{ID: "hotspot/hotspot"},
		Design: flexclclient.Design{WGSize: 64, WIPipeline: true, PE: 4, CU: 2, Mode: "pipeline"},
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(s.Tracer().List()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no trace recorded for the client predict")
		}
		time.Sleep(10 * time.Millisecond)
	}
	id := s.Tracer().List()[0].ID
	if !strings.HasPrefix(id, "cli-") {
		t.Errorf("trace id = %q, want the client-stamped cli-… id", id)
	}
	resp, err := http.Get(ts.URL + "/debug/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/traces/%s = %d, want 200", id, resp.StatusCode)
	}
}

// TestClientReusesConnection: the server sends its bodies with a
// Content-Length, and reading one leaves the kept-alive connection
// reusable for the next call.
func TestClientReusesConnection(t *testing.T) {
	c := newFixture(t, serve.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var reused []bool
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) { reused = append(reused, info.Reused) },
	})
	req := flexclclient.BatchPredictRequest{}
	for pe := 1; pe <= 16; pe++ {
		req.Items = append(req.Items, flexclclient.PredictRequest{
			Kernel: flexclclient.KernelRef{ID: "hotspot/hotspot"},
			Design: flexclclient.Design{WGSize: 64, WIPipeline: true, PE: pe, Mode: "pipeline"},
		})
	}
	for i := 0; i < 3; i++ {
		res, err := c.PredictBatch(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Succeeded != len(req.Items) {
			t.Fatalf("batch: %d of %d items succeeded", res.Succeeded, len(req.Items))
		}
	}
	if len(reused) != 3 || !reused[1] || !reused[2] {
		t.Errorf("connection reuse per call = %v, want the first connection kept for the next two", reused)
	}
}
