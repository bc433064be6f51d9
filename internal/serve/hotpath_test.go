package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve/api"
)

// warmBatchBody is a 16-item /v2/predict:batch of one kernel's designs:
// one prep fill warms every item.
var warmBatchBody = func() map[string]any {
	var items []map[string]any
	for _, pe := range []int{1, 2, 4, 8} {
		for cu := 1; cu <= 4; cu++ {
			items = append(items, map[string]any{
				"kernel": map[string]any{"id": "hotspot/hotspot"},
				"design": map[string]any{"wg_size": 64, "wi_pipeline": true, "pe": pe, "cu": cu, "mode": "pipeline"},
			})
		}
	}
	return map[string]any{"items": items}
}()

// Warm-request allocation bounds through Server.Handler(), tracing on.
// Measured with Go 1.24: 88–89 per /v2/predict and 504–505 per 16-item
// batch, and 99–102 and 549–555 under -race, which also drops a quarter
// of sync.Pool puts at random. They were 204 and 2,295 when every
// request built the platform catalogue, hashed the kernel source three
// times and grew a fresh encoder; a fresh encoder alone adds 8 and 16.
const (
	warmPredictAllocs     = 94
	warmBatchAllocs       = 512
	raceWarmPredictAllocs = 115
	raceWarmBatchAllocs   = 600
)

// TestWarmRequestAllocs bounds what a warm /v2/predict and a warm
// 16-item batch allocate in the server, request to response.
func TestWarmRequestAllocs(t *testing.T) {
	s := New(Config{Logger: discardLogger()})
	t.Cleanup(func() {
		if err := s.Close(context.Background()); err != nil {
			t.Error(err)
		}
	})
	h := s.Handler()
	for _, tc := range []struct {
		path             string
		body             any
		bound, raceBound float64
	}{
		{"/v2/predict", tracePredictBody, warmPredictAllocs, raceWarmPredictAllocs},
		{"/v2/predict:batch", warmBatchBody, warmBatchAllocs, raceWarmBatchAllocs},
	} {
		body, err := json.Marshal(tc.body)
		if err != nil {
			t.Fatal(err)
		}
		send := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s status = %d, body %s", tc.path, rec.Code, rec.Body)
			}
		}
		send() // fill the caches
		bound := tc.bound
		if raceEnabled {
			bound = tc.raceBound
		}
		got := testing.AllocsPerRun(50, send)
		t.Logf("warm %s: %.0f allocs", tc.path, got)
		if got > bound {
			t.Errorf("warm %s allocates %.0f times, bound %.0f", tc.path, got, bound)
		}
	}
}

// TestWriteJSONMatchesEncoder: writeJSON's body is byte for byte what a
// fresh json.Encoder with two-space indent writes, HTML escaping and
// trailing newline included, and Content-Length is its length. The
// cases run in order, so a reused buffer that kept a previous body or
// outgrew the pooling cap shows up in the next one.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	for _, tc := range writeJSONCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			checkWriteJSON(t, tc)
		})
	}
}

// TestWriteJSONConcurrent: concurrent writeJSON calls on shared pooled
// buffers each send their own body.
func TestWriteJSONConcurrent(t *testing.T) {
	cases := writeJSONCases(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				checkWriteJSON(t, cases[(g+i)%len(cases)])
			}
		}(g)
	}
	wg.Wait()
}

// TestWriteJSONEncodeFailure: a value that cannot be encoded answers its
// status with an empty body, as it did when the encoder wrote straight
// to the response.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusAccepted, map[string]float64{"cycles": math.NaN()})
	if rec.Code != http.StatusAccepted || rec.Body.Len() != 0 {
		t.Errorf("NaN answered %d with %q, want 202 and an empty body", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Errorf("Content-Type = %q", got)
	}
	// The failed encode leaves nothing behind for the next response.
	checkWriteJSON(t, jsonCase(t, "after a failure", http.StatusOK, map[string]string{"status": "ok"}))
}

type writeJSONCase struct {
	name string
	code int
	v    any
	want []byte // json.Encoder's bytes for v
}

func jsonCase(t *testing.T, name string, code int, v any) writeJSONCase {
	t.Helper()
	return writeJSONCase{name: name, code: code, v: v, want: encodeIndented(t, v).Bytes()}
}

// writeJSONCases are the server's response shapes: v1 and v2 predict, a
// batch over 2 KB, a finished job's view, the v2 kernel listing, v1 and
// v2 error envelopes, a value above the pooling cap and a small one
// after it. The first seven are live handler responses, each checked
// against the reference encoding of its body decoded into the handler's
// own type, which is also the case's value.
func writeJSONCases(t *testing.T) []writeJSONCase {
	t.Helper()
	s := New(Config{Logger: discardLogger()})
	t.Cleanup(func() {
		if err := s.Close(context.Background()); err != nil {
			t.Error(err)
		}
	})
	h := s.Handler()
	live := func(name, method, path string, body any, code int, v any) writeJSONCase {
		t.Helper()
		var raw []byte
		if body != nil {
			var err error
			if raw, err = json.Marshal(body); err != nil {
				t.Fatal(err)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(raw)))
		if rec.Code != code {
			t.Fatalf("%s: %s %s answered %d, want %d: %s", name, method, path, rec.Code, code, rec.Body)
		}
		dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tc := jsonCase(t, name, code, v)
		if !bytes.Equal(rec.Body.Bytes(), tc.want) {
			t.Fatalf("%s: live body differs from json.Encoder's (%d vs %d bytes)", name, rec.Body.Len(), len(tc.want))
		}
		if got, want := rec.Header().Get("Content-Length"), strconv.Itoa(rec.Body.Len()); got != want {
			t.Fatalf("%s: live Content-Length = %q, want %s", name, got, want)
		}
		return tc
	}
	v1 := map[string]any{"bench": "hotspot", "kernel": "hotspot", "design": map[string]any{"wg_size": 64}}
	var acc api.JobAccepted
	live("explore", http.MethodPost, "/v2/explore", map[string]any{"kernel": map[string]any{"id": "nn/nn"}}, http.StatusAccepted, &acc)
	job := new(api.JobView)
	for deadline := time.Now().Add(time.Minute); job.State != JobDone; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", acc.ID, job.State)
		}
		*job = api.JobView{}
		live("job view", http.MethodGet, acc.URL, nil, http.StatusOK, job)
	}
	big := make([]string, 0, 4096)
	for i := range cap(big) {
		big = append(big, strings.Repeat("<&>", 8)+strconv.Itoa(i))
	}
	cases := []writeJSONCase{
		live("v1 predict", http.MethodPost, "/v1/predict", v1, http.StatusOK, new(predictResponse)),
		live("v2 predict", http.MethodPost, "/v2/predict", tracePredictBody, http.StatusOK, new(api.PredictResult)),
		live("batch", http.MethodPost, "/v2/predict:batch", warmBatchBody, http.StatusOK, new(api.BatchPredictResponse)),
		jsonCase(t, "job view", http.StatusOK, job),
		live("v2 kernels", http.MethodGet, "/v2/kernels", nil, http.StatusOK, new(api.KernelList)),
		live("v1 error", http.MethodPost, "/v1/predict", map[string]any{"bench": "a", "kernel": "b"}, http.StatusNotFound, new(apiError)),
		live("v2 error", http.MethodPost, "/v2/predict", map[string]any{"kernel": map[string]any{"id": "nope"}}, http.StatusBadRequest,
			new(struct {
				Error *api.Error `json:"error"`
			})),
		jsonCase(t, "above the pooling cap", http.StatusOK, big),
		jsonCase(t, "small after large", http.StatusOK, map[string]string{"status": "ok"}),
	}
	if n := len(cases[2].want); n <= 2048 {
		t.Fatalf("batch body is %d bytes, want one over 2 KB", n)
	}
	if n := len(cases[7].want); n <= maxPooledBody {
		t.Fatalf("large case is %d bytes, not above the pooling cap %d", n, maxPooledBody)
	}
	return cases
}

func encodeIndented(t *testing.T, v any) *bytes.Buffer {
	t.Helper()
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return &want
}

// checkWriteJSON reports through t.Errorf only, so any goroutine may
// call it.
func checkWriteJSON(t *testing.T, tc writeJSONCase) {
	t.Helper()
	rec := httptest.NewRecorder()
	writeJSON(rec, tc.code, tc.v)
	if rec.Code != tc.code {
		t.Errorf("%s: status = %d, want %d", tc.name, rec.Code, tc.code)
	}
	if !bytes.Equal(rec.Body.Bytes(), tc.want) {
		t.Errorf("%s: body differs from json.Encoder's (%d vs %d bytes)", tc.name, rec.Body.Len(), len(tc.want))
	}
	if got, want := rec.Header().Get("Content-Length"), strconv.Itoa(len(tc.want)); got != want {
		t.Errorf("%s: Content-Length = %s, want %s", tc.name, got, want)
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Errorf("%s: Content-Type = %q", tc.name, got)
	}
}
