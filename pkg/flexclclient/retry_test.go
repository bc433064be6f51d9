package flexclclient

// White-box tests for the retry half of the shed/backoff loop: the
// RetryPolicy delay schedule, RFC 9110 Retry-After parsing (both
// delta-seconds and HTTP-date), and the do() loop wired to a fake
// sleeper so no test actually waits.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want int
		ok   bool
	}{
		{"", 0, false},
		{"120", 120, true},
		{"0", 0, true},
		// RFC 9110 says delay-seconds is non-negative; a negative value
		// is a server bug and must clamp to "retry now", never to a
		// negative backoff.
		{"-5", 0, true},
		{" 7 ", 7, true},
		// HTTP-date, 90 seconds in the future.
		{now.Add(90 * time.Second).Format(http.TimeFormat), 90, true},
		// A date already in the past means retry immediately.
		{now.Add(-time.Hour).Format(http.TimeFormat), 0, true},
		{"soon", 0, false},
		{"Fri, 32 Foo 2026 99:99:99 GMT", 0, false},
	}
	for _, tc := range cases {
		got, ok := parseRetryAfter(tc.in, now)
		if got != tc.want || ok != tc.ok {
			t.Errorf("parseRetryAfter(%q) = (%d, %v), want (%d, %v)", tc.in, got, ok, tc.want, tc.ok)
		}
	}
	// HTTP dates carry whole seconds but now does not: a fractional
	// remainder rounds the wait up, never down below the server's ask.
	frac := now.Add(500 * time.Millisecond)
	if got, ok := parseRetryAfter(now.Add(2*time.Second).Format(http.TimeFormat), frac); !ok || got != 2 {
		t.Errorf("fractional remainder = (%d, %v), want ceil to 2s", got, ok)
	}
}

func TestRetryPolicyDelay(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 10}.withDefaults()
	if p.BaseDelay != 100*time.Millisecond || p.MaxDelay != 5*time.Second {
		t.Fatalf("defaults = %+v", p)
	}
	// Exponential: 100ms, 200ms, 400ms, ... capped at MaxDelay.
	for i, want := range []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond, 3200 * time.Millisecond,
		5 * time.Second, 5 * time.Second,
	} {
		if got := p.delay(i, nil); got != want {
			t.Errorf("delay(%d) = %v, want %v", i, got, want)
		}
	}
	// A huge attempt index must not overflow into a negative shift.
	if got := p.delay(80, nil); got != p.MaxDelay {
		t.Errorf("delay(80) = %v, want the cap %v", got, p.MaxDelay)
	}
	// The server's Retry-After hint raises the delay when larger…
	hint := &APIError{Code: "shed", RetryAfterSeconds: 2}
	if got := p.delay(0, hint); got != 2*time.Second {
		t.Errorf("delay(0, hint 2s) = %v, want 2s", got)
	}
	// …never lowers it…
	if got := p.delay(6, hint); got != 5*time.Second {
		t.Errorf("delay(6, hint 2s) = %v, want the 5s backoff", got)
	}
	// …and stays inside MaxDelay even when the hint is absurd.
	big := &APIError{Code: "shed", RetryAfterSeconds: 3600}
	if got := p.delay(0, big); got != p.MaxDelay {
		t.Errorf("delay(0, hint 1h) = %v, want the cap %v", got, p.MaxDelay)
	}
}

// shedServer sheds the first n requests with 429 + Retry-After, then
// answers 200 with the given body.
func shedServer(t *testing.T, n int, retryAfter string) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= int32(n) {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":{"code":"shed","message":"over capacity"}}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"id":"j1","state":"done"}`))
	}))
	t.Cleanup(ts.Close)
	return ts, &calls
}

// fakeSleep records requested backoffs without waiting.
func fakeSleep(into *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*into = append(*into, d)
		return ctx.Err()
	}
}

// TestRetryShedThenSucceed: with a policy, the client absorbs shed
// responses, waits the schedule (raised to the server hint) and
// delivers the eventual success to the caller.
func TestRetryShedThenSucceed(t *testing.T) {
	ts, calls := shedServer(t, 2, "1")
	var slept []time.Duration
	c := New(ts.URL, ts.Client(), WithRetry(RetryPolicy{MaxAttempts: 4}))
	c.sleep = fakeSleep(&slept)

	v, err := c.Job(context.Background(), "j1")
	if err != nil {
		t.Fatal(err)
	}
	if v.State != JobDone {
		t.Fatalf("state = %q", v.State)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d requests, want 3 (2 shed + 1 success)", got)
	}
	// Both backoffs honor the 1s Retry-After hint (the bare schedule
	// would have been 100ms and 200ms).
	if len(slept) != 2 || slept[0] != time.Second || slept[1] != time.Second {
		t.Errorf("slept %v, want [1s 1s]", slept)
	}
}

// TestRetryHonorsHTTPDateHint: the hint works in the HTTP-date form
// too — the header parse feeds the same RetryAfterSeconds field the
// delay schedule reads.
func TestRetryHonorsHTTPDateHint(t *testing.T) {
	ts, _ := shedServer(t, 1, time.Now().Add(3*time.Second).UTC().Format(http.TimeFormat))
	var slept []time.Duration
	c := New(ts.URL, ts.Client(), WithRetry(RetryPolicy{MaxAttempts: 2}))
	c.sleep = fakeSleep(&slept)
	if _, err := c.Job(context.Background(), "j1"); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 || slept[0] < 2*time.Second || slept[0] > 3*time.Second {
		t.Errorf("slept %v, want ~3s from the HTTP-date hint", slept)
	}
}

// TestNoRetryWithoutPolicy: the historical contract — a client that
// never opted in fails fast on the first shed response.
func TestNoRetryWithoutPolicy(t *testing.T) {
	ts, calls := shedServer(t, 1, "1")
	c := New(ts.URL, ts.Client())
	_, err := c.Job(context.Background(), "j1")
	if !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d requests, want 1", got)
	}
}

// TestRetryOnlyShed: non-shed failures are not retried even under a
// policy — only 429 guarantees the server performed no work.
func TestRetryOnlyShed(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":{"code":"not_found","message":"nope"}}`, http.StatusNotFound)
	}))
	t.Cleanup(ts.Close)
	var slept []time.Duration
	c := New(ts.URL, ts.Client(), WithRetry(RetryPolicy{MaxAttempts: 5}))
	c.sleep = fakeSleep(&slept)
	_, err := c.Job(context.Background(), "j1")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if calls.Load() != 1 || len(slept) != 0 {
		t.Errorf("not_found was retried: %d requests, %v slept", calls.Load(), slept)
	}
}

// TestRetryExhausted: a persistently shedding server yields the last
// shed error after exactly MaxAttempts tries.
func TestRetryExhausted(t *testing.T) {
	ts, calls := shedServer(t, 1000, "")
	var slept []time.Duration
	c := New(ts.URL, ts.Client(), WithRetry(RetryPolicy{MaxAttempts: 3}))
	c.sleep = fakeSleep(&slept)
	_, err := c.Job(context.Background(), "j1")
	if !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d requests, want 3", got)
	}
	if len(slept) != 2 {
		t.Errorf("slept %d times, want 2", len(slept))
	}
}

// TestRetryContextCanceled: a context cancelled during backoff aborts
// the loop with an error that reports both the cancellation and the
// shed it was waiting out.
func TestRetryContextCanceled(t *testing.T) {
	ts, calls := shedServer(t, 1000, "")
	c := New(ts.URL, ts.Client(), WithRetry(RetryPolicy{MaxAttempts: 5}))
	ctx, cancel := context.WithCancel(context.Background())
	c.sleep = func(context.Context, time.Duration) error {
		cancel()
		return ctx.Err()
	}
	_, err := c.Job(ctx, "j1")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d requests after cancellation, want 1", got)
	}
}
