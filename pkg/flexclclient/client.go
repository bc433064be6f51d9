// Package flexclclient is the Go client for the flexcl-serve v2 HTTP
// API: synchronous predictions, batch predictions, asynchronous
// design-space exploration jobs and the kernel corpus listing.
//
// Every method takes a context.Context that bounds the whole call
// (connection, request and body decode); server-side failures come back
// as *APIError values that participate in errors.Is — shed responses
// (server over capacity, HTTP 429) match ErrShed and unknown
// kernels/jobs match ErrNotFound:
//
//	res, err := c.Predict(ctx, req)
//	if errors.Is(err, flexclclient.ErrShed) {
//	    backoff(flexclclient.RetryAfter(err))
//	}
//
// Construction takes functional options; WithRetry makes the client
// retry shed requests with bounded backoff:
//
//	c := flexclclient.New("http://localhost:8080", nil,
//	    flexclclient.WithRetry(flexclclient.RetryPolicy{MaxAttempts: 4}))
package flexclclient

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/serve/api"
)

// Wire types, re-exported so client code needs only this package.
type (
	// Design is one design point (work-group size, pipelining, PE/CU
	// replication, communication mode).
	Design = api.Design
	// KernelRef names a kernel by corpus id, bench+kernel, or inline
	// OpenCL source.
	KernelRef = api.KernelRef
	// PredictRequest is one prediction (also the batch item shape).
	PredictRequest = api.PredictRequest
	// PredictResult is one prediction outcome.
	PredictResult = api.PredictResult
	// BatchPredictRequest is a multi-item prediction request.
	BatchPredictRequest = api.BatchPredictRequest
	// BatchPredictResponse carries per-item results in request order.
	BatchPredictResponse = api.BatchPredictResponse
	// BatchItem is one per-item batch outcome.
	BatchItem = api.BatchItem
	// ExploreRequest submits an asynchronous exploration job.
	ExploreRequest = api.ExploreRequest
	// JobAccepted acknowledges an exploration submission.
	JobAccepted = api.JobAccepted
	// JobView is the poll state of an exploration job.
	JobView = api.JobView
	// KernelList is the corpus listing.
	KernelList = api.KernelList
)

// Job states, as reported in JobView.State.
const (
	JobQueued   = api.JobQueued
	JobRunning  = api.JobRunning
	JobDone     = api.JobDone
	JobFailed   = api.JobFailed
	JobCanceled = api.JobCanceled
)

// Sentinel errors for errors.Is against *APIError responses.
var (
	// ErrShed matches 429 responses: the server's admission queue was
	// full and the request was refused without queueing work. Retry
	// after the hint returned by RetryAfter.
	ErrShed = errors.New("flexclclient: request shed, server over capacity")
	// ErrNotFound matches 404 responses (unknown kernel or job).
	ErrNotFound = errors.New("flexclclient: not found")
)

// APIError is a structured error response from the service.
type APIError struct {
	// Code is the machine-readable error code ("bad_request",
	// "not_found", "shed", "unavailable", "deadline", "internal").
	Code string
	// Message is the human-readable diagnostic.
	Message string
	// RetryAfterSeconds is the backoff hint on shed responses.
	RetryAfterSeconds int
	// Status is the HTTP status the error arrived with.
	Status int
	// RequestID is the correlation id of the failed request — the
	// server's X-Request-ID echo when present, else the id this client
	// sent. Quote it in bug reports: the server's access log and
	// /debug/traces/{id} are keyed by it.
	RequestID string
}

// Error implements the error interface.
func (e *APIError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("flexcl-serve: %s (%s, HTTP %d, request %s)",
			e.Message, e.Code, e.Status, e.RequestID)
	}
	return fmt.Sprintf("flexcl-serve: %s (%s, HTTP %d)", e.Message, e.Code, e.Status)
}

// Is matches the sentinel errors by code, so call sites can use
// errors.Is(err, ErrShed) without unwrapping to *APIError.
func (e *APIError) Is(target error) bool {
	switch target {
	case ErrShed:
		return e.Code == api.CodeShed
	case ErrNotFound:
		return e.Code == api.CodeNotFound
	}
	return false
}

// RetryAfter extracts the backoff hint from a shed error, defaulting to
// one second when the error carries none (or is not an APIError).
func RetryAfter(err error) time.Duration {
	var ae *APIError
	if errors.As(err, &ae) && ae.RetryAfterSeconds > 0 {
		return time.Duration(ae.RetryAfterSeconds) * time.Second
	}
	return time.Second
}

// RetryPolicy makes a client retry shed requests (ErrShed, HTTP 429)
// with bounded exponential backoff. A shed response is the one failure
// the server guarantees performed no work — the admission gate refused
// the request before queueing it — so every endpoint is safe to retry.
// Other failures (bad request, not found, deadline, transport errors)
// are never retried.
//
// The delay before attempt n is BaseDelay·2ⁿ, raised to the server's
// Retry-After hint when that is larger, and capped at MaxDelay; the
// request context bounds the whole exchange, retries included.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, first included
	// (≤ 1 = no retries).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (0 = 100ms).
	BaseDelay time.Duration
	// MaxDelay caps each delay, including server Retry-After hints
	// (0 = 5s).
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	return p
}

// delay returns the backoff before retry attempt (0-based: the delay
// after the attempt'th failure), honoring the shed response's
// Retry-After hint when it asks for more.
func (p RetryPolicy) delay(attempt int, err error) time.Duration {
	d := p.BaseDelay << uint(attempt)
	if d <= 0 || d > p.MaxDelay { // overflow or past the cap
		d = p.MaxDelay
	}
	var ae *APIError
	if errors.As(err, &ae) && ae.RetryAfterSeconds > 0 {
		if hint := time.Duration(ae.RetryAfterSeconds) * time.Second; hint > d {
			d = hint
		}
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d
}

// Client talks to one flexcl-serve instance. The zero value is not
// usable; construct with New.
type Client struct {
	base  string
	http  *http.Client
	retry RetryPolicy
	// sleep is swapped out by tests; nil means a real timer wait.
	sleep func(ctx context.Context, d time.Duration) error
}

// Option customizes a Client at construction; see New.
type Option func(*Client)

// WithRetry makes the client retry shed requests (ErrShed, 429) under
// the given policy.
func WithRetry(p RetryPolicy) Option {
	return func(c *Client) { c.retry = p }
}

// New returns a client for the service at baseURL (e.g.
// "http://localhost:8080"). httpClient may be nil (http.DefaultClient).
// Retries are layered on with WithRetry.
func New(baseURL string, httpClient *http.Client, opts ...Option) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	c := &Client{
		base: strings.TrimRight(baseURL, "/"),
		http: httpClient,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Predict runs one synchronous prediction.
func (c *Client) Predict(ctx context.Context, req PredictRequest) (*PredictResult, error) {
	var out PredictResult
	if err := c.do(ctx, http.MethodPost, "/v2/predict", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// PredictBatch runs N predictions in one request. Per-item failures do
// not fail the call — inspect BatchItem.Error; the returned error is
// non-nil only when the batch envelope itself was rejected.
func (c *Client) PredictBatch(ctx context.Context, req BatchPredictRequest) (*BatchPredictResponse, error) {
	var out BatchPredictResponse
	if err := c.do(ctx, http.MethodPost, "/v2/predict:batch", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Explore submits an asynchronous exploration job; poll it with Job or
// WaitJob.
func (c *Client) Explore(ctx context.Context, req ExploreRequest) (*JobAccepted, error) {
	var out JobAccepted
	if err := c.do(ctx, http.MethodPost, "/v2/explore", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Job fetches the current state of an exploration job.
func (c *Client) Job(ctx context.Context, id string) (*JobView, error) {
	var out JobView
	if err := c.do(ctx, http.MethodGet, "/v2/jobs/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// WaitJob polls a job until it reaches a terminal state (done, failed
// or canceled) or ctx expires. poll is the polling interval (0 = 250ms).
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (*JobView, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		v, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		switch v.State {
		case JobDone, JobFailed, JobCanceled:
			return v, nil
		}
		select {
		case <-ctx.Done():
			return v, ctx.Err()
		case <-t.C:
		}
	}
}

// Kernels lists the bundled benchmark corpus.
func (c *Client) Kernels(ctx context.Context) (*KernelList, error) {
	var out KernelList
	if err := c.do(ctx, http.MethodGet, "/v2/kernels", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// reqSeq + reqPrefix generate per-request correlation ids: a random
// per-process prefix plus an atomic counter, unique across concurrent
// clients in one process and across processes.
var (
	reqSeq    atomic.Uint64
	reqPrefix = func() string {
		var b [4]byte
		rand.Read(b[:])
		return hex.EncodeToString(b[:])
	}()
)

func newRequestID() string {
	return fmt.Sprintf("cli-%s-%d", reqPrefix, reqSeq.Add(1))
}

// do performs one logical API exchange: encode the body, send it,
// retry shed responses when the client carries a RetryPolicy. Each
// attempt is a fresh request with its own X-Request-ID.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var buf []byte
	if body != nil {
		var err error
		if buf, err = json.Marshal(body); err != nil {
			return fmt.Errorf("flexclclient: encoding request: %w", err)
		}
	}
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	policy := c.retry.withDefaults()
	for attempt := 0; ; attempt++ {
		raw, err := c.roundTrip(ctx, method, c.base+path, buf)
		if err == nil {
			if out == nil {
				return nil
			}
			if uerr := json.Unmarshal(raw, out); uerr != nil {
				return fmt.Errorf("flexclclient: decoding %s %s response: %w", method, path, uerr)
			}
			return nil
		}
		if !errors.Is(err, ErrShed) || attempt+1 >= attempts {
			return err
		}
		if serr := c.wait(ctx, policy.delay(attempt, err)); serr != nil {
			// Context expired mid-backoff: surface the shed error (it
			// names the request id) wrapped with the context cause.
			return fmt.Errorf("flexclclient: giving up during retry backoff: %w (last error: %v)", serr, err)
		}
	}
}

// wait sleeps for d or until ctx is done.
func (c *Client) wait(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// roundTrip performs one HTTP exchange: stamp a fresh X-Request-ID for
// server-side correlation, send, map non-2xx responses to *APIError
// (carrying the request id), return the raw 2xx body.
func (c *Client) roundTrip(ctx context.Context, method, url string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, fmt.Errorf("flexclclient: building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	reqID := newRequestID()
	req.Header.Set("X-Request-ID", reqID)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("flexclclient: %s %s: %w", method, url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, decodeError(resp, reqID)
	}
	raw, err := readBody(resp)
	if err != nil {
		return nil, fmt.Errorf("flexclclient: reading %s %s response: %w", method, url, err)
	}
	return raw, nil
}

// maxSizedBody bounds the Content-Length readBody trusts to size its
// buffer up front.
const maxSizedBody = 1 << 20

// readBody reads a response body into one buffer of exactly its
// Content-Length when the response declares one of at most
// maxSizedBody bytes, and with io.ReadAll otherwise.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxSizedBody {
		return io.ReadAll(resp.Body)
	}
	raw := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// decodeError maps an error response to *APIError. v2 bodies carry
// {"error": {code, message, ...}}; anything else (v1 bodies, proxies)
// degrades to a synthesized code from the status. sentID is the
// request id this client stamped, the fallback when the response
// carries no echo (e.g. a proxy answered before the service).
func decodeError(resp *http.Response, sentID string) error {
	ae := &APIError{Status: resp.StatusCode, RequestID: sentID}
	if echo := resp.Header.Get("X-Request-ID"); echo != "" {
		ae.RequestID = echo
	}
	var envelope struct {
		Error json.RawMessage `json:"error"`
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if json.Unmarshal(raw, &envelope) == nil && len(envelope.Error) > 0 {
		var typed struct {
			Code              string `json:"code"`
			Message           string `json:"message"`
			RetryAfterSeconds int    `json:"retry_after_seconds"`
		}
		var flat string
		switch {
		case json.Unmarshal(envelope.Error, &typed) == nil && typed.Code != "":
			ae.Code, ae.Message = typed.Code, typed.Message
			ae.RetryAfterSeconds = typed.RetryAfterSeconds
		case json.Unmarshal(envelope.Error, &flat) == nil:
			ae.Message = flat
		}
	}
	if ae.Code == "" {
		switch resp.StatusCode {
		case http.StatusNotFound:
			ae.Code = api.CodeNotFound
		case http.StatusTooManyRequests:
			ae.Code = api.CodeShed
		case http.StatusServiceUnavailable:
			ae.Code = api.CodeUnavailable
		case http.StatusGatewayTimeout:
			ae.Code = api.CodeDeadline
		case http.StatusBadRequest:
			ae.Code = api.CodeBadRequest
		default:
			ae.Code = api.CodeInternal
		}
	}
	if ae.Message == "" {
		ae.Message = http.StatusText(resp.StatusCode)
	}
	if ae.RetryAfterSeconds == 0 {
		if secs, ok := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ok {
			ae.RetryAfterSeconds = secs
		}
	}
	return ae
}

// parseRetryAfter reads a Retry-After header value in either RFC 9110
// form: delay-seconds ("120") or an HTTP-date ("Fri, 07 Aug 2026
// 15:04:05 GMT", interpreted relative to now and rounded up to whole
// seconds). Negative delays — a malformed header or a date already in
// the past — clamp to zero: "retry immediately", never a negative
// backoff. ok is false when the value parses as neither form.
func parseRetryAfter(v string, now time.Time) (seconds int, ok bool) {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			secs = 0
		}
		return secs, true
	}
	if t, err := http.ParseTime(v); err == nil {
		d := t.Sub(now)
		if d <= 0 {
			return 0, true
		}
		return int(math.Ceil(d.Seconds())), true
	}
	return 0, false
}
