// Package serve implements flexcl-serve: a long-running HTTP JSON
// service in front of the FlexCL analytical model and design-space
// explorer. The point of the paper's model is that prediction is cheap
// enough to answer "what will this kernel/config cost?" interactively;
// this service is that interactive surface.
//
// Endpoints (v2 is the current surface; v1 is frozen and served by thin
// adapters over the same handlers):
//
//	POST /v2/predict        — one kernel+design prediction (synchronous)
//	POST /v2/predict:batch  — N (kernel, design) pairs, per-item results
//	POST /v2/explore        — enqueue an async design-space exploration job
//	GET  /v2/jobs/{id}      — poll an exploration job
//	GET  /v2/kernels        — list the bundled Rodinia/PolyBench corpus
//	POST /v1/predict        — legacy predict (flat bench/kernel fields)
//	POST /v1/explore        — legacy explore
//	GET  /v1/jobs/{id}      — legacy job poll
//	GET  /v1/kernels        — legacy corpus listing
//	GET  /metrics           — Prometheus text exposition
//	GET  /debug/vars        — expvar JSON
//	GET  /healthz           — liveness
//
// Synchronous predictions flow through a two-lane admission gate
// (interactive ahead of bulk) that sheds over-capacity load with 429 +
// Retry-After, and through a singleflight prep cache that coalesces
// concurrent compile+analyze work for the same kernel source into one
// execution. Explorations run on a bounded worker pool sharing the same
// dse.PrepCache; predictions additionally hit an LRU cache keyed by
// (kernel workload hash, platform, design). Requests carry deadlines
// (504 on expiry) propagated as context.Context through compile →
// analyze → predict, and SIGTERM drains in-flight work before the
// process exits. See docs/API.md for the wire reference.
//
// The /v1 surface is frozen and deprecated: every /v1 response carries
// Deprecation and Link (successor-version) headers pointing at its /v2
// equivalent.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve/api"
	"repro/internal/telemetry"
)

// Config tunes the service.
type Config struct {
	// Addr is the listen address (":0" picks an ephemeral port).
	Addr string
	// Workers bounds concurrent exploration jobs (0 = 2).
	Workers int
	// DSEWorkers shards each exploration's design points
	// (0 = GOMAXPROCS/Workers, at least 1).
	DSEWorkers int
	// QueueDepth bounds queued-but-not-running jobs (0 = 64).
	QueueDepth int
	// MaxConcurrentPredicts bounds synchronous prediction analyses
	// executing at once, across both admission lanes (0 = GOMAXPROCS).
	MaxConcurrentPredicts int
	// PredictQueueDepth bounds each admission lane's wait queue
	// (0 = 128); requests beyond it are shed with 429 + Retry-After.
	PredictQueueDepth int
	// RetryAfter is the client backoff hint on shed responses (0 = 1s).
	RetryAfter time.Duration
	// MaxBatchItems bounds the items of one /v2/predict:batch request
	// (0 = 256).
	MaxBatchItems int
	// PredCacheSize bounds the LRU prediction cache (0 = 4096 entries;
	// negative disables caching).
	PredCacheSize int
	// PrepCacheSize bounds completed compile+analyze entries in the
	// singleflight prep cache (0 = dse.DefaultPrepCapacity; negative =
	// unbounded). In-flight fills are never evicted.
	PrepCacheSize int
	// ArtifactDir, when non-empty, persists compile+analyze results to
	// this directory and answers prep-cache misses from it, so restarts
	// (and other processes sharing the directory) start warm. Corrupt or
	// stale files degrade to recompute, never errors.
	ArtifactDir string
	// RequestTimeout is the synchronous-endpoint deadline
	// (0 = 10 s); expired requests answer 504.
	RequestTimeout time.Duration
	// BatchTimeout is the /v2/predict:batch deadline (0 = 2 min) —
	// batches amortize more work per request than single predicts.
	BatchTimeout time.Duration
	// ExploreTimeout is the per-job deadline (0 = 5 min).
	ExploreTimeout time.Duration
	// DrainTimeout bounds graceful shutdown (0 = 30 s).
	DrainTimeout time.Duration
	// Logger receives request and job logs (nil = slog.Default()).
	Logger *slog.Logger
	// TraceCapacity bounds the in-memory ring of finished request
	// traces served on /debug/traces (0 = 256; negative disables
	// tracing entirely — spans become no-ops).
	TraceCapacity int
	// TraceKeepSlowest additionally retains the N slowest traces even
	// after they rotate out of the recent ring (0 = 32).
	TraceKeepSlowest int
}

// metricsNamespace prefixes every exported metric and names the expvar
// export.
const metricsNamespace = "flexcl"

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.DSEWorkers <= 0 {
		c.DSEWorkers = runtime.GOMAXPROCS(0) / c.Workers
		if c.DSEWorkers < 1 {
			c.DSEWorkers = 1
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxConcurrentPredicts <= 0 {
		c.MaxConcurrentPredicts = runtime.GOMAXPROCS(0)
	}
	if c.PredictQueueDepth <= 0 {
		c.PredictQueueDepth = 128
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 256
	}
	if c.PredCacheSize == 0 {
		c.PredCacheSize = 4096
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.BatchTimeout <= 0 {
		c.BatchTimeout = 2 * time.Minute
	}
	if c.ExploreTimeout <= 0 {
		c.ExploreTimeout = 5 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.TraceCapacity == 0 {
		c.TraceCapacity = 256
	}
	if c.TraceKeepSlowest == 0 {
		c.TraceKeepSlowest = 32
	}
	return c
}

// Server is the flexcl prediction/DSE service.
type Server struct {
	cfg       Config
	log       *slog.Logger
	reg       *obs.Registry
	prep      *dse.PrepCache
	pred      *dse.PredCache
	artifacts *artifact.Store
	pool      *jobPool
	admit     *admitter
	tracer    *telemetry.Tracer

	mu sync.Mutex
	ln net.Listener
}

// New builds a Server from cfg; call Listen + Serve (or ListenAndServe)
// to run it, or Handler to mount it in a test server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	var store *artifact.Store
	if cfg.ArtifactDir != "" {
		var err error
		store, err = artifact.Open(cfg.ArtifactDir)
		if err != nil {
			// A broken artifact directory must not keep the service
			// down — it only loses the warm start.
			cfg.Logger.Warn("artifact store disabled", "dir", cfg.ArtifactDir, "err", err)
			store = nil
		}
	}
	s := &Server{
		cfg:       cfg,
		log:       cfg.Logger,
		reg:       obs.NewRegistry(metricsNamespace),
		prep:      dse.NewPrepCacheOpts(dse.PrepCacheOptions{Capacity: cfg.PrepCacheSize, Store: store}),
		pred:      dse.NewPredCache(cfg.PredCacheSize),
		artifacts: store,
		admit:     newAdmitter(cfg.MaxConcurrentPredicts, cfg.PredictQueueDepth),
	}
	s.tracer = telemetry.New(telemetry.Options{
		Capacity:    cfg.TraceCapacity,
		KeepSlowest: cfg.TraceKeepSlowest,
		StageObserver: func(stage string, seconds float64) {
			s.reg.Histogram("stage_seconds", obs.Label("stage", stage)).Observe(seconds)
		},
	})
	s.pool = newJobPool(s, cfg.Workers, cfg.QueueDepth)
	s.reg.Help("requests_total", "HTTP requests by route and status code.")
	s.reg.Help("request_seconds", "HTTP request latency by route.")
	s.reg.Help("predict_cache_hit_ratio", "LRU prediction cache hit ratio since start.")
	s.reg.Help("jobs_inflight", "Exploration jobs currently queued or running.")
	s.reg.Help("predict_queue_depth", "Requests waiting in the admission queue, by lane.")
	s.reg.Help("predict_queue_wait_seconds", "Time spent queued for admission, by lane.")
	s.reg.Help("predict_shed_total", "Requests shed (429) because an admission lane was full.")
	s.reg.Help("predict_admitted_total", "Requests admitted to the prediction path, by lane.")
	s.reg.Help("predict_source_total", "Predictions by answer source (pred/prep/coalesced/miss).")
	s.reg.Help("prep_cache_computes", "Actual compile+analyze executions performed by the prep cache.")
	s.reg.Help("prep_cache_coalesced", "Lookups that joined an in-flight compile+analyze instead of duplicating it.")
	s.reg.Help("prep_cache_evictions", "Completed prep-cache entries dropped by the capacity bound.")
	s.reg.Help("prep_cache_disk_hits", "Prep-cache fills answered by the artifact store instead of a compile+analyze.")
	s.reg.Help("artifact_hits", "Artifact-store loads that returned a valid record.")
	s.reg.Help("artifact_misses", "Artifact-store loads that fell through to recompute (absent or invalid file).")
	s.reg.Help("artifact_writes", "Analysis records persisted to the artifact store.")
	s.reg.Help("artifact_write_errors", "Failed artifact-store writes (e.g. read-only directory); the computed result is kept.")
	s.reg.Help("artifact_corrupt", "Corrupt, truncated or version-mismatched artifact files deleted on load.")
	s.reg.Help("batch_items_total", "Batch prediction items by outcome.")
	s.reg.Help("stage_seconds", "Per-pipeline-stage latency, fed from finished request traces.")
	s.reg.PublishExpvar(metricsNamespace)
	return s
}

// Tracer exposes the server's trace ring (CLIs and the debug listener).
func (s *Server) Tracer() *telemetry.Tracer { return s.tracer }

// Metrics returns the server's metric registry (tests and embedders).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Handler returns the full middleware-wrapped HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", s.handlePredict)
	mux.HandleFunc("POST /v1/explore", s.handleExplore)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/kernels", s.handleKernels)
	mux.HandleFunc("POST /v2/predict", s.handleV2Predict)
	mux.HandleFunc("POST /v2/predict:batch", s.handleV2Batch)
	mux.HandleFunc("POST /v2/explore", s.handleV2Explore)
	mux.HandleFunc("GET /v2/jobs/{id}", s.handleV2Job)
	mux.HandleFunc("GET /v2/kernels", s.handleKernels)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/traces", s.tracer.HandleList)
	mux.HandleFunc("GET /debug/traces/{id}", s.tracer.HandleGet)
	return obs.AccessLog(s.log, s.edge(mux, s.deadline(deprecateV1(mux))))
}

// deprecateV1 stamps every /v1 response with the standard deprecation
// headers (RFC 8594 family): Deprecation marks the surface as frozen,
// and Link names the /v2 successor of the exact resource requested.
// Bodies are untouched — v1 responses stay byte-identical; only headers
// announce the migration path (docs/API.md, "v1 deprecation").
func deprecateV1(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			w.Header().Set("Deprecation", "true")
			w.Header().Set("Link",
				fmt.Sprintf("</v2%s>; rel=\"successor-version\"", strings.TrimPrefix(r.URL.Path, "/v1")))
		}
		next.ServeHTTP(w, r)
	})
}

// deadline attaches the per-request timeout to the request context —
// the one deadline that then propagates as context through admission,
// compile, analyze and predict. Batch requests get their own (longer)
// budget.
func (s *Server) deadline(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		timeout := s.cfg.RequestTimeout
		if r.URL.Path == "/v2/predict:batch" {
			timeout = s.cfg.BatchTimeout
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// routeUnmatched is the route label of every request no pattern
// matched (404s and 405s), so unknown paths cannot mint metric series.
const routeUnmatched = "unmatched"

// route returns r's bounded metric label: the pattern mux matched with
// its method stripped ("POST /v2/predict" → "/v2/predict",
// "GET /v2/jobs/{id}" → "/v2/jobs/{id}"), or routeUnmatched. mux
// registers no subtree ("/…/") pattern, so it never answers with a
// trailing-slash redirect, the one case whose pattern is the request's
// own path.
func route(mux *http.ServeMux, r *http.Request) string {
	_, pattern := mux.Handler(r)
	if pattern == "" {
		return routeUnmatched
	}
	if i := strings.IndexByte(pattern, ' '); i >= 0 {
		pattern = pattern[i+1:]
	}
	return pattern
}

// Listen binds the configured address and returns the bound address
// (useful with ":0").
func (s *Server) Listen() (net.Addr, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	return ln.Addr(), nil
}

// Addr returns the bound listen address, or "" before Listen.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve runs the service until ctx is cancelled (SIGTERM in main), then
// drains gracefully: the listener closes, in-flight HTTP requests
// finish, and queued + running exploration jobs complete — all within
// DrainTimeout, after which remaining jobs are cancelled hard.
func (s *Server) Serve(ctx context.Context) error {
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln == nil {
		return errors.New("serve: Serve called before Listen")
	}
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	s.log.Info("listening", "addr", ln.Addr().String(),
		"workers", s.cfg.Workers, "dse_workers", s.cfg.DSEWorkers,
		"max_predicts", s.cfg.MaxConcurrentPredicts, "pred_cache", s.pred.Cap())

	select {
	case err := <-errc:
		sctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		s.pool.stop(sctx)
		return err
	case <-ctx.Done():
	}
	s.log.Info("draining", "timeout", s.cfg.DrainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := srv.Shutdown(dctx)
	if derr := s.pool.stop(dctx); derr != nil && err == nil {
		err = derr
	}
	// Artifact writes trail their fills (waiters are released first);
	// let them land so the next start is as warm as this run got.
	s.prep.Flush()
	s.log.Info("drained")
	return err
}

// Close drains the job pool without an HTTP listener: queued and
// running explorations finish (or are cancelled when ctx expires).
// It is the shutdown path for embedders that mounted Handler() in
// their own server (httptest fixtures, flexcl-check) instead of
// calling Serve.
func (s *Server) Close(ctx context.Context) error {
	err := s.pool.stop(ctx)
	s.prep.Flush()
	return err
}

// ListenAndServe is Listen followed by Serve.
func (s *Server) ListenAndServe(ctx context.Context) error {
	if _, err := s.Listen(); err != nil {
		return err
	}
	return s.Serve(ctx)
}

// ---- request/response types ----

type apiError struct {
	Error string `json:"error"`
}

// DesignJSON is the wire form of a model.Design (shared with the v2
// envelope in internal/serve/api).
type DesignJSON = api.Design

func designToJSON(d model.Design) DesignJSON { return api.DesignToWire(d) }

type predictRequest struct {
	Bench    string     `json:"bench"`
	Kernel   string     `json:"kernel"`
	Platform string     `json:"platform"`
	Design   DesignJSON `json:"design"`
}

type predictResponse struct {
	Bench         string     `json:"bench"`
	Kernel        string     `json:"kernel"`
	Platform      string     `json:"platform"`
	Design        DesignJSON `json:"design"`
	EffectiveMode string     `json:"effective_mode"`
	Cycles        float64    `json:"cycles"`
	Seconds       float64    `json:"seconds"`
	IIComp        int        `json:"ii_comp"`
	Depth         int        `json:"pipeline_depth"`
	NPE           int        `json:"n_pe"`
	NCU           int        `json:"n_cu"`
	Cached        bool       `json:"cached"`
}

// maxPooledBody caps the response buffers writeJSON keeps for reuse: a
// buffer that grew past it is left to the garbage collector, so one
// large body does not stay live for the life of the process.
const maxPooledBody = 64 << 10

// jsonBody is a reusable response buffer with its indenting encoder,
// whose own indent buffer is reused along with it.
type jsonBody struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonBodies = sync.Pool{New: func() any {
	b := new(jsonBody)
	b.enc = json.NewEncoder(&b.buf)
	b.enc.SetIndent("", "  ")
	return b
}}

// writeJSON answers code with v encoded as indented JSON (HTML escaped,
// with a trailing newline), sent with its Content-Length in one write.
// A value that fails to encode answers code with an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b := jsonBodies.Get().(*jsonBody)
	defer func() {
		if b.buf.Cap() <= maxPooledBody {
			b.buf.Reset()
			jsonBodies.Put(b)
		}
	}()
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if err := b.enc.Encode(v); err != nil {
		w.WriteHeader(code)
		return
	}
	h.Set("Content-Length", strconv.Itoa(b.buf.Len()))
	w.WriteHeader(code)
	w.Write(b.buf.Bytes())
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// writeV1Err flattens a typed API error into the legacy {"error": msg}
// envelope (identical bytes to the historical v1 responses).
func writeV1Err(w http.ResponseWriter, e *api.Error) {
	if e.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfterSeconds))
	}
	writeErr(w, e.Status, "%s", e.Message)
}

// writeV2Err renders a typed API error in the v2 {"error": {...}}
// envelope, mirroring any Retry-After hint into the header.
func writeV2Err(w http.ResponseWriter, e *api.Error) {
	if e.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfterSeconds))
	}
	writeJSON(w, e.Status, struct {
		Error *api.Error `json:"error"`
	}{e})
}

// decodeStrict decodes a JSON body, rejecting unknown fields and
// trailing garbage — both answer 400.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// ---- the coalescing, admission-controlled prediction core ----

// predictOutcome is one computed (or recalled) estimate plus how it was
// obtained.
type predictOutcome struct {
	est model.Estimate
	// sourceHash is the kernel's SourceHash.
	sourceHash string
	// cache ∈ {"pred", "prep", "coalesced", "miss"}; see
	// api.PredictResult.Cache.
	cache string
	// wait is the time spent queued for admission.
	wait time.Duration
}

// predictErr maps a prediction-path failure to a typed API error. shed
// responses carry the Retry-After hint; context expiry is a deadline
// (timeout names the budget that expired, for the message only).
func (s *Server) predictErr(err error, timeout time.Duration) *api.Error {
	switch {
	case errors.Is(err, errShed):
		e := api.Errf(api.CodeShed, http.StatusTooManyRequests,
			"prediction queue full, retry after %v", s.cfg.RetryAfter)
		e.RetryAfterSeconds = int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
		return e
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return api.Errf(api.CodeDeadline, http.StatusGatewayTimeout,
			"prediction timed out after %v", timeout)
	default:
		return api.Errf(api.CodeInternal, http.StatusInternalServerError,
			"analysis failed: %v", err)
	}
}

// predictCore computes (or recalls) one estimate. The path is:
// prediction LRU (free, no admission) → admission gate (bounded
// concurrency, lane-prioritized, shed beyond the queue bound) →
// singleflight prep cache (concurrent requests for the same kernel
// source share one compile+analyze fill) → predict. ctx carries the
// request deadline through every stage; an expired request unblocks
// immediately while an in-flight fill keeps running in the background
// and lands in the cache for the retry.
func (s *Server) predictCore(ctx context.Context, lane int, k *bench.Kernel, p *device.Platform, d model.Design) (predictOutcome, error) {
	src := k.SourceHash()
	telemetry.Annotate(ctx, "kernel", k.ID())
	telemetry.Annotate(ctx, "source_hash", src)
	obs.AddField(ctx, "lane", laneName(lane))
	key := k.CacheKey() + "|" + p.Name + "|" + d.String()
	if est, ok := s.pred.Get(key); ok {
		s.reg.Counter("predict_source_total", `source="pred"`).Inc()
		telemetry.Annotate(ctx, "cache", "pred")
		obs.AddField(ctx, "cache", "pred")
		return predictOutcome{est: est, sourceHash: src, cache: "pred"}, nil
	}
	ll := fmt.Sprintf(`lane="%s"`, laneName(lane))
	actx, asp := telemetry.Start(ctx, "admission")
	asp.Annotate("lane", laneName(lane))
	release, wait, err := s.admit.admit(actx, lane)
	asp.End()
	s.reg.Histogram("predict_queue_wait_seconds", ll, obs.QueueBuckets...).
		Observe(wait.Seconds())
	if err != nil {
		if errors.Is(err, errShed) {
			s.reg.Counter("predict_shed_total", ll).Inc()
		}
		return predictOutcome{wait: wait}, err
	}
	defer release()
	s.reg.Counter("predict_admitted_total", ll).Inc()

	pctx, psp := telemetry.Start(ctx, "prep")
	res, err := s.prep.AnalysisContext(pctx, k, p, d.WGSize)
	psp.Annotate("outcome", res.Outcome.String())
	if res.Source != "" {
		psp.Annotate("source", res.Source)
	}
	psp.End()
	if err != nil {
		return predictOutcome{wait: wait}, err
	}
	_, msp := telemetry.Start(ctx, "model")
	est := *res.An.Predict(d)
	msp.End()
	s.pred.Put(key, est)
	cache := "miss"
	switch res.Outcome {
	case dse.PrepCoalesced:
		cache = "coalesced"
	case dse.PrepCached:
		cache = "prep"
	}
	telemetry.Annotate(ctx, "cache", cache)
	obs.AddField(ctx, "cache", cache)
	s.reg.Counter("predict_source_total", fmt.Sprintf(`source="%s"`, cache)).Inc()
	return predictOutcome{est: est, sourceHash: src, cache: cache, wait: wait}, nil
}

// ---- v1 handlers (thin adapters over the v2 envelope) ----

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req predictRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	res, apiErr := api.ResolvePredict(api.PredictRequest{
		Kernel:   api.KernelRef{Bench: req.Bench, Kernel: req.Kernel},
		Platform: req.Platform,
		Design:   req.Design,
	}, api.V1)
	if apiErr != nil {
		writeV1Err(w, apiErr)
		return
	}
	out, err := s.predictCore(r.Context(), laneInteractive, res.K, res.P, res.D)
	if err != nil {
		writeV1Err(w, s.predictErr(err, s.cfg.RequestTimeout))
		return
	}
	est := out.est
	writeJSON(w, http.StatusOK, predictResponse{
		Bench:         res.K.Bench,
		Kernel:        res.K.Name,
		Platform:      res.P.Name,
		Design:        designToJSON(res.D),
		EffectiveMode: est.Mode.String(),
		Cycles:        est.Cycles,
		Seconds:       est.Seconds,
		IIComp:        est.IIComp,
		Depth:         est.Depth,
		NPE:           est.NPE,
		NCU:           est.NCU,
		Cached:        out.cache == "pred",
	})
}

type kernelInfo = api.KernelInfo

func (s *Server) handleKernels(w http.ResponseWriter, r *http.Request) {
	p, _ := device.Lookup("virtex7")
	all := bench.All()
	out := make([]kernelInfo, 0, len(all))
	for _, k := range all {
		out = append(out, api.KernelInfoOf(k, p))
	}
	writeJSON(w, http.StatusOK, api.KernelList{Count: len(out), Kernels: out})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Fold the cache snapshots into gauges at scrape time so the text
	// endpoint always reflects the current counters.
	ps := s.pred.Stats()
	s.reg.Gauge("predict_cache_hits", "").Set(float64(ps.Hits))
	s.reg.Gauge("predict_cache_misses", "").Set(float64(ps.Misses))
	s.reg.Gauge("predict_cache_evictions", "").Set(float64(ps.Evictions))
	s.reg.Gauge("predict_cache_entries", "").Set(float64(s.pred.Len()))
	s.reg.Gauge("predict_cache_hit_ratio", "").Set(ps.HitRatio())
	qs := s.prep.Stats()
	s.reg.Gauge("prep_cache_hits", "").Set(float64(qs.Hits))
	s.reg.Gauge("prep_cache_misses", "").Set(float64(qs.Misses))
	s.reg.Gauge("prep_cache_entries", "").Set(float64(s.prep.Len()))
	s.reg.Gauge("prep_cache_computes", "").Set(float64(qs.Computes))
	s.reg.Gauge("prep_cache_coalesced", "").Set(float64(qs.Coalesced))
	s.reg.Gauge("prep_cache_evictions", "").Set(float64(qs.Evictions))
	s.reg.Gauge("prep_cache_disk_hits", "").Set(float64(qs.DiskHits))
	if s.artifacts != nil {
		as := s.artifacts.Stats()
		s.reg.Gauge("artifact_hits", "").Set(float64(as.Hits))
		s.reg.Gauge("artifact_misses", "").Set(float64(as.Misses))
		s.reg.Gauge("artifact_writes", "").Set(float64(as.Writes))
		s.reg.Gauge("artifact_write_errors", "").Set(float64(as.WriteErrors))
		s.reg.Gauge("artifact_corrupt", "").Set(float64(as.Corrupt))
	}
	s.admit.exportMetrics(s.reg)
	s.pool.exportMetrics(s.reg)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
	// Process-wide counters (profiler fast-path takes, etc.) live in
	// the global registry, under their own namespace.
	obs.Global().WritePrometheus(w)
}
