// Command flexcl-serve runs the FlexCL prediction/DSE service: an HTTP
// JSON API answering single-design predictions synchronously and full
// design-space explorations as polled async jobs, with Prometheus-text
// metrics, expvar, structured logs and graceful SIGTERM drain.
//
// Usage:
//
//	flexcl-serve [-addr :8080] [-workers 2] [-dse-workers 0]
//	             [-max-predicts 0] [-predict-queue 128] [-retry-after 1s]
//	             [-max-batch 256] [-batch-timeout 2m]
//	             [-pred-cache 4096] [-prep-cache 4096]
//	             [-artifact-dir /var/lib/flexcl/artifacts]
//	             [-timeout 10s] [-explore-timeout 5m]
//	             [-drain 30s] [-log text|json]
//	             [-trace-capacity 256] [-trace-keep-slowest 32]
//	             [-debug-addr localhost:6060]
//
// Try it:
//
//	curl -s localhost:8080/v2/kernels | head
//	curl -s -X POST localhost:8080/v2/predict -d \
//	  '{"kernel":{"id":"hotspot/hotspot"},"design":{"wg_size":64,"wi_pipeline":true,"pe":4,"cu":2,"mode":"pipeline"}}'
//	curl -s -X POST localhost:8080/v2/predict:batch -d \
//	  '{"items":[{"kernel":{"id":"nn/nn"},"design":{}},{"kernel":{"id":"nw/nw1"},"design":{}}]}'
//	curl -s -X POST localhost:8080/v2/explore -d '{"kernel":{"id":"nn/nn"}}'
//	curl -s localhost:8080/v2/jobs/j000001
//	curl -s localhost:8080/metrics
//
// See docs/API.md for the wire reference (v2 and the frozen v1) and
// docs/SERVE.md for operations.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 2, "concurrent exploration jobs")
		dseWorkers  = flag.Int("dse-workers", 0, "goroutines per exploration (0 = cores/workers)")
		queue       = flag.Int("queue", 64, "max queued exploration jobs")
		maxPredicts = flag.Int("max-predicts", 0, "concurrent prediction analyses (0 = cores)")
		predQueue   = flag.Int("predict-queue", 128, "admission queue depth per lane; beyond it requests are shed with 429")
		retryAfter  = flag.Duration("retry-after", time.Second, "Retry-After hint on shed (429) responses")
		maxBatch    = flag.Int("max-batch", 256, "max items per /v2/predict:batch request")
		batchTO     = flag.Duration("batch-timeout", 2*time.Minute, "batch request deadline")
		predCache   = flag.Int("pred-cache", 4096, "LRU prediction cache entries (negative disables)")
		prepCache   = flag.Int("prep-cache", 0, "completed compile+analyze cache entries (0 = 4096, negative unbounded)")
		artifactDir = flag.String("artifact-dir", "", "persist compile+analyze results to this directory and answer misses from it (warm restarts; empty = memory only)")
		timeout     = flag.Duration("timeout", 10*time.Second, "synchronous request deadline")
		exploreTO   = flag.Duration("explore-timeout", 5*time.Minute, "per-job exploration deadline")
		drain       = flag.Duration("drain", 30*time.Second, "graceful shutdown budget")
		logFormat   = flag.String("log", "text", "log format: text or json")
		logLevelStr = flag.String("log-level", "info", "log level: debug, info, warn, error")
		traceCap    = flag.Int("trace-capacity", 0, "finished request traces kept in memory (0 = 256, negative disables tracing)")
		traceSlow   = flag.Int("trace-keep-slowest", 0, "slowest traces additionally retained past ring rotation (0 = 32)")
		debugAddr   = flag.String("debug-addr", "", "serve pprof/expvar/trace debug endpoints on this extra address (empty = disabled; bind to localhost)")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevelStr)); err != nil {
		fmt.Fprintf(os.Stderr, "flexcl-serve: bad -log-level %q\n", *logLevelStr)
		os.Exit(2)
	}
	opts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, opts)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, opts)
	default:
		fmt.Fprintf(os.Stderr, "flexcl-serve: bad -log %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)

	s := serve.New(serve.Config{
		Addr:                  *addr,
		Workers:               *workers,
		DSEWorkers:            *dseWorkers,
		QueueDepth:            *queue,
		MaxConcurrentPredicts: *maxPredicts,
		PredictQueueDepth:     *predQueue,
		RetryAfter:            *retryAfter,
		MaxBatchItems:         *maxBatch,
		BatchTimeout:          *batchTO,
		PredCacheSize:         *predCache,
		PrepCacheSize:         *prepCache,
		ArtifactDir:           *artifactDir,
		RequestTimeout:        *timeout,
		ExploreTimeout:        *exploreTO,
		DrainTimeout:          *drain,
		TraceCapacity:         *traceCap,
		TraceKeepSlowest:      *traceSlow,
		Logger:                logger,
	})

	// The debug listener is opt-in and separate from the API port so
	// pprof never ships to the open internet by accident.
	if *debugAddr != "" {
		go func() {
			logger.Info("debug listener", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, s.DebugHandler()); err != nil {
				logger.Error("debug listener", "err", err)
			}
		}()
	}

	// SIGTERM/SIGINT cancel the context; Serve then drains in-flight
	// requests and jobs before returning.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	if err := s.ListenAndServe(ctx); err != nil {
		logger.Error("serve", "err", err)
		os.Exit(1)
	}
}
