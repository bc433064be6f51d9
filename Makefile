GO ?= go
FUZZTIME ?= 10s

.PHONY: build vet test race cover serve fuzz-smoke bench-smoke fmt-check perfbench-check check check-smoke ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The exploration engine shards design points over goroutines; every
# test must stay clean under the race detector.
race:
	$(GO) test -race ./...

# Coverage profile + per-function summary (coverage.out/coverage.txt are
# uploaded as a CI artifact).
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out > coverage.txt
	@tail -n 1 coverage.txt

# Run the HTTP prediction/DSE service (see docs/SERVE.md).
serve:
	$(GO) run ./cmd/flexcl-serve

# Short fuzzing pass over the frontend targets: the seed corpora (all
# bundled Rodinia/PolyBench kernels plus hostile fragments) run on every
# plain `go test`; this additionally mutates for $(FUZZTIME) per target.
# Patterns are anchored: an unanchored -fuzz=FuzzParse matches both
# FuzzParse and FuzzParser and `go test` refuses to fuzz at all.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzLexer$$' -fuzztime=$(FUZZTIME) ./internal/opencl/lexer
	$(GO) test -run='^$$' -fuzz='^FuzzParser$$' -fuzztime=$(FUZZTIME) ./internal/opencl/parser
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME) ./internal/opencl/parser
	$(GO) test -run='^$$' -fuzz='^FuzzLowerBound$$' -fuzztime=$(FUZZTIME) ./internal/dse
	$(GO) test -run='^$$' -fuzz='^FuzzAffineAnalyzer$$' -fuzztime=$(FUZZTIME) ./internal/interp

# Run every in-package benchmark once, so the on-demand comparisons the
# docs point to (the root package's paper-table benchmarks,
# BenchmarkPredict, BenchmarkSearchVsExplore, ...) keep running, not just
# compiling. It measures nothing; perfbench/ is the benchmark.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x . ./internal/...

# Every tracked Go file must be gofmt-clean.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The benchmark (perfbench/, contract in BENCHMARK.json) is its own Go
# module, so ./... above skips it: vet it and run its tests — the
# determinism test, the BENCHMARK.json/program match and a short traced
# run of every workload with its output checks.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Cross-layer correctness audit (see docs/CHECK.md): model invariants,
# differential bands vs the simulator, serve consistency. check-smoke is
# the time-boxed subset CI runs on every push; check is the full corpus.
check:
	$(GO) run ./cmd/flexcl-check

# check-smoke also runs tracelint: every telemetry span must be ended or
# delegated (see cmd/tracelint) — an unended span never reaches the
# trace ring and skews the stage histograms.
check-smoke:
	$(GO) run ./cmd/tracelint -root .
	$(GO) run ./cmd/flexcl-check -smoke -timeout 5m

ci: build vet fmt-check race fuzz-smoke bench-smoke perfbench-check check-smoke
