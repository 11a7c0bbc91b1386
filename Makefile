GO ?= go

.PHONY: all build vet test race bench bench-json bench-diff bench-check \
	codec-check obs-check cluster-check fmt-check ci lint lint-gsvet lint-staticcheck \
	lint-govulncheck lint-timing lint-json loc

# Benchmark knobs for bench-json: runs to average and time per run.
# CI smoke uses BENCHTIME=1x; real measurements want the defaults or more.
BENCHCOUNT ?= 1
BENCHTIME ?= 1s

# Pinned external linter versions. The module is dependency-free and must
# build offline, so these cannot live as go.mod tool directives; the pins
# live here and CI runs them via `go run pkg@version` (LINT_ONLINE=1).
# Offline, a locally installed binary is used when present and the step is
# skipped (with a notice) otherwise — gsvet, the in-tree invariant suite,
# always runs.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4
LINT_ONLINE ?= 0

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One benchmark pipeline per experiment plus the parallel ingest/decode
# comparisons; -benchtime=1x keeps this a smoke run (drop it to measure).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./...

# Full-measurement benchmarks emitted as machine-readable JSON, with
# improvement percentages against the checked-in PR8 results when present
# (the ingest/decode/oracle numbers must stay within noise of them; PR9
# adds BenchmarkClusterIngest, pricing the LocalTransport channel hop
# against the 3-shard TCP loopback wire). Raise BENCHCOUNT (e.g. 5) for
# stable numbers.
bench-json:
	$(GO) test -run '^$$' -bench 'Benchmark(E|Parallel|Checkpoint|Oracle|Sparse|Cluster)' -benchmem \
		-count $(BENCHCOUNT) -benchtime $(BENCHTIME) . \
	| $(GO) run ./cmd/benchjson -out BENCH_pr9.json \
		-baseline BENCH_pr8.json \
		-label "PR9 transport-agnostic shard plane (count=$(BENCHCOUNT))"

# Per-benchmark ns/op and allocs/op deltas between the previous PR's
# checked-in numbers and the current run (make bench-json first). Fails
# when any benchmark regresses more than BENCH_FAIL_OVER percent; CI runs
# this as a soft gate (annotated, non-blocking) since single-run numbers
# are noisy — use BENCHCOUNT=5 before trusting a failure.
BENCH_FAIL_OVER ?= 3
bench-diff:
	$(GO) run ./cmd/benchjson -diff -fail-over=$(BENCH_FAIL_OVER) \
		BENCH_pr8.json BENCH_pr9.json

# The gsbench benchmark's own tests. gsbench/ is a separate module (it
# builds the library from ../ via a replace directive), so `go test ./...`
# never reaches it. Its short mode checks every answer against the exact
# graph, byte-matches the TCP cluster against a serial replay, and checks
# that the exact metrics repeat; the environment is gsbench/run.sh's
# (offline, no workspace, no inherited flags).
bench-check:
	cd gsbench && GOFLAGS= GOWORK=off GOPROXY=off $(GO) test .

# Wire-format gate: the codec corruption/round-trip suite and the root
# checkpoint conformance harness under the race detector, plus a fuzz smoke
# of both codec targets, the L0 sampler share parser, the shard-plane
# hello/batch/ack payload parsers, every structure's share-frame merge,
# every checkpoint opener, the hybrid's vertex-share restore (ReadFrom and
# Open of arbitrary hybrid states), and the edge-list parser (go test
# accepts one -fuzz pattern per run, hence one invocation each). Every
# target caps minimization at 100 runs per input: with the default 60 s
# budget a 10 s smoke run can spend all of it minimizing a new input and
# end at 0 execs/s.
codec-check:
	$(GO) test -race ./internal/codec/ ./internal/cli/
	$(GO) test -race -run 'TestCheckpoint' .
	$(GO) test -run '^$$' -fuzz FuzzCodecRoundTrip -fuzztime 10s -fuzzminimizetime 100x ./internal/codec/
	$(GO) test -run '^$$' -fuzz FuzzCodecDecode -fuzztime 10s -fuzzminimizetime 100x ./internal/codec/
	$(GO) test -run '^$$' -fuzz FuzzSamplerAddBinary -fuzztime 10s -fuzzminimizetime 100x ./internal/l0/
	$(GO) test -run '^$$' -fuzz FuzzWirePayloads -fuzztime 10s -fuzzminimizetime 100x ./internal/shardplane/
	$(GO) test -run '^$$' -fuzz FuzzShareFrame -fuzztime 10s -fuzzminimizetime 100x .
	$(GO) test -run '^$$' -fuzz FuzzCheckpointOpen -fuzztime 10s -fuzzminimizetime 100x .
	$(GO) test -run '^$$' -fuzz FuzzHybridUnmarshal -fuzztime 10s -fuzzminimizetime 100x ./internal/hybrid/
	$(GO) test -run '^$$' -fuzz FuzzReadEdgeList -fuzztime 10s -fuzzminimizetime 100x ./internal/stream/

# Race-enabled run of the packages that bind metrics or start spans from
# several goroutines — the skeleton peel and the parallel vertexconn H
# build start child spans concurrently, and the sketch and vertexconn
# tests decode one sketch from two goroutines with obs enabled (edgeconn's
# decodes a skeleton, the sketch package's decode, and reads λ off it) —
# plus the obs endpoint smoke test;
# the fast loop CI runs on every push (race over the whole module is the
# `race` target). The race run repeats at GOMAXPROCS 1: with obs enabled,
# the counters' atomic adds order goroutines running in parallel, which
# can hide a race from the detector, and one P interleaves them instead.
# The doc-drift test fails when a registered metric family or /debug/*
# endpoint is missing from the IMPLEMENTATION.md observability tables.
obs-check:
	$(GO) test -race -cpu 1,4 ./internal/obs/ ./internal/sketch/ ./internal/core/vertexconn/ ./internal/core/edgeconn/ ./internal/oracle/ ./internal/hybrid/
	$(GO) test -run 'TestObsEndpointSmoke|TestObsDocDrift' ./cmd/experiments/

# Cluster gate: the shard-plane suite under the race detector — wire
# round trips, the three-way serial/local/TCP equivalence, server protocol
# rejection, the kill-and-restore drills (in-process and real gsd shard
# processes), and the genstream loadgen end-to-end. Everything runs on
# loopback with ephemeral ports; no external services.
cluster-check:
	$(GO) test -race ./internal/shardplane/
	$(GO) test -race -run 'TestGSD|TestGenstreamLoadgen' ./internal/cli/

# Non-test Go lines of the module — library, commands, examples — the
# size figure CHANGES.md entries report. gsbench/ (a module of its own),
# testdata and dot directories (build outputs) are left out.
loc:
	@find . \( -name gsbench -o -name testdata -o -name '.?*' \) -prune -o \
		-name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l

fmt-check:
	@out=$$(gofmt -s -l .); if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; fi

# Static analysis gate: the in-tree invariant suite (cmd/gsvet —
# mapdeterminism, seeddiscipline, obshandles, checkpointopener,
# epochguard, spanend, transportclose, plus the CFG-backed lockatomic,
# errsentinel, and goroutineleak) plus the pinned external linters. gsvet
# needs only the Go toolchain and always runs; see the version pins above
# for the external-tool gating.
lint: lint-gsvet lint-staticcheck lint-govulncheck

lint-gsvet:
	$(GO) run ./cmd/gsvet ./...

# Machine-readable findings (including suppressed ones, for the audit
# trail); CI uploads the file as an artifact. Not a gate — `make lint`
# blocks on live findings, this step records them even when it fails.
LINT_JSON ?= gsvet.json
lint-json:
	$(GO) run ./cmd/gsvet -json ./... > $(LINT_JSON) || true
	@echo "lint: findings written to $(LINT_JSON)"

# Wall-clock budget for the module-wide gsvet run (seconds). The CFG +
# dataflow analyzers must stay cheap enough for the edit loop; the budget
# is generous against CI jitter but catches an accidental quadratic blowup.
LINT_BUDGET ?= 120
lint-timing:
	@start=$$(date +%s); \
	$(GO) run ./cmd/gsvet ./... >/dev/null; \
	end=$$(date +%s); took=$$((end - start)); \
	echo "lint-timing: gsvet module run took $${took}s (budget $(LINT_BUDGET)s)"; \
	if [ $$took -gt $(LINT_BUDGET) ]; then \
		echo "lint-timing: budget exceeded"; exit 1; fi

lint-staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif [ "$(LINT_ONLINE)" = "1" ]; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	else \
		echo "lint: staticcheck $(STATICCHECK_VERSION) not installed and LINT_ONLINE != 1; skipping"; \
	fi

lint-govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	elif [ "$(LINT_ONLINE)" = "1" ]; then \
		$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...; \
	else \
		echo "lint: govulncheck $(GOVULNCHECK_VERSION) not installed and LINT_ONLINE != 1; skipping"; \
	fi

# Every gate the GitHub workflow runs. bench-check is the only one that
# builds the separate gsbench/ module against the library, so it is what
# catches a library rename that breaks the benchmark. bench-json stays out:
# it rewrites the checked-in BENCH_pr9.json.
ci: fmt-check vet lint lint-timing build test race codec-check obs-check cluster-check bench-check bench
