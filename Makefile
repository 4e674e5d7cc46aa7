GO ?= go

.PHONY: build test race vet lint loc bench bench-json bench-gate loadgen-smoke clean

build:
	$(GO) build ./...

# The obs registry, the instrumented server, the packages with parallel
# kernels (grouping/join/sort chunk fan-out) and internal/expr, whose batch
# programs chunked stages share across goroutines, are the most
# concurrency-sensitive, so test always re-runs them under the race detector
# (full-tree race stays available as `make race`). internal/core, relation,
# sql, tpch, sqlgen and engine additionally race with the parallel threshold
# forced low, so the chunk fan-out in every evaluation stage, executor loop,
# join gather and grouping pass fires even on the small test relations (tpch
# builds the study views against the golden answers and the algebra ≡ SQL
# differential; sqlgen's algebra ≡ SQL differential and engine's ∪/−/δ tests
# drive SQL's column-emitting DISTINCT, ORDER BY, GROUP BY and window paths);
# -count=1 because the threshold is read at package init, which the test
# cache does not see, so a cached result of the plain race run would stand
# in for it. perfbench is its own module, which the root
# `go test ./...` never reaches; vetting and testing it here catches a break
# in an API the benchmark calls before the benchmark runs.
test: lint
	$(GO) test ./...
	$(GO) test -race ./internal/obs ./internal/server ./internal/relation ./internal/core ./internal/sql ./internal/wal ./internal/engine ./internal/sqlgen ./internal/graph ./internal/expr
	SHEETMUSIQ_PARALLEL_THRESHOLD=4 $(GO) test -count=1 -race ./internal/core ./internal/relation ./internal/sql ./internal/tpch ./internal/sqlgen ./internal/engine
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint fails when gofmt would rewrite any file, then prefers staticcheck
# when it is on PATH and falls back to go vet, so `make test` needs no
# network access or extra tooling to run.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: these files need formatting:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "$(GO) vet ./... (staticcheck not installed)"; $(GO) vet ./...; \
	fi

# loc prints the number of non-test Go lines outside perfbench/ (tracked
# files and new ones not yet added), the size figure ROADMAP and CHANGES.md
# track from change to change.
loc:
	@git ls-files --cached --others --exclude-standard '*.go' | grep -v '_test\.go$$' | grep -v '^perfbench/' | xargs cat | wc -l

# bench-gate re-runs the tracked headline workloads (BENCH_GATE_PATTERN,
# defined below — the one list of gated benchmarks) and fails when any of
# them falls below 0.9x of the ns/op recorded in BENCH_eval.json — the perf
# counterpart of lint, cheap enough to run before every merge.
bench-gate:
	BENCH_GATE_PATTERN='$(BENCH_GATE_PATTERN)' bash scripts/bench_gate.sh

# The suite includes BenchmarkTPCHQ1SF1, whose SF-1 dataset takes about a
# minute to generate; the widened -timeout keeps the full run inside it.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -timeout=60m .

# bench-json records the benchmark suite into BENCH_eval.json: the file's
# previous "after" snapshot becomes "before", and this run becomes "after".
# BenchmarkInstrumentedEval/{bare,instrumented}/* pairs land in the same
# file; their ratio is the observability layer's overhead (budget <5%).
# The tracked gate workloads then re-run -count=$(BENCH_JSON_COUNT) times in
# a fresh process and benchjson's min-of-runs selection keeps each
# benchmark's fastest line — a full-suite process accumulates a large live
# heap by the time the heavyweights run, and a single contended iteration
# would be recorded as the baseline the gate holds future work to.
BENCH_JSON_COUNT ?= 3
BENCH_GATE_PATTERN ?= ^(BenchmarkSelection100k|BenchmarkFormulaEvaluate100k|BenchmarkAggregate100k|BenchmarkGroupAggregate100k|BenchmarkSort100k|BenchmarkHashJoin1kx1k|BenchmarkWindowRank100k|BenchmarkMovingSum100k|BenchmarkInvalidationPrecision100k|BenchmarkTPCHQ1SF1)$$
bench-json:
	( $(GO) test -run='^$$' -bench=. -benchmem -timeout=60m . ; \
	  $(GO) test -run='^$$' -bench='$(BENCH_GATE_PATTERN)' -benchmem -count=$(BENCH_JSON_COUNT) -timeout=60m . ) \
	  | $(GO) run ./cmd/benchjson -update BENCH_eval.json

# loadgen-smoke is the end-to-end durability check: durable server, loadgen
# burst, kill -9, restart, verify every session renders identical state.
loadgen-smoke:
	bash scripts/loadgen_smoke.sh

clean:
	$(GO) clean ./...
