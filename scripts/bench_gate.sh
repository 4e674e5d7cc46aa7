#!/usr/bin/env bash
# bench_gate.sh — perf regression gate. Re-runs the tracked benchmark
# workloads and fails if any of them regresses below the threshold ratio
# (baseline ns/op divided by current ns/op, default 0.9x) against the
# recorded snapshot in BENCH_eval.json, or grows its allocs/op past the
# alloc limit (default 1.25x baseline — boxing creeping back shows up in
# allocation counts before it shows up in time). `make bench-gate` wraps
# this.
#
# Single-iteration heavyweights (BenchmarkTPCHQ1SF1) are gated like
# everything else: the run repeats BENCH_GATE_COUNT times and benchjson
# keeps each benchmark's fastest run (min-of-runs), which absorbs the
# allocator/GC swings that a lone 6M-row iteration shows. TPC-H SF-1
# generation happens once per test binary, so the repeats only add the
# query's own runtime.
#
# Environment:
#   BENCH_GATE_PATTERN      -bench regex selecting the tracked workloads;
#                           required, `make bench-gate` passes the Makefile's
#   BENCH_GATE_BASELINE     baseline history file (default BENCH_eval.json)
#   BENCH_GATE_THRESHOLD    minimum accepted time ratio (default 0.9)
#   BENCH_GATE_ALLOC_LIMIT  maximum accepted allocs ratio (default 1.25)
#   BENCH_GATE_COUNT        benchmark repetitions; best run is gated (default 3)
set -euo pipefail
cd "$(dirname "$0")/.."

PATTERN="${BENCH_GATE_PATTERN:?BENCH_GATE_PATTERN is unset; run make bench-gate}"
BASELINE="${BENCH_GATE_BASELINE:-BENCH_eval.json}"
THRESHOLD="${BENCH_GATE_THRESHOLD:-0.9}"
ALLOC_LIMIT="${BENCH_GATE_ALLOC_LIMIT:-1.25}"
COUNT="${BENCH_GATE_COUNT:-3}"

go test -run='^$' -bench="$PATTERN" -benchmem -count="$COUNT" -timeout=60m . \
  | go run ./cmd/benchjson -gate "$BASELINE" -threshold "$THRESHOLD" -alloc-limit "$ALLOC_LIMIT"
