package core

import (
	"fmt"
	"runtime"
	"testing"

	"sheetmusiq/internal/obs"
	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

// floatSheet builds a sheet over n rows with a string grouping column and
// a column of kind k holding numeric values.
func numericSheet(t *testing.T, n int, k value.Kind) *Spreadsheet {
	t.Helper()
	rel := relation.New("nums", relation.Schema{
		{Name: "G", Kind: value.KindString},
		{Name: "X", Kind: k},
	})
	for i := 0; i < n; i++ {
		var x value.Value
		if k == value.KindFloat {
			x = value.NewFloat(float64(i) * 1.25)
		} else {
			x = value.NewInt(int64(i))
		}
		rel.MustAppend(value.NewString(fmt.Sprintf("g%d", i%4)), x)
	}
	return New(rel)
}

// TestFloatSumMergeFallbackCountedOnce pins the PR 2 determinism contract
// through the metrics layer: a float-input SUM aggregation over the
// parallel threshold must abandon chunked accumulation (float addition
// re-associates across chunks, so relation.GroupAggregate keeps the pass
// sequential and reports it) and record the fallback exactly once per
// replay — while
// an integer-input SUM, whose merge is exact, records none.
func TestFloatSumMergeFallbackCountedOnce(t *testing.T) {
	// Chunks consults GOMAXPROCS, so force multi-proc scheduling even on a
	// single-CPU machine — the determinism contract must hold everywhere.
	oldProcs := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(oldProcs)
	old := relation.ParallelThreshold
	relation.ParallelThreshold = 8
	defer func() { relation.ParallelThreshold = old }()

	const name = "core.eval.merge_fallback"

	s := numericSheet(t, 64, value.KindFloat)
	if err := s.GroupBy(Asc, "G"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AggregateAs("SumX", relation.AggSum, "X", 2); err != nil {
		t.Fatal(err)
	}
	before := obs.Default.CounterValue(name)
	if _, err := s.Evaluate(); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default.CounterValue(name) - before; got != 1 {
		t.Fatalf("float SUM replay recorded %d merge fallbacks, want exactly 1", got)
	}

	// The memoised re-read must not replay, so the counter must hold.
	after := obs.Default.CounterValue(name)
	if _, err := s.Evaluate(); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default.CounterValue(name); got != after {
		t.Fatalf("cached Evaluate moved the fallback counter: %d -> %d", after, got)
	}

	// Integer input merges exactly — the parallel path stays chunked and
	// no fallback is recorded.
	si := numericSheet(t, 64, value.KindInt)
	if err := si.GroupBy(Asc, "G"); err != nil {
		t.Fatal(err)
	}
	if _, err := si.AggregateAs("SumX", relation.AggSum, "X", 2); err != nil {
		t.Fatal(err)
	}
	before = obs.Default.CounterValue(name)
	if _, err := si.Evaluate(); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default.CounterValue(name) - before; got != 0 {
		t.Fatalf("int SUM replay recorded %d merge fallbacks, want 0", got)
	}
}

// TestEvalMetricsAdvance sanity-checks the per-replay series: one uncached
// evaluation bumps the eval counter and replay-op total, and a cached
// re-read bumps only the cache-hit counter.
func TestEvalMetricsAdvance(t *testing.T) {
	s := numericSheet(t, 16, value.KindInt)
	if _, err := s.Select("X >= 2"); err != nil {
		t.Fatal(err)
	}
	if err := s.GroupBy(Asc, "G"); err != nil {
		t.Fatal(err)
	}

	evals := obs.Default.CounterValue("core.eval.count")
	replay := obs.Default.CounterValue("core.eval.replay_ops")
	hits := obs.Default.CounterValue("core.eval.cache_hits")
	if _, err := s.Evaluate(); err != nil {
		t.Fatal(err)
	}
	if d := obs.Default.CounterValue("core.eval.count") - evals; d != 1 {
		t.Fatalf("eval count delta = %d, want 1", d)
	}
	// One selection + one grouping level were replayed.
	if d := obs.Default.CounterValue("core.eval.replay_ops") - replay; d != 2 {
		t.Fatalf("replay ops delta = %d, want 2", d)
	}
	if _, err := s.Evaluate(); err != nil {
		t.Fatal(err)
	}
	if d := obs.Default.CounterValue("core.eval.cache_hits") - hits; d != 1 {
		t.Fatalf("cache hit delta = %d, want 1", d)
	}
}
