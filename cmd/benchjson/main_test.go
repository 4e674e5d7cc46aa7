package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBaseline records after as the baseline history file gate reads.
func writeBaseline(t *testing.T, after snapshot) string {
	t.Helper()
	data, err := json.Marshal(history{After: after})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_eval.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// parsed parses `go test -bench` output the way the gate's stdin is parsed.
func parsed(t *testing.T, out string) snapshot {
	t.Helper()
	snap, err := parse(bufio.NewScanner(strings.NewReader(out)))
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

var baseline = snapshot{
	"BenchmarkSort100k":      {"ns_per_op": 1_000_000, "allocs_per_op": 40},
	"BenchmarkSelection100k": {"ns_per_op": 500_000, "allocs_per_op": 10},
}

func TestGatePasses(t *testing.T) {
	cur := parsed(t, `BenchmarkSort100k-2        100   1050000 ns/op   4096 B/op   45 allocs/op
BenchmarkSort100k-2        100   1020000 ns/op   4096 B/op   45 allocs/op
BenchmarkSelection100k-2   200    480000 ns/op   1024 B/op   10 allocs/op
`)
	if err := gate(cur, writeBaseline(t, baseline), 0.9, 1.25); err != nil {
		t.Fatalf("gate failed a run within bounds: %v", err)
	}
}

func TestGateFailsOnTimeRegression(t *testing.T) {
	cur := parsed(t, `BenchmarkSort100k-2        100   1200000 ns/op   4096 B/op   40 allocs/op
BenchmarkSelection100k-2   200    480000 ns/op   1024 B/op   10 allocs/op
`)
	err := gate(cur, writeBaseline(t, baseline), 0.9, 1.25)
	if err == nil || !strings.Contains(err.Error(), "1 of 2 tracked workloads regressed") {
		t.Fatalf("gate on a 1.2x slower run: err %v, want one regression", err)
	}
}

func TestGateFailsOnAllocRegression(t *testing.T) {
	cur := parsed(t, `BenchmarkSort100k-2        100   1000000 ns/op   4096 B/op   51 allocs/op
BenchmarkSelection100k-2   200    500000 ns/op   1024 B/op   10 allocs/op
`)
	err := gate(cur, writeBaseline(t, baseline), 0.9, 1.25)
	if err == nil || !strings.Contains(err.Error(), "1 of 2 tracked workloads regressed") {
		t.Fatalf("gate on 51 allocs against a 40-alloc baseline: err %v, want one regression", err)
	}
}

func TestGateFailsOnMissingBaseline(t *testing.T) {
	cur := parsed(t, `BenchmarkSort100k-2        100   1000000 ns/op   4096 B/op   40 allocs/op
BenchmarkWindowRank100k-2  100    900000 ns/op   2048 B/op   20 allocs/op
`)
	err := gate(cur, writeBaseline(t, baseline), 0.9, 1.25)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkWindowRank100k") {
		t.Fatalf("gate on a benchmark with no baseline: err %v, want a failure naming it", err)
	}
}
