package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBaseline records after as the baseline history file gate reads.
func writeBaseline(t *testing.T, after snapshot) string {
	return writeHistory(t, history{After: after})
}

// writeHistory writes h as the history file gate reads.
func writeHistory(t *testing.T, h history) string {
	t.Helper()
	data, err := json.Marshal(h)
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
func parsed(t *testing.T, out string) *benchRun {
	t.Helper()
	cur, err := parse(bufio.NewScanner(strings.NewReader(out)))
	if err != nil {
		t.Fatal(err)
	}
	return cur
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

// stampedOutput is `go test -bench` output with its header lines.
const stampedOutput = `goos: linux
goarch: amd64
pkg: sheetmusiq
cpu: Test CPU @ 2.00GHz
BenchmarkSort100k-2        100   1000000 ns/op   4096 B/op   40 allocs/op
BenchmarkSelection100k-2   200    500000 ns/op   1024 B/op   10 allocs/op
`

// TestParseStampsHost: the header lines, the -N suffix and the toolchain
// fill the stamp.
func TestParseStampsHost(t *testing.T) {
	st := parsed(t, stampedOutput).stamp
	if st.GOOS != "linux" || st.GOARCH != "amd64" || st.CPU != "Test CPU @ 2.00GHz" || st.GOMAXPROCS != 2 {
		t.Fatalf("stamp %+v: want linux/amd64, the cpu line and GOMAXPROCS 2", st)
	}
	if st.GoVersion == "" || st.Commit == "" {
		t.Fatalf("stamp %+v: want the Go version and a commit", st)
	}
	if st := parsed(t, "BenchmarkSort100k   100   1000000 ns/op\n").stamp; st.GOMAXPROCS != 1 {
		t.Fatalf("a name without a -N suffix ran at GOMAXPROCS 1, stamp says %d", st.GOMAXPROCS)
	}
	_, err := parse(bufio.NewScanner(strings.NewReader("BenchmarkA-1 10 5 ns/op\nBenchmarkA-2 10 4 ns/op\n")))
	if err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Fatalf("lines at two GOMAXPROCS values: err %v, want a refusal", err)
	}
}

// TestGateHostStamps: the gate compares a run with a baseline stamped on
// the same host, refuses one stamped on another host, and compares with an
// unstamped baseline while saying that the host went unchecked.
func TestGateHostStamps(t *testing.T) {
	var buf bytes.Buffer
	report = &buf
	defer func() { report = os.Stdout }()

	cur := parsed(t, stampedOutput)
	same := *cur.stamp
	same.Commit = "another commit"
	if err := gate(cur, writeHistory(t, history{After: baseline, AfterStamp: &same}), 0.9, 1.25); err != nil {
		t.Fatalf("gate against a same-host baseline from another commit: %v", err)
	}
	for _, edit := range []func(s *stamp){
		func(s *stamp) { s.CPU = "Other CPU" },
		func(s *stamp) { s.GOMAXPROCS = 8 },
		func(s *stamp) { s.GoVersion = "go0.0" },
		func(s *stamp) { s.GOARCH = "arm64" },
	} {
		other := *cur.stamp
		edit(&other)
		err := gate(cur, writeHistory(t, history{After: baseline, AfterStamp: &other}), 0.9, 1.25)
		if err == nil || !strings.Contains(err.Error(), "another host") {
			t.Fatalf("gate against a baseline stamped %s: err %v, want a refusal", other.host(), err)
		}
	}
	buf.Reset()
	if err := gate(cur, writeBaseline(t, baseline), 0.9, 1.25); err != nil {
		t.Fatalf("gate against an unstamped baseline: %v", err)
	}
	if !strings.Contains(buf.String(), "carries no host stamp") {
		t.Fatalf("gate against an unstamped baseline did not say so:\n%s", buf.String())
	}
}

// TestUpdateStampsSnapshots: -update stamps the new snapshot and carries
// the previous one's stamp into before.
func TestUpdateStampsSnapshots(t *testing.T) {
	old := stamp{GoVersion: "go1.0", CPU: "Old CPU", GOMAXPROCS: 1, Commit: "old"}
	path := writeHistory(t, history{After: baseline, AfterStamp: &old})
	if err := record(parsed(t, stampedOutput), path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var h history
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	if h.BeforeStamp == nil || *h.BeforeStamp != old {
		t.Fatalf("before_stamp = %+v, want the previous after_stamp %+v", h.BeforeStamp, old)
	}
	if h.AfterStamp == nil || h.AfterStamp.CPU != "Test CPU @ 2.00GHz" || h.AfterStamp.GOMAXPROCS != 2 {
		t.Fatalf("after_stamp = %+v, want this run's stamp", h.AfterStamp)
	}
}
