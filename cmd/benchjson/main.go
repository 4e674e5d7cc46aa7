// Command benchjson converts `go test -bench` output into a JSON metrics
// snapshot, so benchmark history can be checked in and diffed. It reads the
// benchmark text from stdin and emits, per benchmark, the ns/op, allocs/op,
// B/op and any custom metrics (req/s and friends).
//
// A benchmark appearing more than once on stdin — `go test -count=N` emits
// one line per run — records its fastest run (minimum ns/op): the minimum is
// the standard noise-robust selector, so single-iteration heavyweights can
// be gated by running them a few times instead of being carved out for
// variance.
//
// With -update FILE it maintains a before/after pair: the file's current
// "after" snapshot (the last recorded run) becomes "before", and the new
// run becomes "after". `make bench-json` uses this to keep BENCH_eval.json
// tracking the latest optimisation step against its predecessor.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// snapshot maps benchmark name to metric name to value.
type snapshot map[string]map[string]float64

// history is the on-disk shape of BENCH_eval.json. Speedup holds, per
// benchmark present in both snapshots, before-ns/op divided by after-ns/op —
// >1 means the recorded run got faster than its predecessor.
type history struct {
	Before  snapshot           `json:"before,omitempty"`
	After   snapshot           `json:"after"`
	Speedup map[string]float64 `json:"speedup,omitempty"`
}

// speedups computes the before/after ns-per-op ratio for every benchmark
// recorded in both snapshots, rounded to two decimals.
func speedups(before, after snapshot) map[string]float64 {
	out := map[string]float64{}
	for name, am := range after {
		bm, ok := before[name]
		if !ok {
			continue
		}
		b, a := bm["ns_per_op"], am["ns_per_op"]
		if b > 0 && a > 0 {
			out[name] = float64(int(b/a*100+0.5)) / 100
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

var procSuffix = regexp.MustCompile(`-\d+$`)

// metricKey maps a go-test unit ("ns/op", "req/s") to a JSON-friendly key.
func metricKey(unit string) string {
	switch unit {
	case "ns/op":
		return "ns_per_op"
	case "B/op":
		return "bytes_per_op"
	case "allocs/op":
		return "allocs_per_op"
	case "req/s":
		return "req_per_s"
	}
	return strings.NewReplacer("/", "_per_", "-", "_").Replace(unit)
}

// parse extracts one snapshot from `go test -bench` output. Repeated lines
// for the same benchmark (`go test -count=N`) keep the fastest run — the one
// with minimum ns/op — so multi-run output gates on the least-noisy sample.
func parse(lines *bufio.Scanner) (snapshot, error) {
	snap := snapshot{}
	for lines.Scan() {
		fields := strings.Fields(lines.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := procSuffix.ReplaceAllString(fields[0], "")
		metrics := map[string]float64{}
		// fields[1] is the iteration count; the rest are value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: %s: bad value %q", name, fields[i])
			}
			metrics[metricKey(fields[i+1])] = v
		}
		if prev, ok := snap[name]; ok && prev["ns_per_op"] <= metrics["ns_per_op"] {
			continue // an earlier run was faster: min-of-runs selection
		}
		snap[name] = metrics
	}
	if err := lines.Err(); err != nil {
		return nil, err
	}
	if len(snap) == 0 {
		return nil, fmt.Errorf("benchjson: no benchmark lines on stdin")
	}
	return snap, nil
}

// gate compares a fresh run against the recorded baseline: every benchmark
// on stdin must keep baseline-ns/current-ns at or above threshold, and its
// allocs/op must not grow past allocLimit times the baseline (boxing
// creeping back shows up in allocation counts before it shows up in time).
// Either violation fails the gate, and so does a benchmark with no baseline
// entry: the run on stdin is the gated set, so a missing entry means the
// benchmark is not gated at all.
func gate(current snapshot, baselineFile string, threshold, allocLimit float64) error {
	data, err := os.ReadFile(baselineFile)
	if err != nil {
		return fmt.Errorf("benchjson: gate baseline: %w", err)
	}
	var h history
	if err := json.Unmarshal(data, &h); err != nil {
		return fmt.Errorf("benchjson: %s: %w", baselineFile, err)
	}
	if h.After == nil {
		return fmt.Errorf("benchjson: %s has no recorded run to gate against", baselineFile)
	}
	checked, failed := 0, 0
	var missing []string
	for name, cm := range current {
		bm, ok := h.After[name]
		if !ok {
			fmt.Printf("%-44s NO BASELINE in %s\n", name, baselineFile)
			missing = append(missing, name)
			continue
		}
		base, cur := bm["ns_per_op"], cm["ns_per_op"]
		if base <= 0 || cur <= 0 {
			continue
		}
		checked++
		ratio := base / cur
		status := "ok"
		if ratio < threshold {
			status = "REGRESSED"
			failed++
		}
		note := ""
		if baseAllocs, curAllocs := bm["allocs_per_op"], cm["allocs_per_op"]; baseAllocs > 0 && curAllocs > baseAllocs*allocLimit {
			note = fmt.Sprintf("  allocs %0.f -> %0.f (limit %.2fx)", baseAllocs, curAllocs, allocLimit)
			if status == "ok" {
				status = "ALLOCS REGRESSED"
				failed++
			}
		}
		fmt.Printf("%-44s baseline %12.0f ns/op  now %12.0f ns/op  ratio %.2fx  %s%s\n",
			name, base, cur, ratio, status, note)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("benchjson: %s has no baseline for gated %s", baselineFile, strings.Join(missing, ", "))
	}
	if checked == 0 {
		return fmt.Errorf("benchjson: no benchmark on stdin matches the baseline in %s", baselineFile)
	}
	if failed > 0 {
		return fmt.Errorf("benchjson: %d of %d tracked workloads regressed (time below %.2fx of baseline or allocs above %.2fx)", failed, checked, threshold, allocLimit)
	}
	fmt.Printf("bench gate passed: %d workloads within %.2fx of baseline time and %.2fx of baseline allocs\n", checked, threshold, allocLimit)
	return nil
}

func run() error {
	update := flag.String("update", "", "maintain a before/after history file instead of printing the snapshot")
	gateFile := flag.String("gate", "", "compare the run on stdin against FILE's recorded snapshot and fail on regression")
	threshold := flag.Float64("threshold", 0.9, "minimum baseline/current ns-per-op ratio the gate accepts")
	allocLimit := flag.Float64("alloc-limit", 1.25, "maximum current/baseline allocs-per-op ratio the gate accepts")
	flag.Parse()
	snap, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		return err
	}
	if *gateFile != "" {
		return gate(snap, *gateFile, *threshold, *allocLimit)
	}
	if *update == "" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(snap)
	}
	var h history
	if data, err := os.ReadFile(*update); err == nil {
		if err := json.Unmarshal(data, &h); err != nil {
			return fmt.Errorf("benchjson: %s: %w", *update, err)
		}
	}
	if h.After != nil {
		h.Before = h.After
	}
	h.After = snap
	h.Speedup = speedups(h.Before, h.After)
	data, err := json.MarshalIndent(&h, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(*update, append(data, '\n'), 0o644)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
