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
// tracking the latest optimisation step against its predecessor. Each
// recorded snapshot carries a stamp of the host and code it ran on, and
// -gate refuses to compare a run with a baseline stamped on another host.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// snapshot maps benchmark name to metric name to value.
type snapshot map[string]map[string]float64

// stamp names the host and the code a snapshot was recorded on. GOOS,
// GOARCH and CPU come from the `go test -bench` header lines, GOMAXPROCS
// from the benchmark names' -N suffix (none means 1), the Go version from
// the toolchain that built this command (`go run` uses the one that ran
// the benchmarks) and the commit from the working tree, as the repository
// benchmark reads it.
type stamp struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
}

// host is the part of the stamp two compared runs must share: everything
// but the commit, which differs by design.
func (s *stamp) host() string {
	return fmt.Sprintf("go=%s goos=%s goarch=%s cpu=%q gomaxprocs=%d", s.GoVersion, s.GOOS, s.GOARCH, s.CPU, s.GOMAXPROCS)
}

// benchRun is one parsed `go test -bench` output: its snapshot and stamp.
type benchRun struct {
	snap  snapshot
	stamp *stamp
}

// history is the on-disk shape of BENCH_eval.json. Speedup holds, per
// benchmark present in both snapshots, before-ns/op divided by after-ns/op —
// >1 means the recorded run got faster than its predecessor. A snapshot
// recorded before stamping existed has no stamp.
type history struct {
	Before      snapshot           `json:"before,omitempty"`
	BeforeStamp *stamp             `json:"before_stamp,omitempty"`
	After       snapshot           `json:"after"`
	AfterStamp  *stamp             `json:"after_stamp,omitempty"`
	Speedup     map[string]float64 `json:"speedup,omitempty"`
}

// report receives the gate's report.
var report io.Writer = os.Stdout

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

var procSuffix = regexp.MustCompile(`-(\d+)$`)

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

// parse extracts one snapshot and its stamp from `go test -bench` output.
// Repeated lines for the same benchmark (`go test -count=N`) keep the
// fastest run — the one with minimum ns/op — so multi-run output gates on
// the least-noisy sample. Lines run at different GOMAXPROCS (`-cpu 1,2`)
// are refused: they would share one name.
func parse(lines *bufio.Scanner) (*benchRun, error) {
	snap := snapshot{}
	st := &stamp{GoVersion: runtime.Version(), GOMAXPROCS: -1, Commit: commit(".")}
	for lines.Scan() {
		text := lines.Text()
		if k, v, ok := strings.Cut(text, ":"); ok {
			switch k {
			case "goos":
				st.GOOS = strings.TrimSpace(v)
			case "goarch":
				st.GOARCH = strings.TrimSpace(v)
			case "cpu":
				st.CPU = strings.TrimSpace(v)
			}
		}
		fields := strings.Fields(text)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		procs := 1
		if m := procSuffix.FindStringSubmatch(fields[0]); m != nil {
			procs, _ = strconv.Atoi(m[1])
		}
		if st.GOMAXPROCS >= 0 && procs != st.GOMAXPROCS {
			return nil, fmt.Errorf("benchjson: %s ran at GOMAXPROCS %d, earlier lines at %d; record one -cpu value per snapshot", fields[0], procs, st.GOMAXPROCS)
		}
		st.GOMAXPROCS = procs
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
	return &benchRun{snap: snap, stamp: st}, nil
}

// commit names the code in the working tree root: its git HEAD, or a
// digest of its Go sources and module files when it is not a git checkout.
func commit(root string) string {
	if head := gitHead(root); head != "" {
		return head
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not name the code
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel + "\x00"))
		h.Write(data)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// gitHead resolves root's git HEAD through a loose or a packed ref, or
// returns "".
func gitHead(root string) string {
	raw, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	head := strings.TrimSpace(string(raw))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	if raw, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(raw))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return ""
}

// gate compares a fresh run against the recorded baseline: every benchmark
// on stdin must keep baseline-ns/current-ns at or above threshold, and its
// allocs/op must not grow past allocLimit times the baseline (boxing
// creeping back shows up in allocation counts before it shows up in time).
// Either violation fails the gate, and so does a benchmark with no baseline
// entry: the run on stdin is the gated set, so a missing entry means the
// benchmark is not gated at all. A baseline stamped on another host (Go
// version, OS, architecture, CPU or GOMAXPROCS) is not compared at all; an
// unstamped one is compared, with a note that the hosts went unchecked.
func gate(fresh *benchRun, baselineFile string, threshold, allocLimit float64) error {
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
	switch {
	case h.AfterStamp == nil:
		fmt.Fprintf(report, "note: the baseline in %s carries no host stamp, so its host is not checked against this run's (%s)\n", baselineFile, fresh.stamp.host())
	case h.AfterStamp.host() != fresh.stamp.host():
		return fmt.Errorf("benchjson: %s was recorded on another host, refusing to compare\n  baseline: %s\n  this run: %s", baselineFile, h.AfterStamp.host(), fresh.stamp.host())
	}
	checked, failed := 0, 0
	var missing []string
	for name, cm := range fresh.snap {
		bm, ok := h.After[name]
		if !ok {
			fmt.Fprintf(report, "%-44s NO BASELINE in %s\n", name, baselineFile)
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
		fmt.Fprintf(report, "%-44s baseline %12.0f ns/op  now %12.0f ns/op  ratio %.2fx  %s%s\n",
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
	fmt.Fprintf(report, "bench gate passed: %d workloads within %.2fx of baseline time and %.2fx of baseline allocs\n", checked, threshold, allocLimit)
	return nil
}

func run() error {
	update := flag.String("update", "", "maintain a before/after history file instead of printing the snapshot")
	gateFile := flag.String("gate", "", "compare the run on stdin against FILE's recorded snapshot and fail on regression")
	threshold := flag.Float64("threshold", 0.9, "minimum baseline/current ns-per-op ratio the gate accepts")
	allocLimit := flag.Float64("alloc-limit", 1.25, "maximum current/baseline allocs-per-op ratio the gate accepts")
	flag.Parse()
	cur, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		return err
	}
	if *gateFile != "" {
		return gate(cur, *gateFile, *threshold, *allocLimit)
	}
	if *update == "" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(cur.snap)
	}
	return record(cur, *update)
}

// record makes cur, with its stamp, the history file's "after" snapshot;
// the previous "after" and its stamp become "before".
func record(cur *benchRun, file string) error {
	var h history
	if data, err := os.ReadFile(file); err == nil {
		if err := json.Unmarshal(data, &h); err != nil {
			return fmt.Errorf("benchjson: %s: %w", file, err)
		}
	}
	if h.After != nil {
		h.Before, h.BeforeStamp = h.After, h.AfterStamp
	}
	h.After, h.AfterStamp = cur.snap, cur.stamp
	h.Speedup = speedups(h.Before, h.After)
	data, err := json.MarshalIndent(&h, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(file, append(data, '\n'), 0o644)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
