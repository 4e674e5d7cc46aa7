package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"sheetmusiq/internal/dataset"
	"sheetmusiq/internal/obs"
	"sheetmusiq/internal/relation"
)

func stageCounters() (hits, recomputes int64) {
	return obs.Default.CounterValue("core.eval.stage_hits"),
		obs.Default.CounterValue("core.eval.stage_recomputes")
}

// bigSheet builds the acceptance-criteria state over a 100k-row sheet:
// base → σ Year >= 2003 → η AvgP (level 2 over Model) → λ Price. Pipeline:
// base, σ, ∧, η, λ — five stages.
func bigSheet(t testing.TB) (*Spreadsheet, int) {
	t.Helper()
	s := New(dataset.RandomCars(100_000, 42))
	id, err := s.Select("Year >= 2003")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.GroupBy(Asc, "Model"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AggregateAs("AvgP", relation.AggAvg, "Price", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Sort("Price", Asc); err != nil {
		t.Fatal(err)
	}
	return s, id
}

// TestSingleOpModificationReusesUpstreamSnapshots pins the tentpole
// acceptance criterion: after a warm evaluation of a 100k-row sheet, a
// single-op modification that only touches the ordering stage recomputes
// exactly that one stage and serves every upstream stage from its cached
// snapshot.
func TestSingleOpModificationReusesUpstreamSnapshots(t *testing.T) {
	s, _ := bigSheet(t)
	if _, err := s.Evaluate(); err != nil {
		t.Fatal(err)
	}

	if err := s.Sort("Price", Desc); err != nil {
		t.Fatal(err)
	}
	hits0, rec0 := stageCounters()
	got, err := s.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	hits, rec := stageCounters()
	if d := rec - rec0; d != 1 {
		t.Fatalf("λ re-order recomputed %d stages, want exactly 1 (the ordering)", d)
	}
	if d := hits - hits0; d != 4 {
		t.Fatalf("λ re-order hit %d cached stages, want 4 (base, σ, ∧, η)", d)
	}

	// The incremental result is bit-identical to a cold full replay.
	want, err := s.Clone().Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if got.Render() != want.Render() || got.RenderGrouped() != want.RenderGrouped() {
		t.Fatal("incremental evaluation diverged from cold replay after λ re-order")
	}
}

// TestReplaceSelectionRecomputesSuffix checks the ReplaceSelection case of
// the paper's query-modification workflow: the base snapshot is reused, the
// σ stage and everything downstream recompute.
func TestReplaceSelectionRecomputesSuffix(t *testing.T) {
	s, id := bigSheet(t)
	if _, err := s.Evaluate(); err != nil {
		t.Fatal(err)
	}
	if err := s.ReplaceSelection(id, "Year >= 2004"); err != nil {
		t.Fatal(err)
	}
	hits0, rec0 := stageCounters()
	got, err := s.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	hits, rec := stageCounters()
	if d := hits - hits0; d != 1 {
		t.Fatalf("modified σ hit %d cached stages, want 1 (base)", d)
	}
	if d := rec - rec0; d != 4 {
		t.Fatalf("modified σ recomputed %d stages, want 4 (σ, ∧, η, λ)", d)
	}
	want, err := s.Clone().Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if got.Render() != want.Render() {
		t.Fatal("incremental evaluation diverged from cold replay after ReplaceSelection")
	}
}

// TestModificationToggleRevivesSnapshots pins the revival contract of the
// snapshot cache: reverting a modification (the paper's "change Year =
// 2005 to Year = 2006" dialog, toggled back) restores the previous stage
// fingerprints, whose artifacts are still resident, so the whole pipeline
// serves from cache.
func TestModificationToggleRevivesSnapshots(t *testing.T) {
	s, id := bigSheet(t)
	if _, err := s.Evaluate(); err != nil {
		t.Fatal(err)
	}
	if err := s.ReplaceSelection(id, "Year >= 2004"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Evaluate(); err != nil {
		t.Fatal(err)
	}
	// Toggle back: every stage fingerprint returns to its first value.
	if err := s.ReplaceSelection(id, "Year >= 2003"); err != nil {
		t.Fatal(err)
	}
	hits0, rec0 := stageCounters()
	got, err := s.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	hits, rec := stageCounters()
	if d := rec - rec0; d != 0 {
		t.Fatalf("toggled-back state recomputed %d stages, want 0", d)
	}
	if d := hits - hits0; d != 5 {
		t.Fatalf("toggled-back state hit %d cached stages, want all 5", d)
	}
	want, err := s.Clone().Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if got.Render() != want.Render() {
		t.Fatal("fully cached evaluation diverged from cold replay")
	}
}

// TestEvaluateErrorMemoised pins the error-memoisation satellite: an
// erroring state fails once per version, not once per render.
func TestEvaluateErrorMemoised(t *testing.T) {
	s := New(dataset.UsedCars())
	if _, err := s.Formula("Bad", "Price / (Year - 2005)"); err != nil {
		t.Fatal(err)
	}
	evals0 := obs.Default.CounterValue("core.eval.count")
	_, err1 := s.Evaluate()
	if err1 == nil {
		t.Fatal("division by zero during evaluation must error")
	}
	_, err2 := s.Evaluate()
	if err2 == nil || err2.Error() != err1.Error() {
		t.Fatalf("memoised error mismatch: %v vs %v", err1, err2)
	}
	if d := obs.Default.CounterValue("core.eval.count") - evals0; d != 1 {
		t.Fatalf("erroring state replayed %d times for two Evaluate calls, want 1", d)
	}
	// The next operator clears the memoised error.
	if err := s.RemoveComputed("Bad"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Evaluate(); err != nil {
		t.Fatal(err)
	}
}

// TestBaseReplacementClearsSnapshots: renaming a base column replaces the
// base relation pointer, which must fence off every cached snapshot (they
// index into the old base) and still evaluate correctly.
func TestBaseReplacementClearsSnapshots(t *testing.T) {
	s := New(dataset.UsedCars())
	if _, err := s.Select("Price < 17000"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Evaluate(); err != nil {
		t.Fatal(err)
	}
	if err := s.Rename("Price", "Cost"); err != nil {
		t.Fatal(err)
	}
	got, err := s.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Clone().Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if got.Render() != want.Render() {
		t.Fatal("evaluation after base-schema rename diverged from cold replay")
	}
	if !strings.Contains(got.Render(), "Cost") {
		t.Fatalf("renamed column missing from output:\n%s", got.Render())
	}
}

// TestPlanReportsCacheStatus drives the explain surface: a warm plan marks
// every stage cached; a modification marks the recomputed suffix.
func TestPlanReportsCacheStatus(t *testing.T) {
	s, _ := bigSheet(t)
	if _, err := s.Evaluate(); err != nil {
		t.Fatal(err)
	}
	plan, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Stages) != 5 {
		t.Fatalf("plan has %d stages, want 5:\n%+v", len(plan.Stages), plan.Stages)
	}
	wantNames := []string{"base", "σ (Year >= 2003) d0", "∧ 1σ d0", "η AvgP d1", "λ"}
	for i, st := range plan.Stages {
		if st.Name != wantNames[i] {
			t.Fatalf("stage %d named %q, want %q", i, st.Name, wantNames[i])
		}
	}
	if err := s.Sort("Price", Desc); err != nil {
		t.Fatal(err)
	}
	plan, err = s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range plan.Stages {
		wantCached := i < 4
		if st.Cached != wantCached {
			t.Fatalf("after λ re-order, stage %d (%s) cached=%v, want %v\nplan: %+v",
				i, st.Name, st.Cached, wantCached, plan.Stages)
		}
	}
	if plan.Stages[4].Rows == 0 {
		t.Fatal("recomputed ordering stage should report its row count")
	}
}

// TestPlanOnErroringState: the plan survives a failing stage, reporting the
// error and the stages reached.
func TestPlanOnErroringState(t *testing.T) {
	s := New(dataset.UsedCars())
	if _, err := s.Formula("Bad", "Price / (Year - 2005)"); err != nil {
		t.Fatal(err)
	}
	plan, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Error == "" {
		t.Fatal("plan of an erroring state must carry the error")
	}
	if len(plan.Stages) != 2 { // base, θ Bad
		t.Fatalf("plan has %d stages, want 2:\n%+v", len(plan.Stages), plan.Stages)
	}
}

// settleFinalizers collects the garbage earlier tests left behind and waits
// until every finalizer that queued has run, so the process-wide
// snapshot_bytes gauge then moves only with what the calling test does.
// Finalizers run on one goroutine that takes the whole queue as a batch and
// finishes it before taking the next; a second sentinel queued after the
// first one ran therefore runs only once everything queued before it has.
func settleFinalizers(t *testing.T) {
	t.Helper()
	type sentinel struct{ done chan struct{} }
	for i := 0; i < 2; i++ {
		done := make(chan struct{})
		func() {
			runtime.SetFinalizer(&sentinel{done: done}, func(s *sentinel) { close(s.done) })
		}()
		runtime.GC()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("queued finalizers did not run")
		}
	}
}

// TestSnapshotBytesGaugeMoves checks the process-wide snapshot_bytes gauge
// against one sheet: it rises by exactly the bytes the sheet's cached
// artifacts own, and after a base replacement clears them it is exactly what
// the new entries own. The collector stays off while the test reads deltas,
// so no dropped sheet hands its share back in between.
func TestSnapshotBytesGaugeMoves(t *testing.T) {
	gauge := obs.Default.Gauge("core.eval.snapshot_bytes")
	settleFinalizers(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := gauge.Value()
	s := New(dataset.RandomCars(4096, 7))
	if _, err := s.Select("Year >= 2003"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Evaluate(); err != nil {
		t.Fatal(err)
	}
	owned := func() (n int64) {
		for _, e := range s.snapCache.entries {
			n += e.art.ownBytes
		}
		return n
	}
	if got := gauge.Value() - before; got <= 0 || got != owned() || got != s.snapCache.resident.n.Load() {
		t.Fatalf("snapshot_bytes rose by %d, want the %d bytes the entries own (sheet share %d)",
			got, owned(), s.snapCache.resident.n.Load())
	}
	// Rename a base column: the base pointer changes and the next
	// evaluation must clear this sheet's snapshots.
	if err := s.Rename("Price", "Cost"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Evaluate(); err != nil {
		t.Fatal(err)
	}
	if got := gauge.Value() - before; got <= 0 || got != owned() || got != s.snapCache.resident.n.Load() {
		t.Fatalf("after the base was replaced snapshot_bytes is up %d, want the %d bytes the new entries own (sheet share %d)",
			got, owned(), s.snapCache.resident.n.Load())
	}
}

// TestSnapshotBytesReleasedWithSheet: a sheet that is simply dropped (the
// engine's use/open/load/compile and a session close never clear its
// cache) hands its snapshot_bytes share back once it is garbage collected.
// Earlier tests' garbage is settled first and the collector held off while
// the sheet evaluates, so the gauge first rises by exactly the sheet's share
// and the later fall can only be that share coming back.
func TestSnapshotBytesReleasedWithSheet(t *testing.T) {
	gauge := obs.Default.Gauge("core.eval.snapshot_bytes")
	settleFinalizers(t)
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	before := gauge.Value()
	func() {
		s := New(dataset.RandomCars(4096, 7))
		if _, err := s.Select("Year >= 2003"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Evaluate(); err != nil {
			t.Fatal(err)
		}
		share := s.snapCache.resident.n.Load()
		if share <= 0 {
			t.Fatal("evaluation cached no snapshot bytes")
		}
		if got := gauge.Value() - before; got != share {
			t.Fatalf("snapshot_bytes rose by %d, want the sheet's share %d", got, share)
		}
	}()
	debug.SetGCPercent(gcPercent)
	deadline := time.Now().Add(10 * time.Second)
	for gauge.Value() > before {
		if time.Now().After(deadline) {
			t.Fatalf("snapshot_bytes stayed at %d after the sheet was dropped, want ≤ %d", gauge.Value(), before)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestOnePartCombineSharesIndex: the ∧ stage of a depth with one predicate
// passes the σ part's survivor vector through — the same backing array, and
// no bytes charged to the ∧ artifact.
func TestOnePartCombineSharesIndex(t *testing.T) {
	s := New(dataset.RandomCars(4096, 7))
	if _, err := s.Select("Year >= 2003"); err != nil {
		t.Fatal(err)
	}
	plan, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Stages) != 3 || plan.Stages[1].ID != "sel:1" || plan.Stages[2].ID != "and:d0" {
		t.Fatalf("plan %+v, want base, sel:1, and:d0", plan.Stages)
	}
	part := s.snapCache.entries[plan.Stages[1].Fingerprint].art
	and := s.snapCache.entries[plan.Stages[2].Fingerprint].art
	if len(part.idx) == 0 || len(and.idx) != len(part.idx) || &and.idx[0] != &part.idx[0] {
		t.Fatalf("∧ vector (%d rows) does not share the σ part's (%d rows)", len(and.idx), len(part.idx))
	}
	if and.ownBytes != 0 {
		t.Fatalf("one-part ∧ owns %d bytes, want 0", and.ownBytes)
	}
}

// TestStageFingerprintsDistinguishStates: different operator definitions
// must produce different final-stage fingerprints, equal states equal ones
// — otherwise the cache would serve wrong snapshots.
func TestStageFingerprintsDistinguishStates(t *testing.T) {
	build := func(pred string) uint64 {
		s := New(dataset.UsedCars())
		if _, err := s.Select(pred); err != nil {
			t.Fatal(err)
		}
		_, stages, err := s.buildPipeline()
		if err != nil {
			t.Fatal(err)
		}
		return stages[len(stages)-1].fp
	}
	a := build("Year >= 2003")
	b := build("Year >= 2004")
	c := build("Year >= 2003")
	if a == b {
		t.Fatal("different predicates produced the same stage fingerprint")
	}
	if a != c {
		t.Fatal("identical states produced different stage fingerprints")
	}
}

// TestSnapshotCacheEviction fills the cache past its cap and checks the
// sheet still evaluates correctly with bounded entries, and that eviction
// is least-recently-used: toggling back to the previous predicate is still
// served entirely from cache.
func TestSnapshotCacheEviction(t *testing.T) {
	s := New(dataset.RandomCars(256, 3))
	id, err := s.Select("Year >= 2000")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*snapCacheCap; i++ {
		if err := s.ReplaceSelection(id, fmt.Sprintf("Price >= %d", 8000+i)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Evaluate(); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.snaps().entries); n > snapCacheCap {
		t.Fatalf("snapshot cache holds %d entries, cap is %d", n, snapCacheCap)
	}
	if err := s.ReplaceSelection(id, fmt.Sprintf("Price >= %d", 8000+2*snapCacheCap-2)); err != nil {
		t.Fatal(err)
	}
	_, rec0 := stageCounters()
	got, err := s.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if _, rec := stageCounters(); rec != rec0 {
		t.Fatalf("toggling back under cache pressure recomputed %d stages, want 0", rec-rec0)
	}
	want, err := s.Clone().Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if got.Render() != want.Render() {
		t.Fatal("evaluation under cache eviction diverged from cold replay")
	}
}
