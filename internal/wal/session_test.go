package wal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"sheetmusiq/internal/engine"
)

func newEngine() (*engine.Engine, error) { return engine.New(nil), nil }

// applyAll drives ops through an engine the way the server does: apply,
// then log the mutating ones, checkpointing on the store cadence. It
// returns the engine.
func applyAll(t *testing.T, sl *SessionLog, ops []engine.Op) *engine.Engine {
	t.Helper()
	eng := engine.New(nil)
	for i, op := range ops {
		eff, err := eng.Apply(op)
		if err != nil {
			t.Fatalf("op %d (%s): %v", i, op.Op, err)
		}
		if !eff.Mutated {
			continue
		}
		if err := sl.AppendOp(op); err != nil {
			t.Fatalf("op %d (%s): append: %v", i, op.Op, err)
		}
		if sl.ShouldCheckpoint() {
			if err := sl.Checkpoint(eng); err != nil {
				t.Fatalf("op %d: checkpoint: %v", i, err)
			}
		}
	}
	return eng
}

// gridJSON renders the evaluated grid for bit-identical comparison.
func gridJSON(t *testing.T, eng *engine.Engine) string {
	t.Helper()
	if !eng.HasSheet() {
		return "<no sheet>"
	}
	g, err := eng.Grid(0)
	if err != nil {
		return "<eval error: " + err.Error() + ">"
	}
	raw, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// crashOps is a representative mixed sequence: data load, unary operators,
// grouping, aggregation, formula, modification, and undo/redo (the ops
// whose interaction with snapshot checkpoints is the subtle part, because
// the persist layer drops undo history).
func crashOps() []engine.Op {
	return []engine.Op{
		{Op: "demo", Table: "cars"},
		{Op: "select", Predicate: "Year >= 2003"},
		{Op: "formula", Name: "PerMile", Formula: "Price / Mileage"},
		{Op: "sort", Column: "Price", Dir: "asc"},
		{Op: "hide", Column: "ID"},
		{Op: "group", Columns: []string{"Model"}, Dir: "asc"},
		{Op: "agg", Fn: "avg", Column: "Price", Level: 2, Name: "Avg_Price"},
		{Op: "undo"},
		{Op: "redo"},
		{Op: "select", Predicate: "Price < 20000"},
		{Op: "undo"},
		{Op: "unhide", Column: "ID"},
		{Op: "explain"}, // read: must not be logged
		{Op: "order", Column: "Mileage", Dir: "desc", Level: 2},
		{Op: "modify", ID: 1, Predicate: "Year >= 2004"},
		{Op: "undo"},
		{Op: "undo"},
		{Op: "redo"},
		{Op: "agg", Fn: "count", Column: "Model", Level: 1, Name: "N"},
		{Op: "dropcol", Column: "N"},
	}
}

// TestCrashRecoveryEveryBoundary is the crash-simulation property: for a
// mixed op sequence, killing the process after every prefix k (the log is
// written but never cleanly closed or checkpointed on exit) and recovering
// must yield the same evaluated grid as an uninterrupted run of k ops —
// and continuing with the remaining ops must land on the same final grid.
func TestCrashRecoveryEveryBoundary(t *testing.T) {
	ops := crashOps()

	// References: grid after every prefix of the uninterrupted run.
	ref := make([]string, len(ops)+1)
	refEng := engine.New(nil)
	ref[0] = gridJSON(t, refEng)
	for i, op := range ops {
		if _, err := refEng.Apply(op); err != nil {
			t.Fatalf("reference op %d (%s): %v", i, op.Op, err)
		}
		ref[i+1] = gridJSON(t, refEng)
	}

	for _, every := range []int{1, 3, 1000} { // checkpoint cadences: every op, every 3rd, never
		for k := 0; k <= len(ops); k++ {
			dir := t.TempDir()
			st, err := NewStore(dir, Options{Sync: SyncNone}, every)
			if err != nil {
				t.Fatal(err)
			}
			meta := SessionMeta{ID: "s1", Created: time.Unix(0, 0)}
			sl, err := st.Open(meta)
			if err != nil {
				t.Fatal(err)
			}
			applyAll(t, sl, ops[:k])
			// Crash: no Close, no exit checkpoint. Reopen the directory
			// as a fresh process would.
			st2, err := NewStore(dir, Options{Sync: SyncNone}, every)
			if err != nil {
				t.Fatal(err)
			}
			sl2, err := st2.Open(meta)
			if err != nil {
				t.Fatal(err)
			}
			eng, stats, err := sl2.Recover(newEngine)
			if err != nil {
				t.Fatalf("every=%d k=%d: recover: %v", every, k, err)
			}
			if stats.ReplayErr != "" {
				t.Fatalf("every=%d k=%d: replay error: %s", every, k, stats.ReplayErr)
			}
			if got := gridJSON(t, eng); got != ref[k] {
				t.Fatalf("every=%d k=%d: recovered grid differs from uninterrupted run", every, k)
			}
			// The recovered session keeps working: finish the sequence.
			for i, op := range ops[k:] {
				eff, err := eng.Apply(op)
				if err != nil {
					t.Fatalf("every=%d k=%d: post-recovery op %d (%s): %v", every, k, i, op.Op, err)
				}
				if eff.Mutated {
					if err := sl2.AppendOp(op); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got := gridJSON(t, eng); got != ref[len(ops)] {
				t.Fatalf("every=%d k=%d: final grid differs after recovery + remaining ops", every, k)
			}
			sl.Close(nil)
			sl2.Close(nil)
		}
	}
}

// TestCloseThenRecoverReplaysNothing pins the flush-on-shutdown contract:
// a cleanly closed session (checkpoint written on close) rehydrates from
// the checkpoint alone.
func TestCloseThenRecoverReplaysNothing(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, Options{Sync: SyncNone}, 1000) // cadence never fires on its own
	if err != nil {
		t.Fatal(err)
	}
	meta := SessionMeta{ID: "s7", Name: "sam", Created: time.Unix(0, 0)}
	sl, err := st.Open(meta)
	if err != nil {
		t.Fatal(err)
	}
	ops := []engine.Op{
		{Op: "demo", Table: "cars"},
		{Op: "select", Predicate: "Year = 2005"},
		{Op: "sort", Column: "Price", Dir: "desc"},
	}
	eng := applyAll(t, sl, ops)
	want := gridJSON(t, eng)
	if err := sl.Close(eng); err != nil {
		t.Fatal(err)
	}

	sl2, err := st.Open(meta)
	if err != nil {
		t.Fatal(err)
	}
	defer sl2.Close(nil)
	eng2, stats, err := sl2.Recover(newEngine)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed != 0 {
		t.Fatalf("clean close then recover replayed %d ops, want 0", stats.Replayed)
	}
	if stats.CheckpointSeq == 0 {
		t.Fatal("recovery did not use the close checkpoint")
	}
	if got := gridJSON(t, eng2); got != want {
		t.Fatal("recovered grid differs after clean close")
	}
	if v := eng2.Version(); v != eng.Version() {
		t.Fatalf("recovered version %d, want %d", v, eng.Version())
	}
	if h := eng2.History(); !reflect.DeepEqual(h, eng.History()) {
		t.Fatalf("recovered history %v, want %v", h, eng.History())
	}
}

// TestRecoverWindowOverQuotedColumn: a window over a CSV column whose name
// needs quoting ("Unit Price") writes checkpoints that read back. With
// 64-byte segments and a checkpoint every 2 ops, each checkpoint prunes the
// segments it covers, so recovery must come from the last checkpoint plus
// the log suffix, with no fallback.
func TestRecoverWindowOverQuotedColumn(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "sales.csv")
	csv := "Year,Unit Price,Region\n2003,12,north\n2004,30,south\n2005,18,north\n2006,25,south\n2007,40,north\n"
	if err := os.WriteFile(csvPath, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(dir, Options{Sync: SyncNone, SegmentBytes: 64}, 2)
	if err != nil {
		t.Fatal(err)
	}
	meta := SessionMeta{ID: "s1", Created: time.Unix(0, 0)}
	sl, err := st.Open(meta)
	if err != nil {
		t.Fatal(err)
	}
	eng := applyAll(t, sl, []engine.Op{
		{Op: "load", Path: csvPath},
		{Op: "window", Name: "W", Window: `SUM("Unit Price") OVER (ORDER BY Year)`},
		{Op: "select", Predicate: "W > 20"},
		{Op: "sort", Column: "Unit Price", Dir: "desc"},
		{Op: "window", Name: "R", Window: `RANK() OVER (PARTITION BY Region ORDER BY "Unit Price")`},
	})
	// Crash: no Close. Reopen the directory as a fresh process would.
	sl2, err := st.Open(meta)
	if err != nil {
		t.Fatal(err)
	}
	defer sl2.Close(nil)
	eng2, stats, err := sl2.Recover(newEngine)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Fallbacks != 0 || stats.ReplayErr != "" || stats.CheckpointSeq != 4 || stats.Replayed != 1 {
		t.Fatalf("recovery stats %+v, want the last checkpoint with no fallback", stats)
	}
	if got, want := gridJSON(t, eng2), gridJSON(t, eng); got != want {
		t.Fatalf("recovered grid differs\n got %s\nwant %s", got, want)
	}
	if v := eng2.Version(); v != eng.Version() {
		t.Fatalf("recovered version %d, want %d", v, eng.Version())
	}
	if h := eng2.History(); !reflect.DeepEqual(h, eng.History()) {
		t.Fatalf("recovered history %v, want %v", h, eng.History())
	}
}

// TestUndoPastCheckpointFallsBack forces the approximate-checkpoint escape
// hatch. A join replaces the base relation; undoing it leaves a redo stack
// whose entry hangs off the derived base, so the checkpoint taken there
// cannot carry its stacks (core.ErrHistoryNotPortable) and degrades to the
// approximate query-state document. Replaying the suffix — a redo — over
// that restored state fails (the restored redo stack is empty), so recovery
// must fall back to full-history replay and still reproduce the grid.
func TestUndoPastCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, Options{Sync: SyncNone}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	meta := SessionMeta{ID: "s1", Created: time.Unix(0, 0)}
	sl, err := st.Open(meta)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(nil)
	apply := func(op engine.Op) {
		t.Helper()
		if _, err := eng.Apply(op); err != nil {
			t.Fatalf("%s: %v", op.Op, err)
		}
		if err := sl.AppendOp(op); err != nil {
			t.Fatal(err)
		}
	}
	apply(engine.Op{Op: "demo", Table: "cars"})
	apply(engine.Op{Op: "select", Predicate: "Model = 'Jetta'"})
	apply(engine.Op{Op: "save", Name: "jettas"})
	apply(engine.Op{Op: "demo", Table: "cars"})
	apply(engine.Op{Op: "join", Sheet: "jettas", On: "Model = jettas_Model"})
	apply(engine.Op{Op: "undo"}) // base back to cars; redo holds the joined base
	// Checkpoint here: base is registered again, but the redo stack is not
	// portable → approximate document.
	if err := sl.Checkpoint(eng); err != nil {
		t.Fatal(err)
	}
	// The suffix redoes past the checkpoint.
	apply(engine.Op{Op: "redo"})
	apply(engine.Op{Op: "undo"})
	apply(engine.Op{Op: "select", Predicate: "Price > 15000"})
	want := gridJSON(t, eng)

	st2, err := NewStore(dir, Options{Sync: SyncNone}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	sl2, err := st2.Open(meta)
	if err != nil {
		t.Fatal(err)
	}
	defer sl2.Close(nil)
	before := walFallbacks.Value()
	eng2, stats, err := sl2.Recover(newEngine)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReplayErr != "" {
		t.Fatalf("replay error: %s", stats.ReplayErr)
	}
	if walFallbacks.Value() == before {
		t.Fatal("expected the approximate checkpoint to be rejected")
	}
	if stats.CheckpointSeq != 0 {
		t.Fatalf("expected full-history replay, used checkpoint %d", stats.CheckpointSeq)
	}
	if got := gridJSON(t, eng2); got != want {
		t.Fatal("fallback recovery produced a different grid")
	}
}

// TestCheckpointSkipsDerivedBase: after a binary operator the sheet's base
// is a derived relation the persist layer cannot reattach, so checkpoints
// skip (wal.snapshot_skips) and recovery replays the full op history —
// including the catalog save that the join consumed.
func TestCheckpointSkipsDerivedBase(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, Options{Sync: SyncNone}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	meta := SessionMeta{ID: "s1", Created: time.Unix(0, 0)}
	sl, err := st.Open(meta)
	if err != nil {
		t.Fatal(err)
	}
	ops := []engine.Op{
		{Op: "demo", Table: "cars"},
		{Op: "select", Predicate: "Model = 'Jetta'"},
		{Op: "save", Name: "jettas"},
		{Op: "demo", Table: "cars"}, // fresh sheet over the base table
		{Op: "join", Sheet: "jettas", On: "Model = jettas_Model"},
	}
	eng := applyAll(t, sl, ops)
	want := gridJSON(t, eng)

	skipsBefore := walSnapshotSkips.Value()
	if err := sl.Checkpoint(eng); err != nil {
		t.Fatal(err)
	}
	if walSnapshotSkips.Value() != skipsBefore+1 {
		t.Fatal("checkpoint over a derived base should be skipped")
	}

	st2, err := NewStore(dir, Options{Sync: SyncNone}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	sl2, err := st2.Open(meta)
	if err != nil {
		t.Fatal(err)
	}
	defer sl2.Close(nil)
	eng2, stats, err := sl2.Recover(newEngine)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReplayErr != "" {
		t.Fatalf("replay error: %s", stats.ReplayErr)
	}
	if stats.Replayed != len(ops) {
		t.Fatalf("replayed %d ops, want %d (full history)", stats.Replayed, len(ops))
	}
	if got := gridJSON(t, eng2); got != want {
		t.Fatal("full replay after a join produced a different grid")
	}
}

// TestExactCheckpointPrunes: a checkpoint with empty undo/redo stacks is
// exact; it prunes redundant segments and older checkpoints.
func TestExactCheckpointPrunes(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, Options{Sync: SyncNone, SegmentBytes: 64}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	meta := SessionMeta{ID: "s1", Created: time.Unix(0, 0)}
	sl, err := st.Open(meta)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(nil)
	seq := []engine.Op{
		{Op: "demo", Table: "cars"},
		{Op: "select", Predicate: "Year >= 2004"},
		{Op: "sort", Column: "Price", Dir: "asc"},
	}
	for _, op := range seq {
		if _, err := eng.Apply(op); err != nil {
			t.Fatal(err)
		}
		if err := sl.AppendOp(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := sl.Checkpoint(eng); err != nil { // full document → exact
		t.Fatal(err)
	}
	// A fresh demo resets the sheet; the next checkpoint is exact too and
	// supersedes both the first one and the log up to its sequence.
	if _, err := eng.Apply(engine.Op{Op: "demo", Table: "cars"}); err != nil {
		t.Fatal(err)
	}
	if err := sl.AppendOp(engine.Op{Op: "demo", Table: "cars"}); err != nil {
		t.Fatal(err)
	}
	if err := sl.Checkpoint(eng); err != nil {
		t.Fatal(err)
	}
	var segs, ckpts int
	entries, err := os.ReadDir(filepath.Join(dir, "sessions", "s1"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, ok := parseSegName(e.Name()); ok {
			segs++
		}
		if _, ok := parseCkptName(e.Name()); ok {
			ckpts++
		}
	}
	if ckpts != 1 {
		t.Fatalf("exact checkpoint should prune older ones: %d checkpoints left", ckpts)
	}
	if segs != 1 {
		t.Fatalf("exact checkpoint should prune covered segments: %d segments left", segs)
	}
	// And the pruned session still recovers.
	want := gridJSON(t, eng)
	sl.Close(nil)
	sl2, err := st.Open(meta)
	if err != nil {
		t.Fatal(err)
	}
	defer sl2.Close(nil)
	eng2, stats, err := sl2.Recover(newEngine)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed != 0 {
		t.Fatalf("replayed %d after exact checkpoint, want 0", stats.Replayed)
	}
	if got := gridJSON(t, eng2); got != want {
		t.Fatal("grid differs after exact-checkpoint recovery")
	}
}

// TestStoreSessionsScan pins the data-dir scan used at server startup.
func TestStoreSessionsScan(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"s2", "s10", "s1"} {
		sl, err := st.Open(SessionMeta{ID: id, Name: "n-" + id, Created: time.Unix(42, 0).UTC()})
		if err != nil {
			t.Fatal(err)
		}
		sl.Close(nil)
	}
	// Junk that must be ignored: a stray file and a dir without meta.
	os.WriteFile(filepath.Join(dir, "sessions", "junk.txt"), []byte("x"), 0o644)
	os.MkdirAll(filepath.Join(dir, "sessions", "halfborn"), 0o755)

	metas, err := st.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 3 {
		t.Fatalf("scanned %d sessions, want 3", len(metas))
	}
	ids := []string{metas[0].ID, metas[1].ID, metas[2].ID}
	if !reflect.DeepEqual(ids, []string{"s1", "s10", "s2"}) {
		t.Fatalf("ids %v", ids)
	}
	if metas[0].Name != "n-s1" || !metas[0].Created.Equal(time.Unix(42, 0)) {
		t.Fatalf("meta roundtrip: %+v", metas[0])
	}
	if err := st.Remove("s10"); err != nil {
		t.Fatal(err)
	}
	metas, err = st.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 2 {
		t.Fatalf("after Remove: %d sessions, want 2", len(metas))
	}
}
