package server

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sheetmusiq/internal/engine"
	"sheetmusiq/internal/wal"
)

// newStore opens a WAL store over a fresh temp dir (unsynced: these tests
// exercise crash recovery by abandoning managers, not by losing power).
func newStore(t *testing.T, dir string) *wal.Store {
	t.Helper()
	st, err := wal.NewStore(dir, wal.Options{Sync: wal.SyncNone}, wal.DefaultSnapshotEvery)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// render fetches the full evaluated grid as raw JSON for byte comparison.
func (c *client) render(id string) string {
	c.t.Helper()
	var raw json.RawMessage
	if code := c.do("GET", "/v1/sessions/"+id+"/render", nil, &raw); code != http.StatusOK {
		c.t.Fatalf("render %s: status %d", id, code)
	}
	return string(raw)
}

// carsOps is a short representative session.
var carsOps = []engine.Op{
	{Op: "demo", Table: "cars"},
	{Op: "select", Predicate: "Condition = 'Good' OR Condition = 'Excellent'"},
	{Op: "group", Dir: "desc", Columns: []string{"Model"}},
	{Op: "sort", Column: "Price", Dir: "asc"},
	{Op: "agg", Fn: "avg", Column: "Price", Level: 2, Name: "Avg_Price"},
	{Op: "undo"},
	{Op: "redo"},
	{Op: "select", Predicate: "Price < Avg_Price"},
}

// TestEvictThenReopenReplaysNothing is the flush-on-eviction regression:
// LRU eviction checkpoints the session's WAL, so touching the evicted id
// again rehydrates it from the checkpoint with zero replayed ops and the
// exact same grid — undo history included.
func TestEvictThenReopenReplaysNothing(t *testing.T) {
	m, c := newTestServer(t, Config{MaxSessions: 1, Durability: newStore(t, t.TempDir())})
	s1 := c.create("first")
	for _, op := range carsOps {
		c.op(s1, op)
	}
	want := c.render(s1)

	s2 := c.create("second") // cap is 1: evicts s1
	if s1 == s2 {
		t.Fatal("expected distinct ids")
	}
	m.wg.Wait() // WAL flush runs on a background goroutine
	if _, ok := m.sessions[s1]; ok {
		t.Fatal("s1 still live after eviction")
	}

	if got := c.render(s1); got != want { // rehydrates (and evicts s2)
		t.Fatalf("rehydrated grid differs\n got %s\nwant %s", got, want)
	}
	s, ok := m.Get(s1)
	if !ok {
		t.Fatal("s1 gone after rehydration")
	}
	if s.recovered == nil {
		t.Fatal("rehydrated session has no recovery stats")
	}
	if s.recovered.Replayed != 0 {
		t.Fatalf("eviction flush should leave nothing to replay, replayed %d", s.recovered.Replayed)
	}
	if s.recovered.CheckpointSeq == 0 {
		t.Fatal("rehydration did not use the eviction checkpoint")
	}
	// The undo history survived the round trip.
	if eff := c.op(s1, engine.Op{Op: "undo"}); eff.Op != "undo" {
		t.Fatalf("undo after rehydration: %+v", eff)
	}
}

// TestParkedHandleReopens: a handle taken before its durable session is
// evicted keeps working. The op handler calls Get, then ApplyOp; a
// concurrent request's Get may evict the session in between, which parks
// it on disk rather than ending it, so the op runs on the rehydrated
// session exactly once.
func TestParkedHandleReopens(t *testing.T) {
	m := NewManager(Config{MaxSessions: 1, Durability: newStore(t, t.TempDir())})
	t.Cleanup(m.Shutdown)
	a, err := m.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ApplyOp(engine.Op{Op: "demo", Table: "cars"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("b"); err != nil { // cap is 1: parks a
		t.Fatal(err)
	}
	if _, err := a.ApplyOp(engine.Op{Op: "select", Predicate: "Year >= 2005"}); err != nil {
		t.Fatalf("op through a parked handle: %v", err)
	}
	live, ok := m.Get(a.ID())
	if !ok || live == a {
		t.Fatalf("Get(%s) = %p, %v; want the reopened session", a.ID(), live, ok)
	}
	err = a.Do(func(e *engine.Engine) error {
		if n := len(e.Sheet().Selections("")); n != 1 {
			t.Errorf("%d selections after one select through the handle, want 1", n)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do through a parked handle: %v", err)
	}
}

// TestParkedHandlesUnderChurn: handles held across concurrent evictions.
// Four durable sessions share a cap of two, and each goroutine drives its
// own session through the handle it took once, so every op may find its
// session parked by another goroutine's rehydration. No op may fail, and
// each runs exactly once. Run under -race.
func TestParkedHandlesUnderChurn(t *testing.T) {
	const workers, pairs = 4, 10
	m := NewManager(Config{MaxSessions: 2, Durability: newStore(t, t.TempDir())})
	t.Cleanup(m.Shutdown)
	handles := make([]*Session, workers)
	for i := range handles {
		s, err := m.Create("")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.ApplyOp(engine.Op{Op: "demo", Table: "cars"}); err != nil {
			t.Fatal(err)
		}
		handles[i] = s
	}
	var wg sync.WaitGroup
	for _, s := range handles {
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			for i := 0; i < pairs; i++ {
				for _, op := range []engine.Op{{Op: "select", Predicate: "Year >= 2004"}, {Op: "undo"}} {
					if _, err := s.ApplyOp(op); err != nil {
						t.Errorf("session %s op %d (%s): %v", s.ID(), i, op.Op, err)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	for _, s := range handles {
		err := s.Do(func(e *engine.Engine) error {
			if v := e.Sheet().Version(); v != 2*pairs {
				t.Errorf("session %s at version %d, want %d", s.ID(), v, 2*pairs)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestShutdownFlushesSessions: graceful shutdown checkpoints every live
// session, so the next process rehydrates each with zero replayed ops.
func TestShutdownFlushesSessions(t *testing.T) {
	dir := t.TempDir()
	m, c := newTestServer(t, Config{Durability: newStore(t, dir)})
	id := c.create("sam")
	for _, op := range carsOps {
		c.op(id, op)
	}
	want := c.render(id)
	m.Shutdown()

	m2, c2 := newTestServer(t, Config{Durability: newStore(t, dir)})
	if got := c2.render(id); got != want {
		t.Fatalf("grid differs after shutdown + restart\n got %s\nwant %s", got, want)
	}
	s, ok := m2.Get(id)
	if !ok {
		t.Fatal("session missing after restart")
	}
	if s.recovered == nil || s.recovered.Replayed != 0 {
		t.Fatalf("shutdown flush should leave nothing to replay: %+v", s.recovered)
	}
}

// TestCrashRestartEveryBoundary kills the server (abandons the manager
// without any shutdown, as kill -9 would) after every op prefix and checks
// that a new manager over the same data dir serves the identical grid.
func TestCrashRestartEveryBoundary(t *testing.T) {
	// Reference grids from an undisturbed server.
	_, ref := newTestServer(t, Config{})
	refID := ref.create("ref")
	refGrids := make([]string, len(carsOps)+1)
	for i, op := range carsOps {
		if i == 0 {
			refGrids[0] = "" // no sheet yet; render would 409
		}
		ref.op(refID, op)
		refGrids[i+1] = ref.render(refID)
	}

	for k := 1; k <= len(carsOps); k++ {
		dir := t.TempDir()
		st, err := wal.NewStore(dir, wal.Options{Sync: wal.SyncNone}, 3)
		if err != nil {
			t.Fatal(err)
		}
		_, c := newTestServer(t, Config{Durability: st})
		id := c.create("crash")
		for _, op := range carsOps[:k] {
			c.op(id, op)
		}
		// Crash: no Shutdown, no Close. A fresh manager scans the dir.
		_, c2 := newTestServer(t, Config{Durability: newStore(t, dir)})
		if got := c2.render(id); got != refGrids[k] {
			t.Fatalf("k=%d: grid differs after crash restart\n got %s\nwant %s", k, got, refGrids[k])
		}
	}
}

// TestExplainNotLogged: no-op reads must not reach the WAL or bump the
// snapshot counter (satellite: engine.Apply reports mutation).
func TestExplainNotLogged(t *testing.T) {
	m, c := newTestServer(t, Config{Durability: newStore(t, t.TempDir())})
	id := c.create("sam")
	c.op(id, engine.Op{Op: "demo", Table: "cars"})
	c.op(id, engine.Op{Op: "select", Predicate: "Year = 2005"})
	for i := 0; i < 5; i++ {
		c.op(id, engine.Op{Op: "explain"})
	}
	s, _ := m.Get(id)
	if got := s.wlog.LastSeq(); got != 2 {
		t.Fatalf("wal holds %d records, want 2 (explain must not be logged)", got)
	}
}

// TestDeleteRemovesDurableState: an explicit DELETE erases the session's
// data directory — unlike eviction, nothing survives for rehydration.
func TestDeleteRemovesDurableState(t *testing.T) {
	dir := t.TempDir()
	m, c := newTestServer(t, Config{Durability: newStore(t, dir)})
	id := c.create("sam")
	c.op(id, engine.Op{Op: "demo", Table: "cars"})
	if code := c.do("DELETE", "/v1/sessions/"+id, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	m.wg.Wait()
	if _, err := os.Stat(filepath.Join(dir, "sessions", id)); !os.IsNotExist(err) {
		t.Fatalf("session dir still on disk after DELETE (err=%v)", err)
	}
	if code := c.do("GET", "/v1/sessions/"+id+"/render", nil, nil); code != http.StatusNotFound {
		t.Fatalf("render after delete: status %d, want 404", code)
	}
	m2, _ := newTestServer(t, Config{Durability: newStore(t, dir)})
	if _, ok := m2.Get(id); ok {
		t.Fatal("deleted session came back after restart")
	}
}

// TestExpiredSessionRehydrates: with durability on, TTL expiry parks the
// session instead of killing it; the next touch transparently rehydrates.
func TestExpiredSessionRehydrates(t *testing.T) {
	m, c := newTestServer(t, Config{IdleTTL: time.Minute, Durability: newStore(t, t.TempDir())})
	now := time.Unix(1_000_000, 0)
	m.now = func() time.Time { return now }
	id := c.create("sam")
	for _, op := range carsOps {
		c.op(id, op)
	}
	want := c.render(id)

	now = now.Add(2 * time.Minute)
	if got := c.render(id); got != want {
		t.Fatalf("grid differs after expiry + rehydration\n got %s\nwant %s", got, want)
	}
	s, ok := m.Get(id)
	if !ok {
		t.Fatal("expired durable session should rehydrate, not vanish")
	}
	if s.recovered == nil || s.recovered.Replayed != 0 {
		t.Fatalf("expiry flush should leave nothing to replay: %+v", s.recovered)
	}
}

// TestDormantSessionsListed: sessions persisted by a previous process show
// up in the listing as dormant without being rehydrated.
func TestDormantSessionsListed(t *testing.T) {
	dir := t.TempDir()
	m, c := newTestServer(t, Config{Durability: newStore(t, dir)})
	id := c.create("sam")
	c.op(id, engine.Op{Op: "demo", Table: "cars"})
	m.Shutdown()

	m2, c2 := newTestServer(t, Config{Durability: newStore(t, dir)})
	var resp struct {
		Sessions []Info `json:"sessions"`
	}
	if code := c2.do("GET", "/v1/sessions", nil, &resp); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	found := false
	for _, in := range resp.Sessions {
		if in.ID == id {
			found = true
			if !in.Dormant {
				t.Fatal("restored session should list as dormant before first touch")
			}
			if in.Name != "sam" {
				t.Fatalf("dormant listing lost the name: %+v", in)
			}
		}
	}
	if !found {
		t.Fatalf("session %s missing from listing: %+v", id, resp.Sessions)
	}
	if len(m2.sessions) != 0 {
		t.Fatal("listing must not rehydrate dormant sessions")
	}
}
