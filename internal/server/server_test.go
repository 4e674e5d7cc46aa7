package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"sheetmusiq/internal/engine"
	"sheetmusiq/internal/repl"
	isql "sheetmusiq/internal/sql"
)

// client wraps an httptest server with JSON helpers.
type client struct {
	t    *testing.T
	base string
}

func newTestServer(t *testing.T, cfg Config) (*Manager, *client) {
	t.Helper()
	m := NewManager(cfg)
	ts := httptest.NewServer(NewHandler(m))
	t.Cleanup(ts.Close)
	return m, &client{t: t, base: ts.URL}
}

// do issues a request and decodes the JSON response into out (if non-nil).
func (c *client) do(method, path string, body, out any) int {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			c.t.Fatalf("%s %s: decoding %q: %v", method, path, raw, err)
		}
	}
	return resp.StatusCode
}

// op applies one algebra step and requires success.
func (c *client) op(id string, op engine.Op) *engine.Effect {
	c.t.Helper()
	var eff engine.Effect
	if code := c.do("POST", "/v1/sessions/"+id+"/op", op, &eff); code != http.StatusOK {
		c.t.Fatalf("op %+v: status %d", op, code)
	}
	return &eff
}

// create opens a session and returns its id.
func (c *client) create(name string) string {
	c.t.Helper()
	var resp createResponse
	if code := c.do("POST", "/v1/sessions", createRequest{Name: name}, &resp); code != http.StatusCreated {
		c.t.Fatalf("create: status %d", code)
	}
	return resp.ID
}

// TestServerWalkthrough drives the paper's used-cars session (Sec. I-B)
// over HTTP and checks every step against a REPL session running the same
// commands on the shared engine: the two front ends must agree exactly.
func TestServerWalkthrough(t *testing.T) {
	_, c := newTestServer(t, Config{})
	id := c.create("sam")

	// The same session, driven through the REPL's text surface.
	var sb strings.Builder
	rs := repl.New(&sb)
	for _, line := range []string{
		"demo cars",
		"select Condition = 'Good' OR Condition = 'Excellent'",
		"group desc Model",
		"group asc Year",
		"sort Price asc",
		"agg avg Price 3 as Avg_Price",
		"select Price < Avg_Price",
		"modify 1 Condition = 'Excellent'",
	} {
		if err := rs.Exec(line); err != nil {
			t.Fatalf("repl %q: %v", line, err)
		}
	}

	steps := []engine.Op{
		{Op: "demo", Table: "cars"},
		{Op: "select", Predicate: "Condition = 'Good' OR Condition = 'Excellent'"},
		{Op: "group", Dir: "desc", Columns: []string{"Model"}},
		{Op: "group", Dir: "asc", Columns: []string{"Year"}},
		{Op: "sort", Column: "Price", Dir: "asc"},
		{Op: "agg", Fn: "avg", Column: "Price", Level: 3, Name: "Avg_Price"},
		{Op: "select", Predicate: "Price < Avg_Price"},
		{Op: "modify", ID: 1, Predicate: "Condition = 'Excellent'"},
	}
	for i, op := range steps {
		eff := c.op(id, op)
		if eff.Op != op.Op {
			t.Fatalf("step %d: effect op %q, want %q", i, eff.Op, op.Op)
		}
	}

	// Per-step effects already checked; now the final state must match the
	// REPL's engine field for field.
	var got renderResponse
	if code := c.do("GET", "/v1/sessions/"+id+"/render", nil, &got); code != http.StatusOK {
		t.Fatalf("render: status %d", code)
	}
	wantGrid, err := rs.Engine().Grid(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Grid, wantGrid) {
		t.Fatalf("server grid diverges from REPL grid:\n  http: %+v\n  repl: %+v", got.Grid, wantGrid)
	}
	wantTree, err := rs.Engine().Tree()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Tree, wantTree) {
		t.Fatalf("server tree diverges from REPL tree:\n  http: %+v\n  repl: %+v", got.Tree, wantTree)
	}

	var st engine.StateInfo
	if code := c.do("GET", "/v1/sessions/"+id+"/state", nil, &st); code != http.StatusOK {
		t.Fatalf("state: status %d", code)
	}
	wantState, err := rs.Engine().State()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&st, wantState) {
		t.Fatalf("server state diverges from REPL state:\n  http: %+v\n  repl: %+v", &st, wantState)
	}
	if st.Version != 7 || len(st.Grouping) != 2 {
		t.Fatalf("walkthrough state: version %d grouping %+v", st.Version, st.Grouping)
	}

	var sq sqlResponse
	if code := c.do("GET", "/v1/sessions/"+id+"/sql", nil, &sq); code != http.StatusOK {
		t.Fatalf("sql: status %d", code)
	}
	wantSQL, err := rs.Engine().SQL()
	if err != nil {
		t.Fatal(err)
	}
	if sq.SQL != wantSQL || len(sq.Stages) == 0 {
		t.Fatalf("server sql %q, repl sql %q, stages %d", sq.SQL, wantSQL, len(sq.Stages))
	}

	var menu engine.MenuInfo
	if code := c.do("GET", "/v1/sessions/"+id+"/menu/Price", nil, &menu); code != http.StatusOK {
		t.Fatalf("menu: status %d", code)
	}
	if menu.Column != "Price" || len(menu.FilterOps) == 0 {
		t.Fatalf("menu: %+v", menu)
	}
}

// TestServerRenderLimit checks the ?limit query knob.
func TestServerRenderLimit(t *testing.T) {
	_, c := newTestServer(t, Config{})
	id := c.create("")
	c.op(id, engine.Op{Op: "demo", Table: "cars"})
	var got renderResponse
	if code := c.do("GET", "/v1/sessions/"+id+"/render?limit=3", nil, &got); code != http.StatusOK {
		t.Fatalf("render: status %d", code)
	}
	if len(got.Rows) != 3 || got.Total != 9 {
		t.Fatalf("limit=3: rows %d total %d", len(got.Rows), got.Total)
	}
	if code := c.do("GET", "/v1/sessions/"+id+"/render?limit=zero", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("bad limit: status %d", code)
	}
}

// TestServerSharedCatalog saves a sheet in one session and consumes it from
// another via a binary operator and the catalog endpoint.
func TestServerSharedCatalog(t *testing.T) {
	_, c := newTestServer(t, Config{})
	a := c.create("a")
	c.op(a, engine.Op{Op: "demo", Table: "cars"})
	c.op(a, engine.Op{Op: "select", Predicate: "Condition = 'Excellent'"})
	c.op(a, engine.Op{Op: "save", Name: "nice"})

	var cat map[string][]string
	if code := c.do("GET", "/v1/catalog", nil, &cat); code != http.StatusOK {
		t.Fatalf("catalog: status %d", code)
	}
	if !reflect.DeepEqual(cat["sheets"], []string{"nice"}) {
		t.Fatalf("catalog sheets: %v", cat["sheets"])
	}

	b := c.create("b")
	c.op(b, engine.Op{Op: "demo", Table: "cars"})
	c.op(b, engine.Op{Op: "minus", Sheet: "nice"})
	var got renderResponse
	if code := c.do("GET", "/v1/sessions/"+b+"/render", nil, &got); code != http.StatusOK {
		t.Fatalf("render: status %d", code)
	}
	if got.Total != 5 {
		t.Fatalf("9 − 4 excellent = %d, want 5", got.Total)
	}

	c.op(b, engine.Op{Op: "renamesheet", Sheet: "nice", Name: "fancy"})
	if c.do("GET", "/v1/catalog", nil, &cat); !reflect.DeepEqual(cat["sheets"], []string{"fancy"}) {
		t.Fatalf("catalog after rename: %v", cat["sheets"])
	}
}

// TestServerLifecycle covers create/list/close and the tables endpoint.
func TestServerLifecycle(t *testing.T) {
	m, c := newTestServer(t, Config{})
	id := c.create("alice")
	c.op(id, engine.Op{Op: "demo", Table: "cars"})

	var list map[string][]Info
	if code := c.do("GET", "/v1/sessions", nil, &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	ss := list["sessions"]
	if len(ss) != 1 || ss[0].ID != id || ss[0].Name != "alice" || ss[0].Sheet != "cars" || ss[0].Ops != 1 {
		t.Fatalf("sessions: %+v", ss)
	}

	var tabs map[string][]string
	if code := c.do("GET", "/v1/sessions/"+id+"/tables", nil, &tabs); code != http.StatusOK {
		t.Fatalf("tables: status %d", code)
	}
	if !reflect.DeepEqual(tabs["tables"], []string{"cars"}) {
		t.Fatalf("tables: %v", tabs["tables"])
	}

	if code := c.do("DELETE", "/v1/sessions/"+id, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	if code := c.do("DELETE", "/v1/sessions/"+id, nil, nil); code != http.StatusNotFound {
		t.Fatalf("double delete: status %d", code)
	}
	if m.Len() != 0 {
		t.Fatalf("manager still holds %d sessions", m.Len())
	}
}

// TestServerErrors checks the HTTP error surface: status codes and the JSON
// error envelope.
func TestServerErrors(t *testing.T) {
	_, c := newTestServer(t, Config{})
	id := c.create("")

	var eb errorBody
	if code := c.do("GET", "/v1/sessions/nope/state", nil, &eb); code != http.StatusNotFound || eb.Error == "" {
		t.Fatalf("unknown session: status %d body %+v", code, eb)
	}
	// No sheet yet: engine-level conflict.
	if code := c.do("POST", "/v1/sessions/"+id+"/op", engine.Op{Op: "select", Predicate: "Year = 2005"}, &eb); code != http.StatusConflict {
		t.Fatalf("op before demo: status %d (%s)", code, eb.Error)
	}
	c.op(id, engine.Op{Op: "demo", Table: "cars"})
	// Bad op kind and bad predicate are plain 400s.
	if code := c.do("POST", "/v1/sessions/"+id+"/op", engine.Op{Op: "frobnicate"}, &eb); code != http.StatusBadRequest {
		t.Fatalf("unknown op: status %d", code)
	}
	if code := c.do("POST", "/v1/sessions/"+id+"/op", engine.Op{Op: "select", Predicate: "NotAColumn < 3"}, &eb); code != http.StatusBadRequest {
		t.Fatalf("bad predicate: status %d", code)
	}
	// Unknown JSON fields are rejected, not ignored.
	req, _ := http.NewRequest("POST", c.base+"/v1/sessions/"+id+"/op",
		strings.NewReader(`{"op":"select","predicat":"Year = 2005"}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("misspelled field: status %d", resp.StatusCode)
	}
	// Filesystem ops are gated off by default — in every case spelling the
	// dispatcher accepts, so "Export" cannot sneak past a gate "export"
	// hits.
	for _, op := range []engine.Op{
		{Op: "load", Path: "/etc/passwd"},
		{Op: "savestate", Path: "/tmp/x"},
		{Op: "loadstate", Path: "/tmp/x"},
		{Op: "export", Path: "/tmp/x"},
		{Op: "Load", Path: "/etc/passwd"},
		{Op: "SaveState", Path: "/tmp/x"},
		{Op: "LoadState", Path: "/tmp/x"},
		{Op: "Export", Path: "/tmp/x"},
		{Op: "EXPORT", Path: "/tmp/x"},
	} {
		if code := c.do("POST", "/v1/sessions/"+id+"/op", op, &eb); code != http.StatusForbidden {
			t.Fatalf("op %q should be forbidden, got %d", op.Op, code)
		}
	}
}

// TestServerCreateEmptyBody checks that a bodiless POST /v1/sessions (the
// natural curl -X POST) creates an anonymous session: every createRequest
// field is optional.
func TestServerCreateEmptyBody(t *testing.T) {
	_, c := newTestServer(t, Config{})
	resp, err := http.Post(c.base+"/v1/sessions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("empty-body create: status %d, want %d", resp.StatusCode, http.StatusCreated)
	}
	var cr createResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.ID == "" || cr.Name != "" {
		t.Fatalf("empty-body create: %+v", cr)
	}
	// A malformed (non-empty) body is still rejected.
	bad, err := http.Post(c.base+"/v1/sessions", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated body: status %d, want %d", bad.StatusCode, http.StatusBadRequest)
	}
}

// TestManagerCloseDoesNotBlockOnBusySession pins the non-blocking close
// contract: closing (or evicting) a session whose engine is mid-op must not
// wait for the op — otherwise one slow query would hold the manager mutex
// and stall every other session's Create/Get/List.
func TestManagerCloseDoesNotBlockOnBusySession(t *testing.T) {
	m := NewManager(Config{})
	s, err := m.Create("busy")
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- s.Do(func(*engine.Engine) error {
			close(entered)
			<-release
			return nil
		})
	}()
	<-entered

	closed := make(chan bool, 1)
	go func() { closed <- m.Close(s.ID()) }()
	select {
	case ok := <-closed:
		if !ok {
			t.Fatal("Close reported unknown session")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked on a session with an op in flight")
	}
	if m.Len() != 0 {
		t.Fatalf("len = %d after close, want 0", m.Len())
	}

	// The in-flight op runs to completion; the next one fails cleanly.
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("in-flight Do after close: %v", err)
	}
	if err := s.Do(func(*engine.Engine) error { return nil }); err != ErrSessionClosed {
		t.Fatalf("Do after close = %v, want ErrSessionClosed", err)
	}
}

// TestServerFilesystemOptIn verifies AllowFilesystem opens the gate.
func TestServerFilesystemOptIn(t *testing.T) {
	_, c := newTestServer(t, Config{AllowFilesystem: true})
	id := c.create("")
	c.op(id, engine.Op{Op: "demo", Table: "cars"})
	path := t.TempDir() + "/cars.csv"
	eff := c.op(id, engine.Op{Op: "export", Path: path})
	if eff.Rows != 9 {
		t.Fatalf("export rows = %d, want 9", eff.Rows)
	}
}

// TestManagerLRUEviction fills the cap and checks the oldest session goes.
func TestManagerLRUEviction(t *testing.T) {
	m := NewManager(Config{MaxSessions: 2})
	a, _ := m.Create("a")
	b, _ := m.Create("b")
	// Touch a so b becomes the LRU.
	if _, ok := m.Get(a.ID()); !ok {
		t.Fatal("a should be live")
	}
	ccc, _ := m.Create("c")
	if m.Len() != 2 {
		t.Fatalf("len = %d, want 2", m.Len())
	}
	if _, ok := m.Get(b.ID()); ok {
		t.Fatal("b should have been LRU-evicted")
	}
	if _, ok := m.Get(a.ID()); !ok {
		t.Fatal("a should have survived")
	}
	// The evicted session's engine fails cleanly, not silently.
	if err := b.Do(func(*engine.Engine) error { return nil }); err != ErrSessionClosed {
		t.Fatalf("evicted Do error = %v, want ErrSessionClosed", err)
	}
	_ = ccc
}

// TestManagerIdleTTL drives the swappable clock past the TTL.
func TestManagerIdleTTL(t *testing.T) {
	m := NewManager(Config{IdleTTL: time.Minute})
	now := time.Unix(1_000_000, 0)
	m.now = func() time.Time { return now }

	a, _ := m.Create("a")
	b, _ := m.Create("b")
	now = now.Add(30 * time.Second)
	if _, ok := m.Get(a.ID()); !ok { // refreshes a's idle clock
		t.Fatal("a should be live at 30s")
	}
	now = now.Add(45 * time.Second)
	// b idle 75s > TTL; a idle 45s.
	if n := m.Sweep(); n != 1 {
		t.Fatalf("sweep closed %d, want 1", n)
	}
	if _, ok := m.Get(b.ID()); ok {
		t.Fatal("b should have expired")
	}
	if _, ok := m.Get(a.ID()); !ok {
		t.Fatal("a should still be live")
	}
	// Lazy expiry on Get, without an explicit Sweep.
	now = now.Add(2 * time.Minute)
	if _, ok := m.Get(a.ID()); ok {
		t.Fatal("a should lazily expire on Get")
	}
	if m.Len() != 0 {
		t.Fatalf("len = %d, want 0", m.Len())
	}
}

// TestManagerSeed verifies the per-session table seeding hook runs.
func TestManagerSeed(t *testing.T) {
	calls := 0
	m := NewManager(Config{Seed: func(db *isql.DB) error { calls++; return nil }})
	if _, err := m.Create(""); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(""); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("seed ran %d times, want 2", calls)
	}
	bad := NewManager(Config{Seed: func(db *isql.DB) error { return fmt.Errorf("boom") }})
	if _, err := bad.Create(""); err == nil {
		t.Fatal("seed failure should fail Create")
	}
}

// TestServerPlanEndpoint checks GET /plan: it reports the incremental
// evaluation pipeline (DESIGN.md §10), and after a single-op modification
// the upstream stages show as cached while the modified stage recomputes.
func TestServerPlanEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{})
	id := c.create("")
	c.op(id, engine.Op{Op: "demo", Table: "cars"})
	c.op(id, engine.Op{Op: "select", Predicate: "Year >= 2003"})
	c.op(id, engine.Op{Op: "sort", Column: "Price", Dir: "asc"})

	var cold engine.PlanInfo
	if code := c.do("GET", "/v1/sessions/"+id+"/plan", nil, &cold); code != http.StatusOK {
		t.Fatalf("plan: status %d", code)
	}
	if cold.Sheet != "cars" || len(cold.Stages) != 4 {
		t.Fatalf("cold plan: %+v", cold)
	}
	if cold.Stages[0].Name != "base" || cold.Stages[0].Cached {
		t.Fatalf("cold base stage: %+v", cold.Stages[0])
	}

	// Flip the sort: base, σ and ∧ must be served from cache, λ recomputed.
	c.op(id, engine.Op{Op: "sort", Column: "Price", Dir: "desc"})
	var warm engine.PlanInfo
	if code := c.do("GET", "/v1/sessions/"+id+"/plan", nil, &warm); code != http.StatusOK {
		t.Fatalf("warm plan: status %d", code)
	}
	if len(warm.Stages) != 4 || !warm.Stages[0].Cached || !warm.Stages[1].Cached || !warm.Stages[2].Cached || warm.Stages[3].Cached {
		t.Fatalf("warm plan after sort flip: %+v", warm.Stages)
	}
	if warm.Stages[0].Fingerprint != cold.Stages[0].Fingerprint {
		t.Fatal("base fingerprint must be stable across modifications")
	}

	// A session with no sheet yet gets the uniform 409.
	id2 := c.create("")
	if code := c.do("GET", "/v1/sessions/"+id2+"/plan", nil, nil); code != http.StatusConflict {
		t.Fatalf("plan without sheet: status %d", code)
	}
}
