package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"sheetmusiq/internal/engine"
	"sheetmusiq/internal/obs"
)

// fetchMetrics pulls GET /v1/metrics into an obs.Snapshot.
func fetchMetrics(t *testing.T, c *client) obs.Snapshot {
	t.Helper()
	var snap obs.Snapshot
	if code := c.do("GET", "/v1/metrics", nil, &snap); code != http.StatusOK {
		t.Fatalf("GET /v1/metrics: status %d", code)
	}
	return snap
}

// TestMetricsEndpointAdvances drives a scripted multi-session workload and
// asserts the /v1/metrics document advances across every instrumented
// layer: server request counters and latency histograms, session
// lifecycle, engine per-op counters, and the eval-pipeline chunking
// counters. Deltas (not absolutes) keep the test independent of the other
// tests sharing the process registry.
func TestMetricsEndpointAdvances(t *testing.T) {
	_, c := newTestServer(t, Config{})
	before := fetchMetrics(t, c)

	// Scripted workload: two sessions, each demo + select + render; one
	// deliberate failure (unknown column predicate parses but the render
	// path succeeds, so use a bad op name for the error counter) and one
	// session close.
	ids := []string{c.create("alpha"), c.create("beta")}
	for _, id := range ids {
		c.op(id, engine.Op{Op: "demo", Table: "cars"})
		c.op(id, engine.Op{Op: "select", Predicate: "Year = 2005"})
		var out json.RawMessage
		if code := c.do("GET", "/v1/sessions/"+id+"/render?limit=3", nil, &out); code != http.StatusOK {
			t.Fatalf("render: status %d", code)
		}
	}
	// Kernel workload on the first session: grouping + aggregation + sort
	// drive the hash-group and keyed-sort kernels at render time, and an
	// equi-join against a saved copy drives the hash-join kernel.
	c.op(ids[0], engine.Op{Op: "group", Columns: []string{"Model"}, Dir: "asc"})
	c.op(ids[0], engine.Op{Op: "agg", Fn: "avg", Column: "Price", Level: 2})
	c.op(ids[0], engine.Op{Op: "sort", Column: "Price", Dir: "desc"})
	// ω workload: a ranking window drives the window kernel (and its batch
	// gather off the base column vectors) at render time.
	c.op(ids[0], engine.Op{Op: "window", Name: "Rnk",
		Window: "RANK() OVER (PARTITION BY Model ORDER BY Price)"})
	c.op(ids[0], engine.Op{Op: "save", Name: "other"})
	c.op(ids[0], engine.Op{Op: "join", Sheet: "other", On: "Year = other_Year"})
	var out json.RawMessage
	if code := c.do("GET", "/v1/sessions/"+ids[0]+"/render?limit=3", nil, &out); code != http.StatusOK {
		t.Fatalf("render after join: status %d", code)
	}

	var eb errorBody
	if code := c.do("POST", "/v1/sessions/"+ids[0]+"/op", engine.Op{Op: "no-such-op"}, &eb); code != http.StatusBadRequest {
		t.Fatalf("bad op: status %d", code)
	}
	if code := c.do("DELETE", "/v1/sessions/"+ids[1], nil, nil); code != http.StatusNoContent {
		t.Fatalf("close: status %d", code)
	}

	after := fetchMetrics(t, c)
	delta := func(name string) int64 { return after.Counters[name] - before.Counters[name] }

	// Server layer: per-route requests, error counter, latency histograms.
	if d := delta("server.requests.session_create"); d != 2 {
		t.Errorf("session_create requests delta = %d, want 2", d)
	}
	if d := delta("server.requests.op"); d != 11 {
		t.Errorf("op requests delta = %d, want 11 (10 ok + 1 bad)", d)
	}
	if d := delta("server.requests.render"); d != 3 {
		t.Errorf("render requests delta = %d, want 3", d)
	}
	if d := delta("server.request_errors.op"); d != 1 {
		t.Errorf("op error delta = %d, want 1", d)
	}
	hb := before.Histograms["server.request_seconds.op"]
	ha := after.Histograms["server.request_seconds.op"]
	if ha.Count-hb.Count != 11 {
		t.Errorf("op latency histogram count delta = %d, want 11", ha.Count-hb.Count)
	}

	// Session lifecycle.
	if d := delta("server.sessions.created"); d != 2 {
		t.Errorf("sessions created delta = %d, want 2", d)
	}
	if d := delta("server.sessions.closed"); d != 1 {
		t.Errorf("sessions closed delta = %d, want 1", d)
	}

	// Engine layer: per-op counters including the dispatch miss.
	if d := delta("engine.ops.demo"); d != 2 {
		t.Errorf("engine demo delta = %d, want 2", d)
	}
	if d := delta("engine.ops.select"); d != 2 {
		t.Errorf("engine select delta = %d, want 2", d)
	}
	if d := delta("engine.ops.unknown"); d != 1 {
		t.Errorf("engine unknown-op delta = %d, want 1", d)
	}

	// Eval pipeline: the renders replayed the sheets, so evaluations and
	// chunk passes (sequential at this size) advanced.
	if d := delta("core.eval.count"); d < 2 {
		t.Errorf("core eval delta = %d, want >= 2", d)
	}
	if d := delta("relation.chunk_runs.sequential") + delta("relation.chunk_runs.parallel"); d < 2 {
		t.Errorf("chunk runs delta = %d, want >= 2", d)
	}

	// Kernel layer: the grouped aggregate replays build hash-group tables,
	// the sort replays go through the keyed sorter, and the equi-join ran
	// through the hash-join kernel (never the theta fallback).
	if d := delta("relation.grouper.builds"); d < 1 {
		t.Errorf("grouper builds delta = %d, want >= 1", d)
	}
	if d := delta("relation.sort.keyed"); d < 1 {
		t.Errorf("keyed sort delta = %d, want >= 1", d)
	}
	if d := delta("relation.join.hash"); d != 1 {
		t.Errorf("hash join delta = %d, want 1", d)
	}
	if d := delta("relation.join.fallback"); d != 0 {
		t.Errorf("theta fallback delta = %d, want 0 (condition is an equi-join)", d)
	}

	// Window kernel: the ω replay ran at least one eval over the sheet's
	// rows with one partition per model, and its inputs were gathered off
	// the base column vectors (the batch path).
	if d := delta("relation.window.evals"); d < 1 {
		t.Errorf("window evals delta = %d, want >= 1", d)
	}
	if d := delta("relation.window.rows"); d < 9 {
		t.Errorf("window rows delta = %d, want >= 9", d)
	}
	if d := delta("relation.window.partitions"); d < 2 {
		t.Errorf("window partitions delta = %d, want >= 2", d)
	}
	if d := delta("expr.batch.window"); d < 1 {
		t.Errorf("expr.batch.window delta = %d, want >= 1", d)
	}

	// Vectorizer layer: the σ replays compile their predicates to batch
	// programs ("Year = 2005" is inside the vectorizer's coverage).
	if d := delta("expr.batch.ok"); d < 2 {
		t.Errorf("expr batch ok delta = %d, want >= 2", d)
	}
}

// TestMetricsAggVectorizedAdvances drives a tpch workload (lineitem at
// sf 0.002, ~12k rows) and asserts
// the typed aggregation kernels actually engaged: relation.agg.vectorized
// advances and relation.agg.declined stays flat across the whole scripted
// workload — including the view-building SQL the tpch demo runs, whose
// GROUP BY aggregates over plain columns must also stay on the typed path.
func TestMetricsAggVectorizedAdvances(t *testing.T) {
	_, c := newTestServer(t, Config{})
	before := fetchMetrics(t, c)

	id := c.create("tpch")
	c.op(id, engine.Op{Op: "demo", Table: "tpch"})
	c.op(id, engine.Op{Op: "use", Table: "lineitem"})
	c.op(id, engine.Op{Op: "group", Columns: []string{"l_returnflag"}, Dir: "asc"})
	c.op(id, engine.Op{Op: "agg", Fn: "sum", Column: "l_quantity", Level: 2})
	var out json.RawMessage
	if code := c.do("GET", "/v1/sessions/"+id+"/render?limit=3", nil, &out); code != http.StatusOK {
		t.Fatalf("render: status %d", code)
	}

	after := fetchMetrics(t, c)
	delta := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
	if d := delta("relation.agg.vectorized"); d < 1 {
		t.Errorf("relation.agg.vectorized delta = %d, want >= 1", d)
	}
	if d := delta("relation.agg.declined"); d != 0 {
		t.Errorf("relation.agg.declined delta = %d, want 0 (typed tpch columns must not decline)", d)
	}
}

// TestMetricsOrderFilteredAdvances: on a sheet under one ordering, the
// render after the sort recomputes λ by sorting, and each σ edit after it
// recomputes λ again under the same keys — the first builds the keys' base
// order, the second filters it — so core.eval.order_filtered advances.
func TestMetricsOrderFilteredAdvances(t *testing.T) {
	_, c := newTestServer(t, Config{})
	id := c.create("ordered")
	c.op(id, engine.Op{Op: "demo", Table: "cars"})
	c.op(id, engine.Op{Op: "group", Columns: []string{"Model"}, Dir: "desc"})
	c.op(id, engine.Op{Op: "sort", Column: "Price", Dir: "asc"})
	render := func() {
		var out json.RawMessage
		if code := c.do("GET", "/v1/sessions/"+id+"/render?limit=3", nil, &out); code != http.StatusOK {
			t.Fatalf("render: status %d", code)
		}
	}
	render()
	before := fetchMetrics(t, c)
	c.op(id, engine.Op{Op: "select", Predicate: "Year >= 2003"})
	render()
	c.op(id, engine.Op{Op: "modify", ID: 1, Predicate: "Year >= 2004"})
	render()
	after := fetchMetrics(t, c)
	delta := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
	if d := delta("core.eval.order_built"); d < 1 {
		t.Errorf("core.eval.order_built delta = %d, want >= 1", d)
	}
	if d := delta("core.eval.order_filtered"); d < 2 {
		t.Errorf("core.eval.order_filtered delta = %d, want >= 2", d)
	}
}

// TestRequestIDRoundTrip asserts the request-ID contract on the wire: a
// caller-supplied X-Request-ID is echoed back verbatim, and a request
// without one gets a generated ID on the response.
func TestRequestIDRoundTrip(t *testing.T) {
	_, c := newTestServer(t, Config{})

	req, err := http.NewRequest("GET", c.base+"/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "caller-chose-this")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-chose-this" {
		t.Fatalf("echoed request id = %q, want caller's", got)
	}

	resp, err = http.Get(c.base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got == "" {
		t.Fatal("no generated request id on response")
	}
}

// TestErrorBodyCarriesRequestID pins the failing-op contract: the JSON
// error envelope of an engine failure carries the same request ID the
// response header does, so a client error report can be joined to the
// server log line.
func TestErrorBodyCarriesRequestID(t *testing.T) {
	_, c := newTestServer(t, Config{})
	id := c.create("errs")

	// A select before any sheet is loaded fails inside the engine with
	// ErrNoSheet (409).
	body, err := json.Marshal(engine.Op{Op: "select", Predicate: "Year = 2005"})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", c.base+"/v1/sessions/"+id+"/op", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "err-trace-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want 409", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error == "" {
		t.Fatal("error body has no message")
	}
	if eb.RequestID != "err-trace-42" {
		t.Fatalf("error body request_id = %q, want %q", eb.RequestID, "err-trace-42")
	}
	if got := resp.Header.Get("X-Request-ID"); got != eb.RequestID {
		t.Fatalf("header id %q != body id %q", got, eb.RequestID)
	}

	// Without a caller ID the generated one must still appear in the body.
	var eb2 errorBody
	if code := c.do("POST", "/v1/sessions/"+id+"/op", engine.Op{Op: "select", Predicate: "Year = 2005"}, &eb2); code != http.StatusConflict {
		t.Fatalf("status = %d, want 409", code)
	}
	if eb2.RequestID == "" {
		t.Fatal("generated request id missing from error body")
	}
}

// TestPprofMounting: /debug/pprof/ serves only when EnablePprof is set.
func TestPprofMounting(t *testing.T) {
	m := NewManager(Config{})
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof off: status = %d, want 404", resp.StatusCode)
	}

	m2 := NewManager(Config{EnablePprof: true})
	ts2 := httptest.NewServer(NewHandler(m2))
	defer ts2.Close()
	resp, err = http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof on: status = %d, want 200", resp.StatusCode)
	}
}
