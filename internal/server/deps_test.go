package server

import (
	"net/http"
	"strings"
	"testing"

	"sheetmusiq/internal/engine"
)

// TestServerDepsEndpoint exercises GET /deps end-to-end over a scripted
// multi-depth sheet (an aggregate over a formula over a formula over a base
// column, with a depth-1 predicate): the full graph carries the reference
// chain, a focused query reports the impact closure and the path between
// two nodes, and a subsequent modification recomputes the edited predicate
// while /plan shows the formula it does not depend on served from cache.
func TestServerDepsEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{})
	id := c.create("")
	c.op(id, engine.Op{Op: "demo", Table: "cars"})
	c.op(id, engine.Op{Op: "formula", Name: "F1", Formula: "Price / 1000"})
	c.op(id, engine.Op{Op: "formula", Name: "F2", Formula: "F1 * 2"})
	c.op(id, engine.Op{Op: "agg", Fn: "avg", Column: "F2", Level: 1, Name: "A"})
	c.op(id, engine.Op{Op: "select", Predicate: "A > 0"})

	var full engine.DepsInfo
	if code := c.do("GET", "/v1/sessions/"+id+"/deps", nil, &full); code != http.StatusOK {
		t.Fatalf("deps: status %d", code)
	}
	if full.Sheet != "cars" || len(full.Nodes) == 0 {
		t.Fatalf("full graph: %+v", full)
	}
	nodes := map[string]bool{}
	for _, n := range full.Nodes {
		nodes[n.ID] = true
	}
	for _, want := range []string{"base", "basecol:price", "col:f1", "col:f2", "col:a", "sel:1"} {
		if !nodes[want] {
			t.Fatalf("full graph missing node %s: %+v", want, full.Nodes)
		}
	}
	edges := map[string]bool{}
	for _, e := range full.Edges {
		edges[e.From+"→"+e.To] = true
	}
	for _, want := range []string{
		"basecol:price→col:f1",
		"col:f1→col:f2",
		"col:f2→col:a",
		"col:a→sel:1",
	} {
		if !edges[want] {
			t.Fatalf("full graph missing edge %s; have %v", want, full.Edges)
		}
	}

	// Focused impact query: everything downstream of F1.
	var focus engine.DepsInfo
	if code := c.do("GET", "/v1/sessions/"+id+"/deps?node=f1", nil, &focus); code != http.StatusOK {
		t.Fatalf("deps?node=f1: status %d", code)
	}
	if focus.Node != "col:f1" {
		t.Fatalf("resolved %q, want col:f1", focus.Node)
	}
	impact := strings.Join(focus.Dependents, " ")
	for _, want := range []string{"col:f2", "col:a", "sel:1"} {
		if !strings.Contains(impact, want) {
			t.Fatalf("dependents of F1 = %v, missing %s", focus.Dependents, want)
		}
	}

	// Path between a base column and the aggregate built on it.
	var path engine.DepsInfo
	if code := c.do("GET", "/v1/sessions/"+id+"/deps?node=Price&to=A", nil, &path); code != http.StatusOK {
		t.Fatalf("deps path: status %d", code)
	}
	want := []string{"basecol:price", "col:f1", "col:f2", "col:a"}
	if len(path.Path) != len(want) {
		t.Fatalf("path = %v, want %v", path.Path, want)
	}
	for i := range want {
		if path.Path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path.Path, want)
		}
	}

	// Modifying the predicate changes only its dependency cone: the next
	// plan recomputes sel:1 and serves col:f1 from cache.
	c.op(id, engine.Op{Op: "modify", ID: 1, Predicate: "A > 1"})
	var plan engine.PlanInfo
	if code := c.do("GET", "/v1/sessions/"+id+"/plan", nil, &plan); code != http.StatusOK {
		t.Fatalf("plan: status %d", code)
	}
	cached := map[string]bool{}
	for _, st := range plan.Stages {
		cached[st.ID] = st.Cached
	}
	if got, ok := cached["sel:1"]; !ok || got {
		t.Fatalf("after modify, sel:1 must be recomputed: %+v", plan.Stages)
	}
	if got, ok := cached["col:f1"]; !ok || !got {
		t.Fatalf("after modify, col:f1 must be served from cache: %+v", plan.Stages)
	}

	// Unknown node is a client error; a session without a sheet gets the
	// uniform 409.
	if code := c.do("GET", "/v1/sessions/"+id+"/deps?node=NoSuchThing", nil, nil); code < 400 || code >= 500 {
		t.Fatalf("unknown node: status %d, want 4xx", code)
	}
	id2 := c.create("")
	if code := c.do("GET", "/v1/sessions/"+id2+"/deps", nil, nil); code != http.StatusConflict {
		t.Fatalf("deps without sheet: status %d", code)
	}
}
