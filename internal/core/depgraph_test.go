package core

import (
	"math/rand"
	"strings"
	"testing"

	"sheetmusiq/internal/dataset"
	"sheetmusiq/internal/relation"
)

// TestSiblingPredicatesStayCached pins DAG-keyed fingerprints: on a warm
// 100k-row sheet with four same-depth predicates, editing one predicate
// recomputes only its own σ part, the depth's ∧ conjunction and the
// downstream ordering — the three sibling predicates keep their
// fingerprints and are served from cache.
func TestSiblingPredicatesStayCached(t *testing.T) {
	s := New(dataset.RandomCars(100_000, 42))
	ids := make([]int, 0, 4)
	for _, p := range []string{
		"Year >= 2003",
		"Price < 30000",
		"Mileage < 90000",
		"Condition = 'Good' OR Condition = 'Excellent'",
	} {
		id, err := s.Select(p)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := s.Sort("Price", Asc); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Evaluate(); err != nil {
		t.Fatal(err)
	}

	// Pipeline shape: base, σ×4 parts, ∧, λ — seven stages.
	plan, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Stages) != 7 {
		t.Fatalf("pipeline has %d stages, want 7: %+v", len(plan.Stages), plan.Stages)
	}
	if got := plan.Stages[5].ID; got != "and:d0" {
		t.Fatalf("combine stage ID = %q, want and:d0", got)
	}

	if err := s.ReplaceSelection(ids[1], "Price < 25000"); err != nil {
		t.Fatal(err)
	}
	hits0, rec0 := stageCounters()
	got, err := s.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	hits, rec := stageCounters()
	if d := rec - rec0; d != 3 {
		t.Fatalf("recomputed %d stages, want 3 (edited σ, ∧, λ)", d)
	}
	if d := hits - hits0; d != 4 {
		t.Fatalf("served %d stages from cache, want 4 (base and the three sibling σ)", d)
	}

	// The plan agrees: every sibling σ reports a cache hit.
	plan, err = s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	for i, cached := range []bool{true, true, false, true, true, false, false} {
		if plan.Stages[i].Cached != cached {
			t.Fatalf("stage %d (%s) cached=%v, want %v", i, plan.Stages[i].Name, plan.Stages[i].Cached, cached)
		}
	}

	// And the warm result is bit-identical to a cold clone's replay.
	want, err := s.Clone().Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if got.Render() != want.Render() {
		t.Fatalf("warm sibling-cached evaluation diverged from cold replay")
	}
}

// TestCombineFallbackOnErroringPart pins the ∧ stage's chained-replay
// semantics: with two same-depth predicates where one errors on a row a
// sibling filters away, the split pipeline must reproduce exactly what
// sequential chained filtering produces (here: success), and stay
// bit-identical to a cold clone.
func TestCombineFallbackOnErroringPart(t *testing.T) {
	s := New(dataset.UsedCars())
	if _, err := s.Formula("Ratio", "Price / (Year - 2003)"); err != nil {
		t.Fatal(err)
	}
	// Chained order: Year > 2003 runs first and removes the Year = 2003
	// rows that make Ratio divide by zero; as an independent part, the
	// Ratio predicate sees those rows and errors.
	if _, err := s.Select("Year > 2003"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Select("Ratio > 0"); err != nil {
		t.Fatal(err)
	}
	got, gotErr := s.Evaluate()
	want, wantErr := s.Clone().Evaluate()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("split pipeline err %v, cold chained err %v", gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("split pipeline err %q, cold err %q", gotErr, wantErr)
		}
		return
	}
	if got.Render() != want.Render() {
		t.Fatalf("split pipeline diverged from chained replay on erroring part")
	}
}

// TestDepsGraphWellFormed drives random op sequences and checks structural
// invariants of the dependency graph after every step: closed edges (every
// endpoint is a node), unique node IDs, acyclicity, and agreement with the
// evaluation plan (same stage IDs in the same order).
func TestDepsGraphWellFormed(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		s := New(dataset.RandomCars(200, 7+seed))
		for step := 0; step < 40; step++ {
			op, _ := randomOp(s, rng)
			deps, err := s.Deps()
			if err != nil {
				// A cyclic or invalid state has no pipeline; the next op
				// moves on.
				continue
			}
			present := map[string]bool{}
			for _, n := range deps.Nodes {
				if present[n.ID] {
					t.Fatalf("step %d after %s: duplicate node %q", step, op, n.ID)
				}
				present[n.ID] = true
			}
			adj := map[string][]string{}
			indeg := map[string]int{}
			for _, e := range deps.Edges {
				if !present[e.From] || !present[e.To] {
					t.Fatalf("step %d after %s: edge %s→%s has missing endpoint", step, op, e.From, e.To)
				}
				adj[e.From] = append(adj[e.From], e.To)
				indeg[e.To]++
			}
			// Kahn's algorithm: all nodes drain iff the graph is acyclic.
			var queue []string
			for _, n := range deps.Nodes {
				if indeg[n.ID] == 0 {
					queue = append(queue, n.ID)
				}
			}
			drained := 0
			for len(queue) > 0 {
				n := queue[0]
				queue = queue[1:]
				drained++
				for _, m := range adj[n] {
					if indeg[m]--; indeg[m] == 0 {
						queue = append(queue, m)
					}
				}
			}
			if drained != len(deps.Nodes) {
				t.Fatalf("step %d after %s: dependency graph has a cycle", step, op)
			}
			// Stage nodes mirror the plan, ID for ID, in order.
			plan, err := s.Plan()
			if err != nil || plan.Error != "" {
				continue
			}
			var stageIDs []string
			for _, n := range deps.Nodes {
				if n.Kind != "basecol" {
					stageIDs = append(stageIDs, n.ID)
				}
			}
			if len(stageIDs) != len(plan.Stages) {
				t.Fatalf("step %d after %s: %d stage nodes vs %d plan stages", step, op, len(stageIDs), len(plan.Stages))
			}
			for i, st := range plan.Stages {
				if stageIDs[i] != st.ID {
					t.Fatalf("step %d after %s: deps stage %d is %q, plan says %q", step, op, i, stageIDs[i], st.ID)
				}
			}
		}
	}
}

// TestDepsEdgesReflectReferences pins the graph's content on a scripted
// multi-depth sheet: η over θ over θ over a base column, with a predicate
// over the aggregate.
func TestDepsEdgesReflectReferences(t *testing.T) {
	s := New(dataset.UsedCars())
	if _, err := s.Formula("F1", "Price / 1000"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Formula("F2", "F1 * 2"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AggregateAs("A", relation.AggAvg, "F2", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Select("A > 0"); err != nil {
		t.Fatal(err)
	}
	deps, err := s.Deps()
	if err != nil {
		t.Fatal(err)
	}
	has := func(from, to string) bool {
		for _, e := range deps.Edges {
			if e.From == from && e.To == to {
				return true
			}
		}
		return false
	}
	for _, e := range [][2]string{
		{"basecol:price", "col:f1"},
		{"col:f1", "col:f2"},
		{"col:f2", "col:a"},
		{"base", "col:f1"},
	} {
		if !has(e[0], e[1]) {
			var all []string
			for _, ed := range deps.Edges {
				all = append(all, ed.From+"→"+ed.To)
			}
			t.Fatalf("missing edge %s→%s; have: %s", e[0], e[1], strings.Join(all, ", "))
		}
	}
	// The depth-1 predicate over A depends on the aggregate stage.
	selTo := ""
	for _, n := range deps.Nodes {
		if strings.HasPrefix(n.ID, "sel:") {
			selTo = n.ID
		}
	}
	if selTo == "" {
		t.Fatalf("no selection node in %+v", deps.Nodes)
	}
	if !has("col:a", selTo) {
		t.Fatalf("missing edge col:a→%s", selTo)
	}
}

// TestIdenticalDefinitionsShareArtifacts pins the name-agnostic keying:
// two formula columns with the same definition produce one artifact — the
// second stage is a cache hit on the first's fingerprint.
func TestIdenticalDefinitionsShareArtifacts(t *testing.T) {
	s := New(dataset.UsedCars())
	if _, err := s.Formula("KiloPrice", "Price / 1000"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Evaluate(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Formula("PriceK", "Price / 1000"); err != nil {
		t.Fatal(err)
	}
	hits0, _ := stageCounters()
	res, err := s.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	hits, _ := stageCounters()
	// base, θ KiloPrice AND θ PriceK (same fingerprint) all hit.
	if d := hits - hits0; d != 3 {
		t.Fatalf("%d cache hits, want 3 (identical definition shares the artifact)", d)
	}
	names := res.Table.Schema.Names()
	found := 0
	for _, n := range names {
		if n == "KiloPrice" || n == "PriceK" {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("both identically defined columns must materialise under their own names; schema: %v", names)
	}
}
