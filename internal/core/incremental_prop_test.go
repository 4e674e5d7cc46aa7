package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sheetmusiq/internal/dataset"
	"sheetmusiq/internal/graph"
	"sheetmusiq/internal/relation"
)

// TestIncrementalMatchesColdReplay is the equivalence property for the
// incremental pipeline: after every operation in a random sequence, the
// warm, snapshot-reusing evaluation must be bit-identical — rendered grid
// and group tree alike — to a cold full replay of the same state
// (Clone() carries no snapshot cache, so it replays from scratch). Run
// under -race with SHEETMUSIQ_PARALLEL_THRESHOLD forced low this also
// exercises the parallel kernels on tiny inputs.
//
// The same sequence also pins the precision of the stage cache: after every
// successful edit of one stored operator (ReplaceSelection, Sort, OrderBy,
// RemoveOrdering), checkStageReuse holds the warm plan to the reference
// derived from Deps().
func TestIncrementalMatchesColdReplay(t *testing.T) {
	defer func(old int) { relation.ParallelThreshold = old }(relation.ParallelThreshold)
	relation.ParallelThreshold = 4

	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := New(dataset.RandomCars(300, 100+seed))
			_, prevErr := s.Evaluate()
			for step := 0; step < 60; step++ {
				pre, _ := s.Deps() // the pre-op graph; Evaluate is memoised
				op, touched := randomOp(s, rng)
				got, gotErr := s.Evaluate()
				want, wantErr := s.Clone().Evaluate()
				if touched != "" && prevErr == nil && gotErr == nil {
					checkStageReuse(t, s, pre, touched, fmt.Sprintf("step %d after %s", step, op))
				}
				prevErr = gotErr
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("step %d after %s: incremental err %v, cold err %v", step, op, gotErr, wantErr)
				}
				if gotErr != nil {
					if gotErr.Error() != wantErr.Error() {
						t.Fatalf("step %d after %s: incremental err %q, cold err %q", step, op, gotErr, wantErr)
					}
					continue
				}
				if got.Render() != want.Render() {
					t.Fatalf("step %d after %s: incremental grid diverged from cold replay", step, op)
				}
				if got.RenderGrouped() != want.RenderGrouped() {
					t.Fatalf("step %d after %s: incremental group tree diverged from cold replay", step, op)
				}
			}
		})
	}
}

// checkStageReuse checks the warm plan after a successful edit of one
// stored operator whose stage ID is touched (sel:<id> or order), with pre
// the dependency graph before the edit:
//   - every stage outside the touched node and its dependents — in the graph
//     before and after the edit — keeps its (ID, fingerprint);
//   - every stage whose (ID, fingerprint) is unchanged is served from cache,
//     except a σ part that reported no artifact (its predicate errors on
//     the depth's entry rows, so the ∧ replayed the chain instead).
//
// It fails if a fingerprint folds in an input its stage does not depend on.
// These sequences stay under the cache cap, so nothing is evicted here;
// TestSnapshotCacheEviction covers the LRU order.
func checkStageReuse(t *testing.T, s *Spreadsheet, pre *DepsInfo, touched, label string) {
	t.Helper()
	post, err := s.Deps()
	if err != nil {
		t.Fatalf("%s: deps: %v", label, err)
	}
	cone := map[string]bool{touched: true}
	for _, deps := range []*DepsInfo{pre, post} {
		g := graph.New()
		for _, e := range deps.Edges {
			g.AddEdge(e.From, e.To)
		}
		for _, id := range g.Descendants(touched) {
			cone[id] = true
		}
	}
	stageFPs := func(g *DepsInfo) map[string]uint64 {
		fps := map[string]uint64{}
		for _, n := range g.Nodes {
			if n.Kind != "basecol" {
				fps[n.ID] = n.Fingerprint
			}
		}
		return fps
	}
	before, after := stageFPs(pre), stageFPs(post)
	for _, fps := range []map[string]uint64{before, after} {
		for id := range fps {
			if fp, ok := before[id]; !cone[id] && (!ok || fp != after[id]) {
				t.Fatalf("%s: stage %s lies outside the cone of %s but changed (ID, fingerprint)", label, id, touched)
			}
		}
	}
	plan, err := s.Plan()
	if err != nil {
		t.Fatalf("%s: plan: %v", label, err)
	}
	for _, st := range plan.Stages {
		if fp, ok := before[st.ID]; !ok || fp != st.Fingerprint || st.Cached {
			continue
		}
		if strings.HasPrefix(st.ID, "sel:") && s.snapCache.entries[st.Fingerprint] == nil {
			continue // the σ part reported no artifact
		}
		t.Fatalf("%s: stage %s kept its fingerprint but was recomputed\nplan: %+v", label, st.ID, plan.Stages)
	}
}

// randomOp applies one randomly chosen algebra operation (or modification,
// or undo/redo) to s and returns a label for failure messages, plus the
// stage ID an edit of one stored operator touched (sel:<id> for
// ReplaceSelection, order for Sort, OrderBy and RemoveOrdering) when that
// edit succeeded. Operation errors are deliberately ignored: a rejected op
// leaves the state unchanged, and the equivalence check still has to hold.
func randomOp(s *Spreadsheet, rng *rand.Rand) (label, touched string) {
	cols := []string{"ID", "Model", "Price", "Year", "Mileage", "Condition"}
	numeric := []string{"Price", "Year", "Mileage"}
	preds := []string{
		"Year >= 2004",
		"Price < 20000",
		"Model = 'Jetta'",
		"Condition = 'Good' OR Condition = 'Excellent'",
		"Mileage < 60000 AND Year > 2002",
		"A1 > 10000", // only valid once the aggregate exists
	}
	aggs := []relation.AggFunc{relation.AggSum, relation.AggAvg, relation.AggMin, relation.AggMax, relation.AggCount}
	formulas := []string{
		"Price / 1000",
		"Price - Mileage / 10",
		"Price / (Year - 2004)", // runtime error on Year = 2004 rows
	}
	names := []string{"A1", "A2", "F1", "F2"}

	pick := func(ss []string) string { return ss[rng.Intn(len(ss))] }
	dir := Asc
	if rng.Intn(2) == 1 {
		dir = Desc
	}

	edited := func(err error, id string) string {
		if err != nil {
			return ""
		}
		return id
	}
	switch rng.Intn(18) {
	case 0:
		p := pick(preds)
		_, _ = s.Select(p)
		return "σ " + p, ""
	case 1:
		id, p := 1+rng.Intn(3), pick(preds)
		err := s.ReplaceSelection(id, p)
		return fmt.Sprintf("modify #%d %s", id, p), edited(err, fmt.Sprintf("sel:%d", id))
	case 2:
		id := 1 + rng.Intn(3)
		_ = s.RemoveSelection(id)
		return fmt.Sprintf("drop σ #%d", id), ""
	case 3:
		c := pick([]string{"Model", "Year", "Condition"})
		_ = s.GroupBy(dir, c)
		return "γ " + c, ""
	case 4:
		_ = s.Ungroup()
		return "ungroup", ""
	case 5:
		_ = s.ClearGrouping()
		return "clear grouping", ""
	case 6:
		c := pick(cols)
		return "λ " + c, edited(s.Sort(c, dir), "order")
	case 7:
		c, lvl := pick(cols), 1+rng.Intn(3)
		return fmt.Sprintf("τ %s @%d", c, lvl), edited(s.OrderBy(c, dir, lvl), "order")
	case 8:
		c := pick(cols)
		return "drop τ " + c, edited(s.RemoveOrdering(c), "order")
	case 9:
		lvl, c := 2+rng.Intn(2), pick(numeric)
		_ = s.OrderGroupsBy(lvl, c, dir)
		return fmt.Sprintf("order groups @%d by %s", lvl, c), ""
	case 10:
		n, c, lvl := pick(names[:2]), pick(numeric), 1+rng.Intn(3)
		fn := aggs[rng.Intn(len(aggs))]
		_, _ = s.AggregateAs(n, fn, c, lvl)
		return fmt.Sprintf("η %s=%s(%s)@%d", n, fn, c, lvl), ""
	case 11:
		n, f := pick(names[2:]), pick(formulas)
		_, _ = s.Formula(n, f)
		return fmt.Sprintf("θ %s=%s", n, f), ""
	case 12:
		n := pick(names)
		_ = s.RemoveComputed(n)
		return "drop " + n, ""
	case 13:
		c := pick(cols)
		if rng.Intn(2) == 0 {
			_ = s.Hide(c)
			return "hide " + c, ""
		}
		_ = s.Reinstate(c)
		return "reinstate " + c, ""
	case 14:
		if rng.Intn(2) == 0 {
			_ = s.Distinct()
			return "δ", ""
		}
		_ = s.RemoveDistinct()
		return "drop δ", ""
	case 15:
		if rng.Intn(2) == 0 {
			_ = s.Rename("Mileage", "Miles")
			return "rename Mileage→Miles", ""
		}
		_ = s.Rename("Miles", "Mileage")
		return "rename Miles→Mileage", ""
	case 16:
		_, _ = s.Undo()
		return "undo", ""
	default:
		_, _ = s.Redo()
		return "redo", ""
	}
}
