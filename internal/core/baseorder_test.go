package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sheetmusiq/internal/obs"
	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

// orderBase builds n rows with many ties in every key kind: I INT and S
// STRING with NULLs, D DATE, B BOOL, F FLOAT with NaN, -0, +0 and NULL, G
// FLOAT with -0, +0 and NULL but no NaN, and X, declared INT but a Boxed
// column of ints and floats.
func orderBase(rng *rand.Rand, n int) *relation.Relation {
	schema := relation.Schema{
		{Name: "I", Kind: value.KindInt},
		{Name: "S", Kind: value.KindString},
		{Name: "D", Kind: value.KindDate},
		{Name: "B", Kind: value.KindBool},
		{Name: "F", Kind: value.KindFloat},
		{Name: "G", Kind: value.KindFloat},
		{Name: "X", Kind: value.KindInt},
	}
	floats := []float64{0, math.Copysign(0, -1), 1.5, 1.5, -2, 3}
	cells := make([][]value.Value, len(schema))
	for j := range cells {
		cells[j] = make([]value.Value, n)
	}
	for i := 0; i < n; i++ {
		cells[0][i] = value.NewInt(int64(rng.Intn(5)))
		cells[1][i] = value.NewString([]string{"a", "b", "c"}[rng.Intn(3)])
		if rng.Intn(8) == 0 {
			cells[0][i], cells[1][i] = value.Null, value.Null
		}
		cells[2][i] = value.NewDateDays(int64(rng.Intn(4)))
		cells[3][i] = value.NewBool(rng.Intn(2) == 0)
		cells[4][i] = value.NewFloat(floats[rng.Intn(len(floats))])
		cells[5][i] = value.NewFloat(floats[rng.Intn(len(floats))])
		switch rng.Intn(9) {
		case 0:
			cells[4][i] = value.NewFloat(math.NaN())
		case 1:
			cells[4][i], cells[5][i] = value.Null, value.Null
		}
		cells[6][i] = value.NewInt(int64(rng.Intn(3)))
		if rng.Intn(2) == 0 {
			cells[6][i] = value.NewFloat(float64(rng.Intn(3)) + 0.5)
		}
	}
	cols := make([]*relation.Col, len(schema))
	for j, c := range schema {
		cols[j] = relation.ColOf(c.Kind, cells[j])
	}
	return relation.FromColumns("t", schema, cols, n)
}

func orderCounters() (built, filtered int64) {
	return obs.Default.CounterValue("core.eval.order_built"),
		obs.Default.CounterValue("core.eval.order_filtered")
}

// TestBaseOrderFilterMatchesSort is the property behind λ's base-order
// filter: under random σ/δ/λ/τ sequences, with η keys and NaN, -0, NULL and
// Boxed key cells among many ties, the warm evaluation — which filters a
// cached base order wherever the keys allow it — renders exactly what a
// cold Clone(), which sorts its survivors, renders. The sequences must
// filter at least once, or the property was not exercised.
func TestBaseOrderFilterMatchesSort(t *testing.T) {
	defer func(old int) { relation.ParallelThreshold = old }(relation.ParallelThreshold)
	relation.ParallelThreshold = 4

	cols := []string{"I", "S", "D", "B", "F", "G", "X"}
	preds := []string{"I >= 2", "I < 4", "S IN ('a', 'b')", "S IS NULL OR G > 0", "G <= 1.5", "F > 0", "B = TRUE", "X < 2"}
	_, filtered0 := orderCounters()
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := New(orderBase(rng, 200+rng.Intn(200)))
			pick := func(ss []string) string { return ss[rng.Intn(len(ss))] }
			dir := func() Dir { return Dir(rng.Intn(2) == 1) }
			for step := 0; step < 80; step++ {
				var op string
				switch rng.Intn(12) {
				case 0, 1:
					p := pick(preds)
					_, _ = s.Select(p)
					op = "σ " + p
				case 2, 3:
					id, p := 1+rng.Intn(3), pick(preds)
					_ = s.ReplaceSelection(id, p)
					op = fmt.Sprintf("modify #%d %s", id, p)
				case 4:
					id := 1 + rng.Intn(3)
					_ = s.RemoveSelection(id)
					op = fmt.Sprintf("drop σ #%d", id)
				case 5:
					if rng.Intn(2) == 0 {
						_ = s.Hide(pick(cols))
						_ = s.Distinct()
						op = "δ"
					} else {
						_ = s.RemoveDistinct()
						op = "drop δ"
					}
				case 6:
					c := pick(append(cols, "A"))
					_ = s.Sort(c, dir())
					op = "λ " + c
				case 7:
					c, lvl := pick(cols), 1+rng.Intn(3)
					_ = s.OrderBy(c, dir(), lvl)
					op = fmt.Sprintf("τ %s @%d", c, lvl)
				case 8:
					c := pick(cols)
					_ = s.GroupBy(dir(), c)
					op = "γ " + c
				case 9:
					_ = s.Ungroup()
					op = "ungroup"
				case 10:
					_, _ = s.AggregateAs("A", relation.AggSum, pick([]string{"I", "G"}), 1+rng.Intn(2))
					op = "η A"
				default:
					_, _ = s.Undo()
					op = "undo"
				}
				got, gotErr := s.Evaluate()
				want, wantErr := s.Clone().Evaluate()
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("step %d after %s: warm err %v, cold err %v", step, op, gotErr, wantErr)
				}
				if gotErr != nil {
					if gotErr.Error() != wantErr.Error() {
						t.Fatalf("step %d after %s: warm err %q, cold err %q", step, op, gotErr, wantErr)
					}
					continue
				}
				if got.Render() != want.Render() {
					t.Fatalf("step %d after %s: warm grid diverged from the cold sort\n--- warm ---\n%s\n--- cold ---\n%s",
						step, op, clip(got.Render()), clip(want.Render()))
				}
				if g, w := treeLines(got.Root), treeLines(want.Root); strings.Join(g, "\n") != strings.Join(w, "\n") {
					t.Fatalf("step %d after %s: warm group tree diverged from the cold sort", step, op)
				}
			}
		})
	}
	if _, filtered := orderCounters(); filtered == filtered0 {
		t.Fatal("no λ recompute filtered a base order: the property was not exercised")
	}
}

// TestBaseOrderBuildRule pins when λ builds and filters a base order: the
// first recompute under a key set sorts its survivors, the second builds
// the order and filters it, and the third filters the cached order. Keys
// that include an η column or a NaN FLOAT column never build, and a base
// change drops the order.
func TestBaseOrderBuildRule(t *testing.T) {
	check := func(t *testing.T, s *Spreadsheet, label string, wantBuilt, wantFiltered int64) {
		t.Helper()
		built0, filtered0 := orderCounters()
		got, err := s.Evaluate()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, err := s.Clone().Evaluate()
		if err != nil {
			t.Fatalf("%s: cold: %v", label, err)
		}
		if got.RenderGrouped() != want.RenderGrouped() {
			t.Fatalf("%s: warm result diverged from the cold sort", label)
		}
		built, filtered := orderCounters()
		if built-built0 != wantBuilt || filtered-filtered0 != wantFiltered {
			t.Fatalf("%s: built %d, filtered %d; want %d, %d", label, built-built0, filtered-filtered0, wantBuilt, wantFiltered)
		}
	}
	edits := func(t *testing.T, s *Spreadsheet, wantBuilt, wantFiltered []int64) {
		t.Helper()
		id, err := s.Select("I >= 1")
		if err != nil {
			t.Fatal(err)
		}
		check(t, s, "first σ", wantBuilt[0], wantFiltered[0])
		for i, p := range []string{"I >= 2", "I < 4"} {
			if err := s.ReplaceSelection(id, p); err != nil {
				t.Fatal(err)
			}
			check(t, s, fmt.Sprintf("σ edit %d", i+1), wantBuilt[i+1], wantFiltered[i+1])
		}
	}

	t.Run("base keys", func(t *testing.T) {
		s := New(orderBase(rand.New(rand.NewSource(1)), 500))
		if err := s.GroupBy(Desc, "S"); err != nil {
			t.Fatal(err)
		}
		if err := s.Sort("G", Asc); err != nil {
			t.Fatal(err)
		}
		// The set-up render, the first σ and the first edit recompute λ
		// under one key set: sort, build, then filter.
		check(t, s, "set-up", 0, 0)
		edits(t, s, []int64{1, 0, 0}, []int64{1, 1, 1})

		// A base change (a rename replaces the base) drops the order: the
		// next recompute sorts, the one after builds again.
		if err := s.Rename("I", "J"); err != nil {
			t.Fatal(err)
		}
		if err := s.ReplaceSelection(1, "J >= 3"); err != nil {
			t.Fatal(err)
		}
		check(t, s, "after the base change", 0, 0)
		if err := s.ReplaceSelection(1, "J < 3"); err != nil {
			t.Fatal(err)
		}
		check(t, s, "second edit after the base change", 1, 1)
	})
	t.Run("η key", func(t *testing.T) {
		s := New(orderBase(rand.New(rand.NewSource(2)), 500))
		if err := s.GroupBy(Asc, "S"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AggregateAs("A", relation.AggSum, "G", 2); err != nil {
			t.Fatal(err)
		}
		if err := s.OrderGroupsBy(1, "A", Desc); err != nil {
			t.Fatal(err)
		}
		check(t, s, "set-up", 0, 0)
		edits(t, s, []int64{0, 0, 0}, []int64{0, 0, 0})
	})
	t.Run("NaN key", func(t *testing.T) {
		s := New(orderBase(rand.New(rand.NewSource(3)), 500))
		if err := s.Sort("F", Desc); err != nil {
			t.Fatal(err)
		}
		check(t, s, "set-up", 0, 0)
		edits(t, s, []int64{0, 0, 0}, []int64{0, 0, 0})
	})
}

// TestFilterOrderPrecondition: filtering a base order equals the stable
// sort of survivors that ascend in base order, and survivors that do not
// ascend strictly get nil, so λ sorts them instead.
func TestFilterOrderPrecondition(t *testing.T) {
	keys := relation.ColOf(value.KindInt, []value.Value{
		value.NewInt(2), value.NewInt(1), value.NewInt(2), value.NewInt(0), value.NewInt(1), value.NewInt(2),
	})
	order := relation.SortPermCols([]*relation.Col{keys}, nil, 6, []bool{false})
	survivors := []int32{0, 1, 2, 4, 5}
	perm := relation.SortPermCols([]*relation.Col{keys}, survivors, len(survivors), []bool{false})
	want := make([]int32, len(perm))
	for i, l := range perm {
		want[i] = survivors[l]
	}
	if got := filterOrder(order, survivors, 6); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("filterOrder = %v, want the survivor sort %v", got, want)
	}
	for _, idx := range [][]int32{{0, 2, 1}, {1, 1, 3}} {
		if got := filterOrder(order, idx, 6); got != nil {
			t.Fatalf("filterOrder(%v) = %v, want nil: the survivors do not ascend strictly", idx, got)
		}
	}
}
