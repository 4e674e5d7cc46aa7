package relation

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sheetmusiq/internal/value"
)

// sameTuples reports the first cell where two row lists differ in kind or
// payload, or "" when they are identical.
func sameTuples(got, want []Tuple) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Sprintf("row %d has %d cells, want %d", i, len(got[i]), len(want[i]))
		}
		for j, v := range got[i] {
			if w := want[i][j]; v.Kind() != w.Kind() || v.Key() != w.Key() {
				return fmt.Sprintf("row %d cell %d = %v, want %v", i, j, v, w)
			}
		}
	}
	return ""
}

// assemblyView is a final-assembly view over genKeyRows backing rows: five
// base columns plus two computed columns — an int vector with NULL holes
// and one no stage has filled (reads as NULL).
func assemblyView(n int, idx []int32) (*IndexView, Schema) {
	rows, schema := genKeyRows(rand.New(rand.NewSource(int64(n))), n)
	base := New("base", schema)
	for _, row := range rows {
		base.MustAppend(row...)
	}
	filled := &Col{Kind: value.KindInt, Ints: make([]int64, n), Nulls: NewBitmap(n)}
	for i := range filled.Ints {
		filled.Ints[i] = int64(i * 7)
		if i%5 == 0 {
			BitSet(filled.Nulls, i)
		}
	}
	work := append(schema.Clone(), Column{Name: "o1", Kind: value.KindInt}, Column{Name: "o2", Kind: value.KindInt})
	return &IndexView{Cols: base.Columns(), Base: n, Idx: idx, Over: []*Col{filled, nil}, Split: len(schema)}, work
}

// assemblyForms builds, for each form final assembly can take, a fresh
// relation on every call, so each read starts from the unread state.
func assemblyForms(n int) map[string]func() *Relation {
	identity := make([]int32, n)
	for i := range identity {
		identity[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(97))
	gapped := make([]int32, n+n/2) // shuffled, duplicating and gapped
	for i := range gapped {
		gapped[i] = int32(rng.Intn(n))
	}
	project := func(idx []int32, cols []int) *Relation {
		v, work := assemblyView(n, idx)
		schema := make(Schema, len(cols))
		for j, c := range cols {
			schema[j] = work[c]
		}
		return MaterializeView(v, cols, "out", schema)
	}
	mixed := []int{4, 0, 5, 6, 2}
	return map[string]func() *Relation{
		"base columns in order":     func() *Relation { return project(gapped, []int{0, 1, 2, 3, 4}) },
		"identity index":            func() *Relation { return project(identity, mixed) },
		"deferred gather":           func() *Relation { return project(gapped, mixed) },
		"deferred gather, gathered": func() *Relation { r := project(gapped, mixed); r.Columns(); return r },
	}
}

// TestTupleRangeMatchesTupleRows: for every assembly form, a page read
// before anything else touched the relation equals the same slice of the
// fully materialised rows, at the front and the back of the table.
func TestTupleRangeMatchesTupleRows(t *testing.T) {
	for name, build := range assemblyForms(40) {
		want := build().TupleRows()
		m := len(want)
		for _, k := range []int{1, m - 1, m} {
			if d := sameTuples(build().TupleRange(0, k), want[:k]); d != "" {
				t.Fatalf("%s: TupleRange(0, %d): %s", name, k, d)
			}
			if d := sameTuples(build().TupleRange(m-k, m), want[m-k:]); d != "" {
				t.Fatalf("%s: TupleRange(%d, %d): %s", name, m-k, m, d)
			}
		}
	}
}

// TestTupleRangeLeavesGatherDeferred: paging a lazily assembled relation
// builds neither its columns nor its rows.
func TestTupleRangeLeavesGatherDeferred(t *testing.T) {
	r := assemblyForms(40)["deferred gather"]()
	if r.gather == nil {
		t.Fatalf("final assembly over a gapped index should defer its gather")
	}
	if got := len(r.TupleRange(2, 9)); got != 7 {
		t.Fatalf("TupleRange(2, 9) returned %d rows", got)
	}
	if r.gather == nil || r.cols != nil {
		t.Fatalf("a paged read materialised the relation: gather=%v cols=%d", r.gather != nil, len(r.cols))
	}
}

// TestLazyRelationConcurrentReads: pages, full row reads and column reads
// of one lazily assembled relation, racing from several goroutines on its
// first access, all agree with a sequential read.
func TestLazyRelationConcurrentReads(t *testing.T) {
	build := assemblyForms(40)["deferred gather"]
	want := build().TupleRows()
	r := build()
	diffs := make([]string, 9)
	var wg sync.WaitGroup
	for g := range diffs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0:
				diffs[g] = sameTuples(r.TupleRange(3, 17), want[3:17])
			case 1:
				diffs[g] = sameTuples(r.TupleRows(), want)
			default:
				r.Columns()
				diffs[g] = sameTuples(r.TupleRange(0, len(want)), want)
			}
		}(g)
	}
	wg.Wait()
	for g, d := range diffs {
		if d != "" {
			t.Fatalf("reader %d: %s", g, d)
		}
	}
}

// TestCloneOfUnreadLazyRelation: cloning a lazily assembled relation that
// nothing has read yet runs its gather first, so the clone carries the
// rows, and a sorted clone of one sorts them.
func TestCloneOfUnreadLazyRelation(t *testing.T) {
	build := assemblyForms(40)["deferred gather"]
	want := build().TupleRows()
	if d := sameTuples(build().Clone().TupleRows(), want); d != "" {
		t.Fatalf("clone of an unread lazy relation: %s", d)
	}
	keys := []SortKey{{Column: "o1"}, {Column: "s", Desc: true}}
	ref := New("ref", build().Schema)
	for _, row := range want {
		ref.MustAppend(row...)
	}
	if err := ref.Sort(keys); err != nil {
		t.Fatal(err)
	}
	got, err := build().SortedClone(keys)
	if err != nil {
		t.Fatal(err)
	}
	if d := sameTuples(got.TupleRows(), ref.TupleRows()); d != "" {
		t.Fatalf("sorted clone of an unread lazy relation: %s", d)
	}
}
