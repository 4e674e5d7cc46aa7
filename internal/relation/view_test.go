package relation

import (
	"math/rand"
	"testing"

	"sheetmusiq/internal/value"
)

// genKeyRows builds random tuples over counting-sortable key families —
// string, int, date, bool, each with NULLs — plus a float column and a
// mixed-kind column, so the eligibility guard has something to reject.
func genKeyRows(rng *rand.Rand, n int) ([]Tuple, Schema) {
	schema := Schema{
		{Name: "s", Kind: value.KindString},
		{Name: "i", Kind: value.KindInt},
		{Name: "d", Kind: value.KindDate},
		{Name: "b", Kind: value.KindBool},
		{Name: "f", Kind: value.KindFloat},
	}
	rows := make([]Tuple, n)
	for i := range rows {
		t := make(Tuple, 5)
		if rng.Intn(5) == 0 {
			t[0] = value.Null
		} else {
			t[0] = value.NewString(string(rune('a' + rng.Intn(4))))
		}
		if rng.Intn(5) == 0 {
			t[1] = value.Null
		} else {
			t[1] = value.NewInt(int64(rng.Intn(5)))
		}
		t[2] = value.NewDateDays(int64(rng.Intn(4)))
		if rng.Intn(6) == 0 {
			t[3] = value.Null
		} else {
			t[3] = value.NewBool(rng.Intn(2) == 0)
		}
		t[4] = value.NewFloat(float64(rng.Intn(3)))
		rows[i] = t
	}
	return rows, schema
}

// TestSortViewByGroupingMatchesSortView: ordering by group rank over a
// cached grouping must be bit-identical to the stable comparison sort, for
// every counting-sortable key family, with NULLs, duplicate keys, repeated
// and gapped row indices, ascending and descending directions, sequential
// and parallel.
func TestSortViewByGroupingMatchesSortView(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(400)
		rows, schema := genKeyRows(rng, n)
		r := New("cs", schema)
		r.Rows = rows
		cols := r.Columns()

		// A shuffled, duplicating, gapped subset of the backing rows.
		m := rng.Intn(2 * n)
		idx := make([]int32, m)
		for i := range idx {
			idx[i] = int32(rng.Intn(n))
		}
		v := &IndexView{Cols: cols, Base: n, Idx: idx, Split: len(schema)}

		nk := 1 + rng.Intn(3)
		pos := make([]int, nk)
		desc := make([]bool, nk)
		keyCols := make([]*Col, nk)
		for k := range pos {
			pos[k] = rng.Intn(4) // the counting-sortable columns
			desc[k] = rng.Intn(2) == 0
			keyCols[k] = v.ColAt(pos[k])
			if !CountingSortable(keyCols[k]) {
				t.Fatalf("trial %d: column %d should be counting-sortable", trial, pos[k])
			}
		}

		gr := GroupView(v, pos)
		want := SortView(v, pos, desc)
		got := SortViewByGrouping(v, keyCols, desc, gr)
		if !eqInt32(want, got) {
			t.Fatalf("trial %d: counting sort diverges from stable sort (keys %v desc %v, %d rows)",
				trial, pos, desc, m)
		}
	}
}

// TestCountingSortableExclusions: float and mixed-kind (boxed) columns must
// be rejected — NaN compares unordered and cross-kind numeric coincidences
// compare equal, both against cells grouping keeps distinct.
func TestCountingSortableExclusions(t *testing.T) {
	if CountingSortable(nil) {
		t.Fatalf("nil column must not be counting-sortable")
	}
	rng := rand.New(rand.NewSource(73))
	rows, schema := genKeyRows(rng, 50)
	r := New("ex", schema)
	r.Rows = rows
	cols := r.Columns()
	if CountingSortable(cols[4]) {
		t.Fatalf("float column must not be counting-sortable")
	}
	mixed := BoxedCol([]value.Value{value.NewInt(3), value.NewFloat(3)})
	if CountingSortable(mixed) {
		t.Fatalf("boxed mixed-kind column must not be counting-sortable")
	}
	if !CountingSortable(AllNullCol()) {
		t.Fatalf("all-NULL column should be counting-sortable")
	}
}
