package relation

import (
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"sheetmusiq/internal/value"
)

// Tests for the typed column store: appending never writes storage another
// relation reads, producers build typed columns, and set operations over
// columns of different representations hold exactly the cells row
// concatenation would.

// bitsBeyond reports whether c's null bitmap sets any bit at or beyond n.
func bitsBeyond(c *Col, n int) bool {
	for i := n; i < 64*len(c.Nulls); i++ {
		if BitGet(c.Nulls, i) {
			return true
		}
	}
	return false
}

func storeSchema() Schema {
	return Schema{
		{Name: "i", Kind: value.KindInt},
		{Name: "s", Kind: value.KindString},
		{Name: "f", Kind: value.KindFloat},
	}
}

// storeRow is row k of the append fixtures: NULL in every column at rows 63
// and 64, either side of the first bitmap word boundary, and every seventh
// row.
func storeRow(k int) Tuple {
	if k == 63 || k == 64 || k%7 == 0 {
		return Tuple{value.Null, value.Null, value.Null}
	}
	return Tuple{value.NewInt(int64(k)), value.NewString(strings.Repeat("x", k%3)), value.NewInt(int64(k))}
}

// TestAppendAfterSharingKeepsDerivedCells: a Project, a FromColumns over
// Columns() and a Clone taken at 63 and at 64 rows keep their cells while
// the source appends NULLs across the bitmap word boundary, and none of
// their bitmaps sets a bit at or beyond its length.
func TestAppendAfterSharingKeepsDerivedCells(t *testing.T) {
	src := New("src", storeSchema())
	type derived struct {
		name string
		rel  *Relation
		want []Tuple
	}
	var all []derived
	share := func(at string) {
		p, err := src.Project([]string{"f", "i", "s"})
		if err != nil {
			t.Fatal(err)
		}
		want := src.TupleRows()
		wantP := make([]Tuple, len(want))
		for i, row := range want {
			wantP[i] = Tuple{row[2], row[0], row[1]}
		}
		all = append(all,
			derived{"Project at " + at, p, wantP},
			derived{"FromColumns at " + at, FromColumns("fc", src.Schema, src.Columns(), src.Len()), want},
			derived{"Clone at " + at, src.Clone(), want})
	}
	for k := 0; k < 200; k++ {
		if k == 63 || k == 64 {
			share(strconv.Itoa(k))
		}
		src.MustAppend(storeRow(k)...)
	}
	want := make([]Tuple, 200)
	for k := range want {
		want[k] = storeRow(k)
		want[k][2] = value.NewFloat(float64(k)) // INT widens into the FLOAT column
		if k == 63 || k == 64 || k%7 == 0 {
			want[k][2] = value.Null
		}
	}
	if d := sameTuples(src.TupleRows(), want); d != "" {
		t.Fatalf("source: %s", d)
	}
	for _, d := range all {
		if diff := sameTuples(d.rel.TupleRows(), d.want); diff != "" {
			t.Fatalf("%s: %s", d.name, diff)
		}
		for j, c := range d.rel.Columns() {
			if bitsBeyond(c, d.rel.Len()) {
				t.Fatalf("%s: column %d sets a null bit at or beyond its %d cells", d.name, j, d.rel.Len())
			}
		}
	}
	for j, c := range src.Columns() {
		if c.Boxed != nil || c.Kind != src.Schema[j].Kind || bitsBeyond(c, src.Len()) {
			t.Fatalf("source column %d: boxed %v, kind %v, bits beyond %v", j, c.Boxed != nil, c.Kind, bitsBeyond(c, src.Len()))
		}
	}
}

// TestAppendSharedPrefixDiverges: two relations over one shared prefix each
// append their own rows without seeing the other's, and the prefix's owner
// is unchanged.
func TestAppendSharedPrefixDiverges(t *testing.T) {
	base := New("base", storeSchema())
	for k := 0; k < 63; k++ {
		base.MustAppend(storeRow(k)...)
	}
	prefix := base.TupleRows()
	a := FromColumns("a", base.Schema, base.Columns(), base.Len())
	b, err := base.Project([]string{"i", "s", "f"})
	if err != nil {
		t.Fatal(err)
	}
	rowA := Tuple{value.Null, value.NewString("a"), value.NewFloat(1)}
	rowB := Tuple{value.NewInt(2), value.Null, value.Null}
	for k := 0; k < 3; k++ {
		a.MustAppend(rowA...)
		b.MustAppend(rowB...)
	}
	wantA := append(append([]Tuple(nil), prefix...), rowA, rowA, rowA)
	wantB := append(append([]Tuple(nil), prefix...), rowB, rowB, rowB)
	if d := sameTuples(a.TupleRows(), wantA); d != "" {
		t.Fatalf("a: %s", d)
	}
	if d := sameTuples(b.TupleRows(), wantB); d != "" {
		t.Fatalf("b: %s", d)
	}
	if d := sameTuples(base.TupleRows(), prefix); d != "" {
		t.Fatalf("base: %s", d)
	}
}

// mixedRel builds a relation over (a INT, b STRING) whose columns take the
// given representations: "typed" (ColOf), "boxed" (BoxedCol) or "null"
// (AllNullCol, every cell NULL). Non-NULL cells come from small domains, so
// duplicates are frequent.
func mixedRel(rng *rand.Rand, name string, n int, reps [2]string) (*Relation, []Tuple) {
	schema := Schema{{Name: "a", Kind: value.KindInt}, {Name: "b", Kind: value.KindString}}
	rows := make([]Tuple, n)
	for i := range rows {
		rows[i] = Tuple{value.NewInt(int64(rng.Intn(3))), value.NewString(string(rune('p' + rng.Intn(2))))}
		for j := range rows[i] {
			if reps[j] == "null" || rng.Intn(5) == 0 {
				rows[i][j] = value.Null
			}
		}
	}
	cols := make([]*Col, 2)
	for j, rep := range reps {
		vals := make([]value.Value, n)
		for i, row := range rows {
			vals[i] = row[j]
		}
		switch rep {
		case "typed":
			cols[j] = ColOf(schema[j].Kind, vals)
		case "boxed":
			cols[j] = BoxedCol(vals)
		default:
			cols[j] = AllNullCol()
		}
	}
	return FromColumns(name, schema, cols, n), rows
}

// TestUnionDifferenceMixedRepresentations: ∪ and − over one schema whose
// columns are typed on one side and Boxed or all-NULL on the other, with
// NULLs and duplicate multiplicities on both sides, equal the row-wise
// reference: concatenation for ∪, and Tuple.Key multiset counting (NULL
// equal to NULL) for −.
func TestUnionDifferenceMixedRepresentations(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(101))
	reps := [][2]string{{"typed", "typed"}, {"boxed", "typed"}, {"typed", "boxed"}, {"null", "boxed"}, {"boxed", "null"}, {"null", "null"}}
	for trial := 0; trial < 60; trial++ {
		r, rrows := mixedRel(rng, "r", rng.Intn(40), reps[rng.Intn(len(reps))])
		s, srows := mixedRel(rng, "s", rng.Intn(40), reps[rng.Intn(len(reps))])

		u, err := r.Union(s)
		if err != nil {
			t.Fatal(err)
		}
		if d := sameTuples(u.TupleRows(), append(append([]Tuple(nil), rrows...), srows...)); d != "" {
			t.Fatalf("trial %d: union: %s", trial, d)
		}

		count := map[string]int{}
		for _, row := range srows {
			count[row.Key()]++
		}
		var want []Tuple
		for _, row := range rrows {
			if count[row.Key()] > 0 {
				count[row.Key()]--
				continue
			}
			want = append(want, row)
		}
		d, err := r.Difference(s)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameTuples(d.TupleRows(), want); diff != "" {
			t.Fatalf("trial %d: difference: %s", trial, diff)
		}
	}
}

// TestReadCSVBuildsTypedColumns: ReadCSV appends its cells into typed
// columns, with the empty fields as NULL bits in the bitmap.
func TestReadCSVBuildsTypedColumns(t *testing.T) {
	src := "id,name,price,when,ok\n" +
		"1,ann,2.5,2005-01-02,true\n" +
		",bob,,2006-03-04,\n" +
		"3,,1.5,,false\n"
	r, err := ReadCSV("t", strings.NewReader(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	nulls := [][]int{{1}, {2}, {1}, {2}, {1}} // empty fields, per column
	for j, c := range r.Columns() {
		if c.Boxed != nil || c.Kind != r.Schema[j].Kind {
			t.Fatalf("column %s: boxed %v, kind %v; want typed %v", r.Schema[j].Name, c.Boxed != nil, c.Kind, r.Schema[j].Kind)
		}
		for i := 0; i < r.Len(); i++ {
			want := i == nulls[j][0]
			if BitGet(c.Nulls, i) != want {
				t.Fatalf("column %s row %d: null bit %v, want %v", r.Schema[j].Name, i, !want, want)
			}
		}
		if bitsBeyond(c, r.Len()) {
			t.Fatalf("column %s sets a null bit beyond its cells", r.Schema[j].Name)
		}
	}
	if got := r.TupleRows()[2][2].Float(); got != 1.5 {
		t.Fatalf("price of row 2 = %v, want 1.5", got)
	}
}

// TestPlace: Place writes lane k's cell from[k] at cell to[k] of a fresh
// column and leaves every other cell NULL, over every kind, Boxed and
// all-NULL kernel columns, with holes between the placed cells, and with a
// declared FLOAT kind widening INT cells (typed and Boxed) before the form
// is decided. The result must match a boxed reference cell for cell, follow
// the values rule (colMismatch; AllNullCol when no cell is non-NULL) and set
// no null bit past its size, in one chunk and in four.
func TestPlace(t *testing.T) {
	const m, size = 70, 150 // kernel cells; base rows, with holes
	rng := rand.New(rand.NewSource(96))
	mixed := func(withFloats bool) *Col {
		vals := make([]value.Value, m)
		for i := range vals {
			switch {
			case i%5 == 0:
			case i%2 == 0:
				vals[i] = value.NewInt(int64(i))
			case withFloats:
				vals[i] = value.NewFloat(float64(i) / 4)
			default:
				vals[i] = value.NewString(strconv.Itoa(i))
			}
		}
		return BoxedCol(vals)
	}
	allNullInts := &Col{Kind: value.KindInt, Ints: make([]int64, m), Nulls: NewBitmap(m)}
	for i := 0; i < m; i++ {
		BitSet(allNullInts.Nulls, i)
	}
	cases := []struct {
		name string
		c    *Col
		kind value.Kind
	}{
		{"INTEGER", randAggCol(rng, value.KindInt, m), value.KindInt},
		{"FLOAT", randAggCol(rng, value.KindFloat, m), value.KindFloat},
		{"TEXT", randAggCol(rng, value.KindString, m), value.KindString},
		{"BOOLEAN", randAggCol(rng, value.KindBool, m), value.KindBool},
		{"DATE", randAggCol(rng, value.KindDate, m), value.KindDate},
		{"INTEGER as FLOAT", randAggCol(rng, value.KindInt, m), value.KindFloat},
		{"Boxed INTEGER/TEXT", mixed(false), value.KindInt},
		{"Boxed INTEGER/FLOAT", mixed(true), value.KindInt},
		{"Boxed INTEGER/FLOAT as FLOAT", mixed(true), value.KindFloat},
		{"all-NULL column", AllNullCol(), value.KindInt},
		{"all-NULL INTEGER", allNullInts, value.KindFloat},
		{"all-NULL Boxed", BoxedCol(make([]value.Value, m)), value.KindNull},
	}
	old := ParallelThreshold
	defer func() { ParallelThreshold = old }()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, threshold := range []int{1 << 30, 0} {
		ParallelThreshold = threshold
		for _, tc := range cases {
			// η's shape (from = group IDs, lanes at ascending base rows
			// with holes) and ω's (from nil, one lane per cell).
			for _, eta := range []bool{true, false} {
				n := m
				var from []int32
				if eta {
					n = 100
					from = make([]int32, n)
					for k := range from {
						from[k] = int32(k % m)
					}
				}
				to := make([]int32, 0, n)
				for ri := 0; len(to) < n; ri++ {
					if size-ri > n-len(to) && rng.Intn(3) == 0 {
						continue // a hole
					}
					to = append(to, int32(ri))
				}
				want := make([]value.Value, size)
				anyCell := false
				for k, ri := range to {
					v := tc.c.Value(laneCell(from, k))
					if tc.kind == value.KindFloat && v.Kind() == value.KindInt {
						v = value.NewFloat(float64(v.Int()))
					}
					want[ri] = v
					anyCell = anyCell || !v.IsNull()
				}
				got := Place(tc.c, from, to, size, tc.kind)
				if d := colMismatch(got, want); d != "" {
					t.Fatalf("%s (η %v, threshold %d): %s", tc.name, eta, threshold, d)
				}
				if bitsBeyond(got, size) {
					t.Fatalf("%s (η %v): null bit set past %d cells", tc.name, eta, size)
				}
				if !anyCell && (got.Kind != value.KindNull || got.Boxed != nil) {
					t.Fatalf("%s (η %v): no non-NULL cell, but not AllNullCol", tc.name, eta)
				}
			}
		}
	}
}
