package relation

import (
	"math/rand"
	"sort"
	"testing"

	"sheetmusiq/internal/value"
)

// genRows builds random tuples over (int, float, string) columns with small
// value ranges, so duplicate keys and cross-kind numeric coincidences (int 3
// in one row, float 3.0 in another) occur constantly.
func genRows(rng *rand.Rand, n int) []Tuple {
	rows := make([]Tuple, n)
	for i := range rows {
		var a value.Value
		switch rng.Intn(4) {
		case 0:
			a = value.NewInt(int64(rng.Intn(6)))
		case 1:
			a = value.NewFloat(float64(rng.Intn(6)))
		case 2:
			a = value.Null
		default:
			a = value.NewString(string(rune('a' + rng.Intn(4))))
		}
		rows[i] = Tuple{a, value.NewInt(int64(rng.Intn(4))), value.NewFloat(rng.Float64() * 3)}
	}
	return rows
}

func genSchema() Schema {
	return Schema{
		{Name: "a", Kind: value.KindString},
		{Name: "b", Kind: value.KindInt},
		{Name: "c", Kind: value.KindFloat},
	}
}

// refGroupIDs is the string-key reference grouping: dense IDs in
// first-occurrence order via Tuple.KeyOn, the retired implementation.
func refGroupIDs(rows []Tuple, cols []int) ([]int32, []int32) {
	ids := make([]int32, len(rows))
	var first []int32
	pos := map[string]int32{}
	for i, t := range rows {
		k := t.KeyOn(cols)
		g, ok := pos[k]
		if !ok {
			g = int32(len(first))
			pos[k] = g
			first = append(first, int32(i))
		}
		ids[i] = g
	}
	return ids, first
}

func eqInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGroupRowsOnMatchesStringKeys: hash grouping over columns must
// reproduce the string-key grouping exactly — same dense IDs, same
// first-occurrence order — on single, composite and whole-row keys, for
// values where the two equality notions agree (the generator avoids -0,
// whose string key diverged from Compare; see DESIGN.md §9). The "a" column
// mixes kinds, so it is a Boxed column.
func TestGroupRowsOnMatchesStringKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		rows := genRows(rng, 1+rng.Intn(400))
		cols := makeRel("g", rows).Columns()
		for _, pos := range [][]int{{0}, {0, 1}, {1, 2}, {0, 1, 2}} {
			keyCols := make([]*Col, len(pos))
			for i, p := range pos {
				keyCols[i] = cols[p]
			}
			gr := GroupCols(keyCols, nil, len(rows))
			wantIDs, wantFirst := refGroupIDs(rows, pos)
			if !eqInt32(gr.IDs, wantIDs) || !eqInt32(gr.First, wantFirst) {
				t.Fatalf("cols %v: grouping IDs/First diverge from string-key reference", pos)
			}
		}
	}
}

// TestGroupRowsOnParallelMatchesSequential: the chunked build with ordered
// merge must be bit-identical to the single-chunk build.
func TestGroupRowsOnParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rows := genRows(rng, 5000)
	keyCols := makeRel("p", rows).Columns()[:2]
	old := ParallelThreshold
	ParallelThreshold = 1 << 30
	seq := GroupCols(keyCols, nil, len(rows))
	ParallelThreshold = old
	forceParallel(t)
	par := GroupCols(keyCols, nil, len(rows))
	if !eqInt32(seq.IDs, par.IDs) || !eqInt32(seq.First, par.First) {
		t.Fatalf("parallel grouping diverges from sequential")
	}
}

// relEqual compares two relations row by row under bit-identity (kind and
// payload via MustCompare==0 plus same kind).
func relEqual(a, b *Relation) bool {
	ar, br := a.TupleRows(), b.TupleRows()
	if len(ar) != len(br) || len(a.Schema) != len(b.Schema) {
		return false
	}
	for i := range ar {
		for j := range ar[i] {
			x, y := ar[i][j], br[i][j]
			if x.Kind() != y.Kind() || !value.Equal(x, y) {
				return false
			}
		}
	}
	return true
}

// makeRel builds a genSchema relation of rows. Its "a" column mixes kinds,
// so it is built from ColOf columns (a Boxed column) rather than appended.
func makeRel(name string, rows []Tuple) *Relation {
	schema := genSchema()
	cols := make([]*Col, len(schema))
	for j, c := range schema {
		vals := make([]value.Value, len(rows))
		for i, t := range rows {
			vals[i] = t[j]
		}
		cols[j] = ColOf(c.Kind, vals)
	}
	return FromColumns(name, schema, cols, len(rows))
}

// refSort is the sort reference: sort.SliceStable over a copy of rows,
// comparing key cells with value.MustCompare.
func refSort(rows []Tuple, schema Schema, keys []SortKey) []Tuple {
	out := append([]Tuple(nil), rows...)
	sort.SliceStable(out, func(a, b int) bool {
		for _, k := range keys {
			j := schema.IndexOf(k.Column)
			c := value.MustCompare(out[a][j], out[b][j])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return out
}

// sortSizes are the row counts the sort tests always cover: the trivial
// sizes and both sides of 256, where a row-count threshold once switched
// representations.
var sortSizes = []int{0, 1, 2, 255, 256, 3000}

// rowFilter adapts a row predicate to a PairFilter over the candidates'
// boxed rows, stopping at the first error — the reference the typed
// callers' batch filters must match.
func rowFilter(pred func(Tuple) (bool, error)) PairFilter {
	return func(cand *Relation) ([]int32, error) {
		keep := []int32{}
		for k, t := range cand.TupleRows() {
			ok, err := pred(t)
			if err != nil {
				return nil, err
			}
			if ok {
				keep = append(keep, int32(k))
			}
		}
		return keep, nil
	}
}

// TestHashJoinMatchesThetaJoin: for a predicate carrying key equalities,
// with or without a residual theta condition, the hash kernel must produce
// exactly the product-filter result — same rows, same order — on both the
// build-left and build-right side choices. Keys cover the INT column b, the
// mixed column a (INT, FLOAT, STRING and NULL cells, so a Boxed column whose
// INT 3 meets FLOAT 3.0 and whose NULLs never match), the pair (a, b), and
// an empty side.
func TestHashJoinMatchesThetaJoin(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		nl, nr := rng.Intn(120), rng.Intn(240)
		switch trial {
		case 0:
			nl = 0
		case 1:
			nr = 0
		}
		left := makeRel("l", genRows(rng, nl))
		right := makeRel("r", genRows(rng, nr))
		for _, keys := range [][]int{{1}, {0}, {0, 1}} {
			// Product layout: r at 0..2, s at 3..5. SQL `=` on each key.
			keysEqual := func(tp Tuple) bool {
				for _, c := range keys {
					x, y := tp[c], tp[3+c]
					if x.IsNull() || y.IsNull() || !value.Equal(x, y) {
						return false
					}
				}
				return true
			}
			on := func(tp Tuple) (bool, error) {
				return keysEqual(tp) && value.MustCompare(tp[2], tp[5]) < 0, nil
			}
			onKeys := func(tp Tuple) (bool, error) { return keysEqual(tp), nil }
			for _, c := range []struct {
				name     string
				pred     func(Tuple) (bool, error)
				residual PairFilter
			}{
				{"keys and residual", on, rowFilter(on)},
				{"keys only", onKeys, nil},
			} {
				want, err := left.Join(right, rowFilter(c.pred))
				if err != nil {
					t.Fatal(err)
				}
				got, err := left.HashJoin(right, keys, keys, c.residual)
				if err != nil {
					t.Fatal(err)
				}
				if !relEqual(want, got) {
					t.Fatalf("trial %d keys %v %s: hash join (%d rows) != theta join (%d rows)", trial, keys, c.name, got.Len(), want.Len())
				}
				if !got.Schema.Equal(want.Schema) {
					t.Fatalf("trial %d keys %v %s: schema mismatch", trial, keys, c.name)
				}
			}
		}
	}
}

// TestHashJoinErrorParity: an error raised by the predicate on a candidate
// pair surfaces from the hash path exactly as from the product path.
func TestHashJoinErrorParity(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(19))
	left := makeRel("l", genRows(rng, 300))
	right := makeRel("r", genRows(rng, 300))
	boom := rowFilter(func(tp Tuple) (bool, error) {
		if value.Equal(tp[1], tp[4]) {
			return false, errBoom{}
		}
		return false, nil
	})
	_, errTheta := left.Join(right, boom)
	_, errHash := left.HashJoin(right, []int{1}, []int{1}, boom)
	if errTheta == nil || errHash == nil {
		t.Fatalf("expected both paths to error (theta %v, hash %v)", errTheta, errHash)
	}
}

type errBoom struct{}

func (errBoom) Error() string { return "boom" }

// TestSortMatchesSliceStableReference: the typed merge sort must reproduce
// the stable closure sort bit-identically, sequentially and in parallel.
func TestSortMatchesSliceStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	keys := []SortKey{{Column: "b"}, {Column: "c", Desc: true}}
	sizes := append([]int(nil), sortSizes...)
	for trial := 0; trial < 20; trial++ {
		sizes = append(sizes, 1+rng.Intn(3000))
	}
	for trial, n := range sizes {
		rows := genRows(rng, n)
		want := makeRel("w", refSort(rows, genSchema(), keys))
		got := makeRel("g", rows).Clone()
		if err := got.Sort(keys); err != nil {
			t.Fatal(err)
		}
		if !relEqual(want, got) {
			t.Fatalf("trial %d (%d rows): sort diverges from SliceStable reference", trial, n)
		}
	}
}

func TestSortParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	rows := genRows(rng, 6000)
	keys := []SortKey{{Column: "a"}, {Column: "b", Desc: true}, {Column: "c"}}
	old := ParallelThreshold
	ParallelThreshold = 1 << 30
	seq := makeRel("s", rows).Clone()
	err1 := seq.Sort(keys)
	ParallelThreshold = old
	forceParallel(t)
	par := makeRel("p", rows).Clone()
	err2 := par.Sort(keys)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !relEqual(seq, par) {
		t.Fatalf("parallel sort diverges from sequential")
	}
}

// TestSortStability: rows with equal keys must keep their original order; a
// payload column tags the original positions.
func TestSortStability(t *testing.T) {
	forceParallel(t)
	r := New("t", genSchema())
	for i := 0; i < 4000; i++ {
		r.MustAppend(value.NewString("k"), value.NewInt(int64(i%3)), value.NewFloat(float64(i)))
	}
	if err := r.Sort([]SortKey{{Column: "b"}}); err != nil {
		t.Fatal(err)
	}
	last := map[int64]float64{0: -1, 1: -1, 2: -1}
	for _, row := range r.TupleRows() {
		b, c := row[1].Int(), row[2].Float()
		if c <= last[b] {
			t.Fatalf("stability violated within key %d: %v after %v", b, c, last[b])
		}
		last[b] = c
	}
}

// TestSortedCloneColumnarMatchesRowSort: SortedClone, and Sort in place,
// must match the SliceStable reference bit for bit at every size (the "a"
// column is mixed-kind and stays Boxed, covering the boxed comparator arm),
// stay stable, and SortedClone must leave the receiver untouched.
func TestSortedCloneColumnarMatchesRowSort(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(31))
	keys := []SortKey{{Column: "b"}, {Column: "a", Desc: true}}
	for _, n := range sortSizes {
		rows := genRows(rng, n)
		want := makeRel("w", refSort(rows, genSchema(), keys))
		src := makeRel("g", rows)
		got, err := src.SortedClone(keys)
		if err != nil {
			t.Fatal(err)
		}
		if !relEqual(want, got) {
			t.Fatalf("n=%d: SortedClone diverges from the reference sort", n)
		}
		inPlace := makeRel("c", rows)
		if err := inPlace.Sort(keys); err != nil {
			t.Fatal(err)
		}
		if !relEqual(want, inPlace) {
			t.Fatalf("n=%d: Sort diverges from the reference sort", n)
		}
		if d := sameTuples(src.TupleRows(), rows); d != "" {
			t.Fatalf("n=%d: SortedClone mutated the receiver: %s", n, d)
		}
		// Stability: within equal (b, a) keys the payload column c must keep
		// the original relative order genRows produced.
		srcPos := map[float64]int{}
		for i, row := range rows {
			srcPos[row[2].Float()] = i
		}
		sorted := got.TupleRows()
		for i := 1; i < n; i++ {
			x, y := sorted[i-1], sorted[i]
			if value.Equal(x[1], y[1]) && x[0].Kind() == y[0].Kind() && value.Equal(x[0], y[0]) {
				if srcPos[x[2].Float()] > srcPos[y[2].Float()] {
					t.Fatalf("n=%d: stability violated at sorted row %d", n, i)
				}
			}
		}
	}
}

// TestDistinctMatchesStringKeyReference: Distinct/DistinctOn keep exactly
// the first occurrence of each key, like the retired string-key scan.
func TestDistinctMatchesStringKeyReference(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(31))
	pick := func(rows []Tuple, at []int32) *Relation {
		kept := make([]Tuple, len(at))
		for i, ri := range at {
			kept[i] = rows[ri]
		}
		return makeRel("d", kept)
	}
	for trial := 0; trial < 20; trial++ {
		rows := genRows(rng, 1+rng.Intn(500))
		r := makeRel("d", rows)
		_, first := refGroupIDs(rows, []int{0, 1, 2})
		if got := r.Distinct(); !relEqual(pick(rows, first), got) {
			t.Fatalf("trial %d: Distinct diverges from string-key reference", trial)
		}
		_, firstOn := refGroupIDs(rows, []int{1})
		if got := r.DistinctOn([]int{1}); !relEqual(pick(rows, firstOn), got) {
			t.Fatalf("trial %d: DistinctOn diverges from string-key reference", trial)
		}
	}
}

// TestGroupRowsOnNoPerRowAllocs pins the headline win: grouping 10k rows on
// whole-row keys (a Boxed, an int and a float column) performs a bounded
// number of allocations (table, ID arrays, growth doublings) — not one
// string per row. The string-key path allocated ≥1 per row (30k+ here).
func TestGroupRowsOnNoPerRowAllocs(t *testing.T) {
	old := ParallelThreshold
	ParallelThreshold = 1 << 30 // sequential: goroutine machinery allocates
	defer func() { ParallelThreshold = old }()
	rng := rand.New(rand.NewSource(37))
	cols := makeRel("a", genRows(rng, 10000)).Columns()
	allocs := testing.AllocsPerRun(5, func() {
		GroupCols(cols, nil, 10000)
	})
	if allocs > 100 {
		t.Fatalf("GroupCols allocates %.0f times for 10k rows; per-row allocation regressed", allocs)
	}
}

// TestAggregateBoundedAllocs: the full Aggregate pipeline over 10k rows
// must allocate proportionally to groups, not rows.
func TestAggregateBoundedAllocs(t *testing.T) {
	old := ParallelThreshold
	ParallelThreshold = 1 << 30
	defer func() { ParallelThreshold = old }()
	rng := rand.New(rand.NewSource(41))
	r := makeRel("agg", genRows(rng, 10000))
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := r.Aggregate([]string{"a", "b"}, AggAvg, "c"); err != nil {
			t.Fatal(err)
		}
	})
	// ~48 distinct (a, b) groups; row-index lists and group rows dominate.
	if allocs > 2000 {
		t.Fatalf("Aggregate allocates %.0f times for 10k rows; per-row allocation regressed", allocs)
	}
}

// TestDistinctBoundedAllocs: Distinct over 10k rows with few distinct keys
// allocates per group, not per row.
func TestDistinctBoundedAllocs(t *testing.T) {
	old := ParallelThreshold
	ParallelThreshold = 1 << 30
	defer func() { ParallelThreshold = old }()
	rng := rand.New(rand.NewSource(43))
	r := makeRel("dst", genRows(rng, 10000))
	r2 := r.DistinctOn([]int{0, 1})
	allocs := testing.AllocsPerRun(5, func() {
		r.DistinctOn([]int{0, 1})
	})
	if allocs > 100 {
		t.Fatalf("DistinctOn allocates %.0f times for 10k rows (kept %d); per-row allocation regressed", allocs, r2.Len())
	}
}

// TestDifferenceMatchesMultisetSemantics: the grouping-backed difference
// keeps multiset multiplicities: {t,t} − {t} = {t}.
func TestDifferenceMatchesMultisetSemantics(t *testing.T) {
	r := New("r", genSchema())
	r.MustAppend(value.NewString("x"), value.NewInt(1), value.NewFloat(1))
	r.MustAppend(value.NewString("x"), value.NewInt(1), value.NewFloat(1))
	r.MustAppend(value.NewString("y"), value.NewInt(2), value.NewFloat(2))
	s := New("s", genSchema())
	s.MustAppend(value.NewString("x"), value.NewInt(1), value.NewFloat(1))
	s.MustAppend(value.NewString("z"), value.NewInt(3), value.NewFloat(3))
	d, err := r.Difference(s)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Fatalf("difference kept %d rows, want 2", d.Len())
	}
	if rows := d.TupleRows(); rows[0][0].Str() != "x" || rows[1][0].Str() != "y" {
		t.Fatalf("difference rows wrong: %v", rows)
	}
}

// TestCountDistinctValueSet: the hash-set COUNT_DISTINCT agrees with value
// equality across kinds (int 2 and float 2.0 count once) and merges.
func TestCountDistinctValueSet(t *testing.T) {
	a := newAccumulator(AggCountDistinct)
	for _, v := range []value.Value{
		value.NewInt(2), value.NewFloat(2), value.NewInt(3), value.Null, value.NewString("2"),
	} {
		if err := a.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	b := newAccumulator(AggCountDistinct)
	if err := b.Add(value.NewInt(3)); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(value.NewInt(9)); err != nil {
		t.Fatal(err)
	}
	a.Merge(b)
	// Distinct non-NULL: {2, 3, "2", 9}.
	if got := a.Result().Int(); got != 4 {
		t.Fatalf("COUNT_DISTINCT = %d, want 4", got)
	}
}
