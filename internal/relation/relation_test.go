package relation

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"sheetmusiq/internal/value"
)

func carSchema() Schema {
	return Schema{
		{Name: "ID", Kind: value.KindInt},
		{Name: "Model", Kind: value.KindString},
		{Name: "Price", Kind: value.KindInt},
		{Name: "Year", Kind: value.KindInt},
		{Name: "Mileage", Kind: value.KindInt},
		{Name: "Condition", Kind: value.KindString},
	}
}

// cars returns the paper's Table I sample used-car relation.
func cars() *Relation {
	r := New("cars", carSchema())
	add := func(id int64, model string, price, year, mileage int64, cond string) {
		r.MustAppend(value.NewInt(id), value.NewString(model), value.NewInt(price),
			value.NewInt(year), value.NewInt(mileage), value.NewString(cond))
	}
	add(304, "Jetta", 14500, 2005, 76000, "Good")
	add(872, "Jetta", 15000, 2005, 50000, "Excellent")
	add(901, "Jetta", 16000, 2005, 40000, "Excellent")
	add(423, "Jetta", 17000, 2006, 42000, "Good")
	add(723, "Jetta", 17500, 2006, 39000, "Excellent")
	add(725, "Jetta", 18000, 2006, 30000, "Excellent")
	add(132, "Civic", 13500, 2005, 86000, "Good")
	add(879, "Civic", 15000, 2006, 68000, "Good")
	add(322, "Civic", 16000, 2006, 73000, "Good")
	return r
}

func TestSchemaIndexOfCaseInsensitive(t *testing.T) {
	s := carSchema()
	if s.IndexOf("model") != 1 || s.IndexOf("MODEL") != 1 {
		t.Error("IndexOf should be case-insensitive")
	}
	if s.IndexOf("nope") != -1 {
		t.Error("IndexOf should return -1 for missing columns")
	}
}

func TestAppendChecksArityAndKind(t *testing.T) {
	r := New("t", Schema{{Name: "a", Kind: value.KindInt}})
	if err := r.Append(Tuple{value.NewInt(1), value.NewInt(2)}); err == nil {
		t.Error("arity mismatch must error")
	}
	if err := r.Append(Tuple{value.NewString("x")}); err == nil {
		t.Error("kind mismatch must error")
	}
	if err := r.Append(Tuple{value.Null}); err != nil {
		t.Errorf("NULL must be accepted in any column: %v", err)
	}
}

func TestAppendPromotesIntToFloat(t *testing.T) {
	r := New("t", Schema{{Name: "a", Kind: value.KindFloat}})
	if err := r.Append(Tuple{value.NewInt(3)}); err != nil {
		t.Fatal(err)
	}
	if r.TupleRows()[0][0].Kind() != value.KindFloat {
		t.Error("int should be promoted to float on append")
	}
}

func TestSelect(t *testing.T) {
	r := cars()
	year := r.Schema.IndexOf("Year")
	got, err := r.Select(func(t Tuple) (bool, error) { return t[year].Int() == 2005, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 4 {
		t.Errorf("2005 cars = %d, want 4", got.Len())
	}
}

func TestProjectKeepsDuplicates(t *testing.T) {
	r := cars()
	got, err := r.Project([]string{"Model"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 9 {
		t.Errorf("projection must not dedupe: %d rows", got.Len())
	}
	if len(got.Schema) != 1 || got.Schema[0].Name != "Model" {
		t.Errorf("projected schema = %v", got.Schema)
	}
}

func TestProjectMissingColumn(t *testing.T) {
	if _, err := cars().Project([]string{"Nope"}); err == nil {
		t.Error("projecting a missing column must error")
	}
}

func TestDistinct(t *testing.T) {
	r := cars()
	models, _ := r.Project([]string{"Model"})
	d := models.Distinct()
	if d.Len() != 2 {
		t.Errorf("distinct models = %d, want 2", d.Len())
	}
	// First-appearance order: Jetta then Civic.
	if d.TupleRows()[0][0].Str() != "Jetta" || d.TupleRows()[1][0].Str() != "Civic" {
		t.Errorf("distinct order = %v", d.TupleRows())
	}
}

func TestProduct(t *testing.T) {
	a := New("a", Schema{{Name: "x", Kind: value.KindInt}})
	a.MustAppend(value.NewInt(1))
	a.MustAppend(value.NewInt(2))
	b := New("b", Schema{{Name: "x", Kind: value.KindInt}, {Name: "y", Kind: value.KindString}})
	b.MustAppend(value.NewInt(10), value.NewString("p"))
	p := a.Product(b)
	if p.Len() != 2 {
		t.Errorf("product rows = %d, want 2", p.Len())
	}
	if p.Schema[1].Name != "b_x" {
		t.Errorf("colliding column should be prefixed, got %q", p.Schema[1].Name)
	}
	if p.Schema[2].Name != "y" {
		t.Errorf("non-colliding column should keep its name, got %q", p.Schema[2].Name)
	}
}

func TestUnionDifferenceMultiset(t *testing.T) {
	s := Schema{{Name: "a", Kind: value.KindInt}}
	x := New("x", s)
	x.MustAppend(value.NewInt(1))
	x.MustAppend(value.NewInt(1))
	y := New("y", s)
	y.MustAppend(value.NewInt(1))

	u, err := x.Union(y)
	if err != nil || u.Len() != 3 {
		t.Fatalf("union len = %d, %v; want 3 (multiset)", u.Len(), err)
	}
	d, err := x.Difference(y)
	if err != nil || d.Len() != 1 {
		t.Fatalf("difference {1,1}-{1} len = %d, %v; want 1", d.Len(), err)
	}
	d2, _ := y.Difference(x)
	if d2.Len() != 0 {
		t.Fatalf("difference {1}-{1,1} len = %d; want 0", d2.Len())
	}
}

func TestUnionSchemaMismatch(t *testing.T) {
	x := New("x", Schema{{Name: "a", Kind: value.KindInt}})
	y := New("y", Schema{{Name: "b", Kind: value.KindInt}})
	if _, err := x.Union(y); err == nil {
		t.Error("union with mismatched schemas must error")
	}
	if _, err := x.Difference(y); err == nil {
		t.Error("difference with mismatched schemas must error")
	}
}

func TestJoin(t *testing.T) {
	a := New("a", Schema{{Name: "id", Kind: value.KindInt}})
	a.MustAppend(value.NewInt(1))
	a.MustAppend(value.NewInt(2))
	b := New("b", Schema{{Name: "ref", Kind: value.KindInt}, {Name: "v", Kind: value.KindString}})
	b.MustAppend(value.NewInt(2), value.NewString("two"))
	b.MustAppend(value.NewInt(3), value.NewString("three"))
	j, err := a.Join(b, rowFilter(func(t Tuple) (bool, error) {
		return value.Equal(t[0], t[1]), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 1 || j.TupleRows()[0][2].Str() != "two" {
		t.Errorf("join result = %v", j.TupleRows())
	}
}

func TestSortStableMultiKey(t *testing.T) {
	r := cars()
	if err := r.Sort([]SortKey{{Column: "Model", Desc: true}, {Column: "Price"}}); err != nil {
		t.Fatal(err)
	}
	// Jettas first (desc model), cheapest Jetta first.
	if r.TupleRows()[0][1].Str() != "Jetta" || r.TupleRows()[0][0].Int() != 304 {
		t.Errorf("first row = %v", r.TupleRows()[0])
	}
	if r.TupleRows()[6][1].Str() != "Civic" || r.TupleRows()[6][2].Int() != 13500 {
		t.Errorf("first civic = %v", r.TupleRows()[6])
	}
}

func TestSortUnknownColumn(t *testing.T) {
	if err := cars().Sort([]SortKey{{Column: "Nope"}}); err == nil {
		t.Error("sorting on a missing column must error")
	}
}

func TestSortNullsFirst(t *testing.T) {
	r := New("t", Schema{{Name: "a", Kind: value.KindInt}})
	r.MustAppend(value.NewInt(5))
	r.MustAppend(value.Null)
	if err := r.Sort([]SortKey{{Column: "a"}}); err != nil {
		t.Fatal(err)
	}
	if !r.TupleRows()[0][0].IsNull() {
		t.Error("NULL must sort first ascending")
	}
}

func TestAggregateAvgPerGroup(t *testing.T) {
	// Table III's numbers: avg price per (Model, Year).
	got, err := cars().Aggregate([]string{"Model", "Year"}, AggAvg, "Price")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"Jetta|2005": 15166.666666666666,
		"Jetta|2006": 17500,
		"Civic|2005": 13500,
		"Civic|2006": 15500,
	}
	if got.Len() != 4 {
		t.Fatalf("rows = %d", got.Len())
	}
	for _, row := range got.TupleRows() {
		k := row[0].Str() + "|" + row[1].String()
		if row[2].Float() != want[k] {
			t.Errorf("avg %s = %v, want %v", k, row[2], want[k])
		}
	}
}

func TestAggregateWholeRelation(t *testing.T) {
	got, err := cars().Aggregate(nil, AggCount, "ID")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.TupleRows()[0][0].Int() != 9 {
		t.Errorf("count = %v", got.TupleRows())
	}
}

func TestAggregateEmptyRelation(t *testing.T) {
	empty := New("e", carSchema())
	got, err := empty.Aggregate(nil, AggCount, "ID")
	if err != nil || got.Len() != 1 || got.TupleRows()[0][0].Int() != 0 {
		t.Errorf("count over empty = %v, %v", got, err)
	}
	s, err := empty.Aggregate(nil, AggSum, "Price")
	if err != nil || !s.TupleRows()[0][0].IsNull() {
		t.Errorf("sum over empty must be NULL, got %v", s.TupleRows()[0])
	}
}

func TestAggregateFunctions(t *testing.T) {
	r := New("t", Schema{{Name: "v", Kind: value.KindInt}})
	for _, v := range []int64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.MustAppend(value.NewInt(v))
	}
	check := func(fn AggFunc, want value.Value) {
		t.Helper()
		got, err := r.Aggregate(nil, fn, "v")
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		g := got.TupleRows()[0][0]
		if fn == AggStdDev {
			if diff := g.Float() - want.Float(); diff > 1e-9 || diff < -1e-9 {
				t.Errorf("%s = %v, want %v", fn, g, want)
			}
			return
		}
		if !value.Equal(g, want) {
			t.Errorf("%s = %v, want %v", fn, g, want)
		}
	}
	check(AggSum, value.NewInt(40))
	check(AggAvg, value.NewFloat(5))
	check(AggMin, value.NewInt(2))
	check(AggMax, value.NewInt(9))
	check(AggCount, value.NewInt(8))
	check(AggCountDistinct, value.NewInt(5))
	check(AggStdDev, value.NewFloat(2)) // classic population-stddev example
}

func TestAggregateNullHandling(t *testing.T) {
	r := New("t", Schema{{Name: "v", Kind: value.KindInt}})
	r.MustAppend(value.NewInt(10))
	r.MustAppend(value.Null)
	c, _ := r.Aggregate(nil, AggCount, "v")
	if c.TupleRows()[0][0].Int() != 2 {
		t.Error("COUNT counts tuples including NULL (COUNT(*) semantics)")
	}
	a, _ := r.Aggregate(nil, AggAvg, "v")
	if a.TupleRows()[0][0].Float() != 10 {
		t.Error("AVG must skip NULLs")
	}
}

// TestAggregateBoxedInputKeepsDeclaredKind: a column declared INTEGER that
// holds floats sums to a float, which the result column holds Boxed under
// the declared kind, as a declared-kind column is built (ColOf).
func TestAggregateBoxedInputKeepsDeclaredKind(t *testing.T) {
	schema := Schema{{Name: "v", Kind: value.KindInt}}
	col := BoxedCol([]value.Value{value.NewFloat(1.5), value.NewFloat(2.5)})
	got, err := FromColumns("t", schema, []*Col{col}, 2).Aggregate(nil, AggSum, "v")
	if err != nil {
		t.Fatal(err)
	}
	if c := got.Columns()[0]; c.Boxed == nil || !bitEqual(c.Value(0), value.NewFloat(4)) || got.Schema[0].Kind != value.KindInt {
		t.Fatalf("SUM column = %+v under %v, want Boxed 4.0 under INTEGER", c, got.Schema[0].Kind)
	}
}

func TestParseAggFunc(t *testing.T) {
	if f, err := ParseAggFunc("avg"); err != nil || f != AggAvg {
		t.Errorf("ParseAggFunc(avg) = %v, %v", f, err)
	}
	if _, err := ParseAggFunc("median"); err == nil {
		t.Error("unknown aggregate must error")
	}
}

func TestAggregateNonNumericSum(t *testing.T) {
	if _, err := cars().Aggregate(nil, AggSum, "Model"); err == nil {
		t.Error("SUM over TEXT must error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := cars()
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("cars", bytes.NewReader(buf.Bytes()), r.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != r.Len() {
		t.Fatalf("round trip rows = %d", back.Len())
	}
	for i := range r.TupleRows() {
		if r.TupleRows()[i].Key() != back.TupleRows()[i].Key() {
			t.Errorf("row %d mismatch: %v vs %v", i, r.TupleRows()[i], back.TupleRows()[i])
		}
	}
}

func TestCSVInferSchema(t *testing.T) {
	src := "id,name,price,when\n1,ann,2.5,2005-01-02\n"
	r, err := ReadCSV("t", strings.NewReader(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []value.Kind{value.KindInt, value.KindString, value.KindFloat, value.KindDate}
	for i, k := range wantKinds {
		if r.Schema[i].Kind != k {
			t.Errorf("column %d kind = %v, want %v", i, r.Schema[i].Kind, k)
		}
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV("t", strings.NewReader("a\nx,y\n"), nil); err == nil {
		t.Error("ragged csv must error")
	}
	schema := Schema{{Name: "a", Kind: value.KindInt}}
	if _, err := ReadCSV("t", strings.NewReader("a\nnotanint\n"), schema); err == nil {
		t.Error("unparseable cell must error")
	}
}

func TestStringRendering(t *testing.T) {
	out := cars().String()
	if !strings.Contains(out, "Jetta") || !strings.Contains(out, "Condition") {
		t.Errorf("table rendering missing content:\n%s", out)
	}
}

// Property: union then difference restores the original multiset cardinality.
func TestQuickUnionDifference(t *testing.T) {
	f := func(xs, ys []int8) bool {
		s := Schema{{Name: "a", Kind: value.KindInt}}
		x := New("x", s)
		for _, v := range xs {
			x.MustAppend(value.NewInt(int64(v)))
		}
		y := New("y", s)
		for _, v := range ys {
			y.MustAppend(value.NewInt(int64(v)))
		}
		u, err := x.Union(y)
		if err != nil {
			return false
		}
		d, err := u.Difference(y)
		if err != nil {
			return false
		}
		if d.Len() != x.Len() {
			return false
		}
		// Same multiset: compare sorted keys.
		ks1 := make([]string, 0, x.Len())
		for _, t := range x.TupleRows() {
			ks1 = append(ks1, t.Key())
		}
		ks2 := make([]string, 0, d.Len())
		for _, t := range d.TupleRows() {
			ks2 = append(ks2, t.Key())
		}
		m := map[string]int{}
		for _, k := range ks1 {
			m[k]++
		}
		for _, k := range ks2 {
			m[k]--
		}
		for _, c := range m {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Distinct is idempotent and never increases cardinality.
func TestQuickDistinctIdempotent(t *testing.T) {
	f := func(xs []int8) bool {
		s := Schema{{Name: "a", Kind: value.KindInt}}
		r := New("r", s)
		for _, v := range xs {
			r.MustAppend(value.NewInt(int64(v)))
		}
		d1 := r.Distinct()
		d2 := d1.Distinct()
		return d1.Len() <= r.Len() && d1.Len() == d2.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: sorting preserves the multiset of rows.
func TestQuickSortPreservesRows(t *testing.T) {
	f := func(xs []int16) bool {
		s := Schema{{Name: "a", Kind: value.KindInt}}
		r := New("r", s)
		for _, v := range xs {
			r.MustAppend(value.NewInt(int64(v)))
		}
		sorted, err := r.SortedClone([]SortKey{{Column: "a"}})
		if err != nil || sorted.Len() != r.Len() {
			return false
		}
		for i := 1; i < sorted.Len(); i++ {
			if value.MustCompare(sorted.TupleRows()[i-1][0], sorted.TupleRows()[i][0]) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDistinctOn(t *testing.T) {
	r := cars()
	idx, err := r.ColumnIndexes([]string{"Model", "Year"})
	if err != nil {
		t.Fatal(err)
	}
	d := r.DistinctOn(idx)
	if d.Len() != 4 {
		t.Fatalf("distinct (Model, Year) rows = %d, want 4", d.Len())
	}
	// First occurrence wins: the (Jetta, 2005) survivor is ID 304.
	if d.TupleRows()[0][0].Int() != 304 {
		t.Fatalf("first survivor = %v", d.TupleRows()[0])
	}
	// Schema is unchanged (unlike Project).
	if len(d.Schema) != 6 {
		t.Fatalf("schema = %v", d.Schema)
	}
}

func TestSortedCloneLeavesOriginal(t *testing.T) {
	r := cars()
	firstBefore := r.TupleRows()[0][0].Int()
	sorted, err := r.SortedClone([]SortKey{{Column: "Price", Desc: true}})
	if err != nil {
		t.Fatal(err)
	}
	if r.TupleRows()[0][0].Int() != firstBefore {
		t.Fatal("SortedClone mutated the receiver")
	}
	if sorted.TupleRows()[0][2].Int() != 18000 {
		t.Fatalf("sorted first price = %v", sorted.TupleRows()[0][2])
	}
}

func TestAccumulatorEdgeCases(t *testing.T) {
	// STDDEV of a single value is 0 (population convention).
	acc := newAccumulator(AggStdDev)
	if err := acc.Add(value.NewInt(5)); err != nil {
		t.Fatal(err)
	}
	if got := acc.Result(); got.Float() != 0 {
		t.Fatalf("stddev of one value = %v", got)
	}
	// MIN/MAX over only NULLs is NULL.
	for _, fn := range []AggFunc{AggMin, AggMax, AggAvg, AggSum, AggStdDev} {
		acc := newAccumulator(fn)
		if err := acc.Add(value.Null); err != nil {
			t.Fatal(err)
		}
		if got := acc.Result(); !got.IsNull() {
			t.Fatalf("%s over NULLs = %v, want NULL", fn, got)
		}
	}
	// SUM over mixed int and float promotes to float.
	acc = newAccumulator(AggSum)
	if err := acc.Add(value.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	if err := acc.Add(value.NewFloat(2.5)); err != nil {
		t.Fatal(err)
	}
	if got := acc.Result(); got.Kind() != value.KindFloat || got.Float() != 3.5 {
		t.Fatalf("mixed SUM = %v", got)
	}
	// MIN over strings works (lexical).
	acc = newAccumulator(AggMin)
	for _, s := range []string{"jetta", "civic", "accord"} {
		if err := acc.Add(value.NewString(s)); err != nil {
			t.Fatal(err)
		}
	}
	if got := acc.Result(); got.Str() != "accord" {
		t.Fatalf("string MIN = %v", got)
	}
}

func TestTupleKeyOn(t *testing.T) {
	r := cars()
	idx, _ := r.ColumnIndexes([]string{"Model"})
	if r.TupleRows()[0].KeyOn(idx) != r.TupleRows()[1].KeyOn(idx) {
		t.Fatal("two Jettas must share the Model key")
	}
	if r.TupleRows()[0].KeyOn(idx) == r.TupleRows()[6].KeyOn(idx) {
		t.Fatal("Jetta and Civic must not share the Model key")
	}
}
