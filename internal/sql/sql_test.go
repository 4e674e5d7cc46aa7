package sql

import (
	"strings"
	"testing"

	"sheetmusiq/internal/dataset"
	"sheetmusiq/internal/obs"
	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

func db() *DB {
	d := NewDB()
	d.Register(dataset.UsedCars())
	dealers := relation.New("dealers", relation.Schema{
		{Name: "dealer", Kind: value.KindString},
		{Name: "specialty", Kind: value.KindString},
	})
	dealers.MustAppend(value.NewString("AnnArborAuto"), value.NewString("Jetta"))
	dealers.MustAppend(value.NewString("MotorCity"), value.NewString("Civic"))
	d.Register(dealers)
	return d
}

func q(t *testing.T, src string) *relation.Relation {
	t.Helper()
	r, err := db().Query(src)
	if err != nil {
		t.Fatalf("query %q: %v", src, err)
	}
	return r
}

func TestSelectStar(t *testing.T) {
	r := q(t, "SELECT * FROM cars")
	if r.Len() != 9 || len(r.Schema) != 6 {
		t.Fatalf("rows=%d cols=%d", r.Len(), len(r.Schema))
	}
	if r.Schema[0].Name != "ID" {
		t.Fatalf("star should keep base column names, got %v", r.Schema.Names())
	}
}

func TestWhereAndProjection(t *testing.T) {
	r := q(t, "SELECT Model, Price FROM cars WHERE Year = 2005 AND Price < 15000")
	if r.Len() != 2 {
		t.Fatalf("rows = %d, want 2", r.Len())
	}
	if got := strings.Join(r.Schema.Names(), ","); got != "Model,Price" {
		t.Fatalf("columns = %s", got)
	}
}

func TestExpressionsAndAliases(t *testing.T) {
	r := q(t, "SELECT Model, Price / 1000 AS kprice FROM cars WHERE ID = 304")
	if r.Len() != 1 {
		t.Fatal("want one row")
	}
	if r.Schema[1].Name != "kprice" {
		t.Fatalf("alias lost: %v", r.Schema.Names())
	}
	if got := r.TupleRows()[0][1].Float(); got != 14.5 {
		t.Fatalf("kprice = %v", got)
	}
}

func TestImplicitAlias(t *testing.T) {
	r := q(t, "SELECT Price p FROM cars WHERE ID = 304")
	if r.Schema[0].Name != "p" {
		t.Fatalf("implicit alias lost: %v", r.Schema.Names())
	}
	// An unaliased grouped item is named by its own spelling, not by the
	// lifted aggregate's placeholder.
	r = q(t, "SELECT Model, AVG(Price) FROM cars GROUP BY Model ORDER BY Model")
	if got := r.Schema.Names(); got[0] != "Model" || got[1] != "AVG(Price)" {
		t.Fatalf("grouped item names = %v, want [Model AVG(Price)]", got)
	}
}

func TestOrderByLimit(t *testing.T) {
	r := q(t, "SELECT ID, Price FROM cars ORDER BY Price DESC, ID ASC LIMIT 3")
	if r.Len() != 3 {
		t.Fatalf("rows = %d", r.Len())
	}
	want := []int64{725, 723, 423}
	for i, w := range want {
		if r.TupleRows()[i][0].Int() != w {
			t.Fatalf("row %d = %v, want %d", i, r.TupleRows()[i], w)
		}
	}
}

func TestOrderByOutputAlias(t *testing.T) {
	r := q(t, "SELECT ID, Price * 2 AS dbl FROM cars ORDER BY dbl LIMIT 1")
	if r.TupleRows()[0][0].Int() != 132 {
		t.Fatalf("cheapest car = %v", r.TupleRows()[0])
	}
}

func TestDistinct(t *testing.T) {
	for _, c := range []struct {
		src  string
		want int
	}{
		{"SELECT DISTINCT Model FROM cars", 2},
		// An ORDER BY key that is not an output column, over a grouped and
		// an ungrouped result that keep no row.
		{"SELECT DISTINCT Model FROM cars GROUP BY Model HAVING COUNT(*) > 100 ORDER BY MAX(Price)", 0},
		{"SELECT DISTINCT Model FROM cars WHERE Price < 0 ORDER BY Price", 0},
	} {
		if r := q(t, c.src); r.Len() != c.want {
			t.Fatalf("%s: %d rows, want %d", c.src, r.Len(), c.want)
		}
	}
}

func TestJoinHash(t *testing.T) {
	r := q(t, "SELECT c.ID, d.dealer FROM cars c JOIN dealers d ON c.Model = d.specialty ORDER BY c.ID")
	if r.Len() != 9 {
		t.Fatalf("join rows = %d", r.Len())
	}
	if r.TupleRows()[0][0].Int() != 132 || r.TupleRows()[0][1].Str() != "MotorCity" {
		t.Fatalf("first row = %v", r.TupleRows()[0])
	}
}

// TestJoinNullAndCrossKindKeys: `l JOIN r ON k = f` with an INT key k, a
// FLOAT key f and NULLs on both sides gives the hash path exactly the rows
// of the nested-loop path (the same ON made non-conjunctive), in the same
// order: INT 3 meets FLOAT 3.0, and a NULL key never matches. 3 and 300
// rows sit on either side of the size below which sources once stayed
// boxed.
func TestJoinNullAndCrossKindKeys(t *testing.T) {
	for _, n := range []int{3, 300} {
		l := relation.New("l", relation.Schema{{Name: "id", Kind: value.KindInt}, {Name: "k", Kind: value.KindInt}})
		r := relation.New("r", relation.Schema{{Name: "id", Kind: value.KindInt}, {Name: "f", Kind: value.KindFloat}})
		for i := 0; i < n; i++ {
			k, f := value.NewInt(int64(i%5)), value.NewFloat(float64(i%4))
			if i%7 == 1 {
				k = value.Null
			}
			if i%11 == 2 {
				f = value.Null
			}
			l.MustAppend(value.NewInt(int64(i)), k)
			r.MustAppend(value.NewInt(int64(i)), f)
		}
		d := NewDB()
		d.Register(l)
		d.Register(r)
		hash, err := d.Query("SELECT l.id, k, r.id, f FROM l JOIN r ON k = f")
		if err != nil {
			t.Fatal(err)
		}
		loop, err := d.Query("SELECT l.id, k, r.id, f FROM l JOIN r ON k = f OR 1 = 2")
		if err != nil {
			t.Fatal(err)
		}
		if hash.Len() == 0 || hash.String() != loop.String() {
			t.Fatalf("n=%d: hash join (%d rows) != nested loop (%d rows)", n, hash.Len(), loop.Len())
		}
		for _, row := range hash.TupleRows() {
			if row[1].IsNull() || row[3].IsNull() || float64(row[1].Int()) != row[3].Float() {
				t.Fatalf("n=%d: joined row %v has a NULL or unequal key", n, row)
			}
		}
	}
}

func TestJoinTheta(t *testing.T) {
	// Non-equality condition exercises the nested-loop path.
	r := q(t, "SELECT a.ID, b.ID FROM cars a JOIN cars b ON a.Price < b.Price AND a.Model = 'Civic' WHERE b.Model = 'Civic'")
	// Civic prices 13500 < 15000 < 16000: 3 ordered pairs.
	if r.Len() != 3 {
		t.Fatalf("theta join rows = %d, want 3", r.Len())
	}
}

func TestCrossJoin(t *testing.T) {
	r := q(t, "SELECT * FROM cars CROSS JOIN dealers")
	if r.Len() != 18 {
		t.Fatalf("cross join rows = %d", r.Len())
	}
	r = q(t, "SELECT * FROM cars, dealers")
	if r.Len() != 18 {
		t.Fatalf("comma join rows = %d", r.Len())
	}
}

func TestSelfJoinNeedsAliases(t *testing.T) {
	if _, err := db().Query("SELECT * FROM cars JOIN cars ON ID = ID"); err == nil {
		t.Fatal("self join without aliases must fail")
	}
}

// TestJoinOnResolvesNamesOneWay: ON's keys and its filter resolve names by
// one rule over the joined sources, so a bare name both sides carry is as
// ambiguous in a key conjunct as in the filter, and both queries fail with
// the filter's error; qualified names still key the hash join.
func TestJoinOnResolvesNamesOneWay(t *testing.T) {
	var errs []string
	for _, src := range []string{
		"SELECT a.ID FROM cars a JOIN cars b ON ID = ID",
		"SELECT a.ID FROM cars a JOIN cars b ON ID = ID AND a.Price > 0",
	} {
		r, err := db().Query(src)
		if err == nil {
			t.Fatalf("%s: the bare ID names a column of either side, yet the join gave %d rows", src, r.Len())
		}
		errs = append(errs, err.Error())
	}
	if errs[0] != errs[1] || !strings.Contains(errs[0], `"ID"`) {
		t.Fatalf("the two ON clauses fail differently: %q, %q", errs[0], errs[1])
	}
	hashBefore := obs.Default.CounterValue("relation.join.hash")
	if r := q(t, "SELECT a.ID FROM cars a JOIN cars b ON a.ID = b.ID"); r.Len() != 9 {
		t.Fatalf("ON a.ID = b.ID: %d rows, want 9", r.Len())
	}
	if obs.Default.CounterValue("relation.join.hash") <= hashBefore {
		t.Fatal("ON a.ID = b.ID must key the hash join")
	}
}

// TestJoinOnRefusesSubqueries: a join has no statement scope to run a
// subquery in, so an ON that nests one is refused before joining, whatever
// the sides hold — an empty side included, where no pair would reach it.
func TestJoinOnRefusesSubqueries(t *testing.T) {
	for _, src := range []string{
		"SELECT a.ID FROM cars a JOIN cars b ON a.Price > (SELECT 1 FROM cars LIMIT 1)",
		"SELECT a.ID FROM cars a JOIN (SELECT * FROM cars WHERE ID < 0) b ON a.Price > (SELECT 1 FROM cars LIMIT 1)",
	} {
		if _, err := db().Query(src); err == nil || err.Error() != "sql: subqueries are not supported in this context" {
			t.Fatalf("%s: err = %v, want the refusal of subqueries in this context", src, err)
		}
	}
}

func TestGroupByAggregate(t *testing.T) {
	r := q(t, "SELECT Model, AVG(Price) AS avg_price, COUNT(*) AS n FROM cars GROUP BY Model ORDER BY Model")
	if r.Len() != 2 {
		t.Fatalf("groups = %d", r.Len())
	}
	// Civic first (ordered).
	if r.TupleRows()[0][0].Str() != "Civic" || r.TupleRows()[0][2].Int() != 3 {
		t.Fatalf("civic row = %v", r.TupleRows()[0])
	}
	wantCivic := (13500.0 + 15000 + 16000) / 3
	if r.TupleRows()[0][1].Float() != wantCivic {
		t.Fatalf("civic avg = %v, want %v", r.TupleRows()[0][1], wantCivic)
	}
}

func TestGroupByMultipleKeys(t *testing.T) {
	r := q(t, "SELECT Model, Year, MIN(Price) AS lo FROM cars GROUP BY Model, Year ORDER BY Model, Year")
	if r.Len() != 4 {
		t.Fatalf("groups = %d, want 4", r.Len())
	}
	if r.TupleRows()[0][0].Str() != "Civic" || r.TupleRows()[0][1].Int() != 2005 || r.TupleRows()[0][2].Int() != 13500 {
		t.Fatalf("first group = %v", r.TupleRows()[0])
	}
}

func TestHaving(t *testing.T) {
	r := q(t, "SELECT Model, AVG(Price) AS ap FROM cars GROUP BY Model HAVING AVG(Price) > 15500 ORDER BY Model")
	if r.Len() != 1 || r.TupleRows()[0][0].Str() != "Jetta" {
		t.Fatalf("having result = %v", r.TupleRows())
	}
}

func TestAggregateOverExpression(t *testing.T) {
	r := q(t, "SELECT SUM(Price * 2) AS s FROM cars WHERE Model = 'Civic'")
	if r.TupleRows()[0][0].Int() != 2*(13500+15000+16000) {
		t.Fatalf("sum = %v", r.TupleRows()[0][0])
	}
}

func TestExpressionOverAggregates(t *testing.T) {
	r := q(t, "SELECT SUM(Price) / COUNT(*) AS manual_avg, AVG(Price) AS built_in FROM cars")
	if r.TupleRows()[0][0].Float() != r.TupleRows()[0][1].Float() {
		t.Fatalf("manual %v != builtin %v", r.TupleRows()[0][0], r.TupleRows()[0][1])
	}
}

func TestCountVariants(t *testing.T) {
	r := q(t, "SELECT COUNT(*) AS all_rows, COUNT(Model) AS models, COUNT(DISTINCT Model) AS uniq FROM cars")
	if r.TupleRows()[0][0].Int() != 9 || r.TupleRows()[0][1].Int() != 9 || r.TupleRows()[0][2].Int() != 2 {
		t.Fatalf("counts = %v", r.TupleRows()[0])
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	r := q(t, "SELECT COUNT(*) AS n, SUM(Price) AS s FROM cars WHERE Price > 99999")
	if r.Len() != 1 || r.TupleRows()[0][0].Int() != 0 || !r.TupleRows()[0][1].IsNull() {
		t.Fatalf("empty aggregate = %v", r.TupleRows())
	}
	// Grouped, the empty input has no group, so no row.
	r = q(t, "SELECT Model, COUNT(*) AS n FROM cars WHERE Price > 99999 GROUP BY Model ORDER BY n")
	if r.Len() != 0 {
		t.Fatalf("empty grouped aggregate = %v", r.TupleRows())
	}
}

// TestStdDevSquareRoot: STDDEV of {0, 2e12} is exactly 1e12 (a variance of
// 1e24, whose square root math.Sqrt rounds correctly).
func TestStdDevSquareRoot(t *testing.T) {
	rel := relation.New("t", relation.Schema{{Name: "x", Kind: value.KindFloat}})
	rel.MustAppend(value.NewFloat(0))
	rel.MustAppend(value.NewFloat(2e12))
	d := NewDB()
	d.Register(rel)
	r, err := d.Query("SELECT STDDEV(x) AS sd FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.TupleRows()[0][0]; got.Float() != 1e12 {
		t.Fatalf("STDDEV = %v, want 1e12", got)
	}
}

func TestGroupByExpression(t *testing.T) {
	r := q(t, "SELECT Year % 2 AS parity, COUNT(*) AS n FROM cars GROUP BY Year % 2 ORDER BY parity")
	if r.Len() != 2 {
		t.Fatalf("parity groups = %d", r.Len())
	}
	if r.TupleRows()[0][0].Int() != 0 || r.TupleRows()[0][1].Int() != 5 {
		t.Fatalf("even-year group = %v, want [0 5] (five 2006 cars)", r.TupleRows()[0])
	}
}

func TestSubqueryInFrom(t *testing.T) {
	r := q(t, `SELECT m, n FROM (SELECT Model AS m, COUNT(*) AS n FROM cars GROUP BY Model) AS g WHERE n > 4`)
	if r.Len() != 1 || r.TupleRows()[0][0].Str() != "Jetta" {
		t.Fatalf("subquery result = %v", r.TupleRows())
	}
}

func TestNestedSubqueryJoin(t *testing.T) {
	r := q(t, `SELECT c.ID FROM cars c JOIN (SELECT Model AS m, AVG(Price) AS ap FROM cars GROUP BY Model) AS g ON c.Model = g.m WHERE c.Price < g.ap ORDER BY c.ID`)
	// Cars cheaper than their model average: Jetta avg 16333.33 → 304, 872,
	// 901; Civic avg 14833.33 → 132.
	want := []int64{132, 304, 872, 901}
	if r.Len() != len(want) {
		t.Fatalf("rows = %d: %v", r.Len(), r.TupleRows())
	}
	for i, w := range want {
		if r.TupleRows()[i][0].Int() != w {
			t.Fatalf("row %d = %v, want %d", i, r.TupleRows()[i], w)
		}
	}
}

func TestOrderByAggregate(t *testing.T) {
	r := q(t, "SELECT Model FROM cars GROUP BY Model ORDER BY SUM(Price) DESC")
	if r.TupleRows()[0][0].Str() != "Jetta" {
		t.Fatalf("order by aggregate = %v", r.TupleRows())
	}
}

func TestErrors(t *testing.T) {
	cases := []string{
		"SELECT",                // no items
		"SELECT FROM cars",      // empty list
		"SELECT * FROM nope",    // unknown table
		"SELECT nope FROM cars", // unknown column
		"SELECT Price FROM cars WHERE SUM(Price) > 1",            // aggregate in WHERE
		"SELECT Price FROM cars GROUP BY Model",                  // non-grouped column
		"SELECT * FROM cars GROUP BY Model",                      // star with grouping
		"SELECT Model FROM cars HAVING Price > 1 GROUP BY Model", // clause order
		"SELECT SUM(SUM(Price)) FROM cars",                       // nested aggregates
		"SELECT Model FROM cars LIMIT x",                         // bad limit
		"SELECT a.x FROM (SELECT 1 AS x FROM cars)",              // subquery missing alias
		"SELECT SUM(*) FROM cars",                                // * outside COUNT
		"SELECT Model FROM cars ORDER BY",                        // dangling order by
	}
	d := db()
	for _, src := range cases {
		if _, err := d.Query(src); err == nil {
			t.Errorf("Query(%q) should fail", src)
		}
	}
}

func TestSQLRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT * FROM cars",
		"SELECT Model, Price FROM cars WHERE Year = 2005 AND Price < 15000",
		"SELECT Model, AVG(Price) AS ap FROM cars GROUP BY Model HAVING AVG(Price) > 15500 ORDER BY ap DESC LIMIT 5",
		"SELECT DISTINCT Model FROM cars ORDER BY Model",
		"SELECT c.ID FROM cars AS c JOIN dealers AS d ON c.Model = d.specialty WHERE d.dealer LIKE 'Ann%' ORDER BY c.ID",
		"SELECT m, n FROM (SELECT Model AS m, COUNT(*) AS n FROM cars GROUP BY Model) AS g WHERE n > 4",
		"SELECT * FROM cars CROSS JOIN dealers",
	}
	d := db()
	for _, src := range queries {
		stmt, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		stmt2, err := Parse(stmt.SQL())
		if err != nil {
			t.Fatalf("reparse of %q -> %q: %v", src, stmt.SQL(), err)
		}
		r1, err := d.Exec(stmt)
		if err != nil {
			t.Fatalf("exec %q: %v", src, err)
		}
		r2, err := d.Exec(stmt2)
		if err != nil {
			t.Fatalf("exec reparsed %q: %v", stmt.SQL(), err)
		}
		if r1.String() != r2.String() {
			t.Fatalf("round trip diverged for %q", src)
		}
	}
}

func TestAgainstRelationalBaseline(t *testing.T) {
	// The executor must agree with the direct relational operators.
	d := db()
	got := q(t, "SELECT Model, AVG(Price) AS a FROM cars WHERE Year = 2006 GROUP BY Model ORDER BY Model")
	cars, _ := d.Table("cars")
	yi := cars.Schema.IndexOf("Year")
	filtered, err := cars.Select(func(tp relation.Tuple) (bool, error) {
		return tp[yi].Int() == 2006, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := filtered.Aggregate([]string{"Model"}, relation.AggAvg, "Price")
	if err != nil {
		t.Fatal(err)
	}
	if err := want.Sort([]relation.SortKey{{Column: "Model"}}); err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("rows %d vs %d", got.Len(), want.Len())
	}
	for i := range got.TupleRows() {
		if got.TupleRows()[i][0].Str() != want.TupleRows()[i][0].Str() ||
			got.TupleRows()[i][1].Float() != want.TupleRows()[i][1].Float() {
			t.Fatalf("row %d: %v vs %v", i, got.TupleRows()[i], want.TupleRows()[i])
		}
	}
}

func TestScalarFunctionsInSQL(t *testing.T) {
	r := q(t, "SELECT UPPER(Model) AS m FROM cars WHERE ID = 304")
	if r.TupleRows()[0][0].Str() != "JETTA" {
		t.Fatalf("UPPER = %v", r.TupleRows()[0][0])
	}
}

func TestQualifiedStarColumns(t *testing.T) {
	r := q(t, "SELECT c.Model FROM cars c WHERE c.Price = 13500")
	if r.Len() != 1 || r.TupleRows()[0][0].Str() != "Civic" {
		t.Fatalf("qualified ref = %v", r.TupleRows())
	}
	if r.Schema[0].Name != "Model" {
		t.Fatalf("output name should drop qualifier: %v", r.Schema.Names())
	}
}

func TestLimitOffset(t *testing.T) {
	r := q(t, "SELECT ID FROM cars ORDER BY Price LIMIT 3 OFFSET 2")
	// Price order: 132, 304, 872/879(15000, tie by input order 872 first),
	// ... offset 2 skips 132 and 304.
	if r.Len() != 3 {
		t.Fatalf("rows = %d", r.Len())
	}
	if r.TupleRows()[0][0].Int() != 872 {
		t.Fatalf("first row after offset = %v", r.TupleRows()[0])
	}
	// Offset beyond the result is empty, not an error.
	r = q(t, "SELECT ID FROM cars LIMIT 5 OFFSET 100")
	if r.Len() != 0 {
		t.Fatalf("oversized offset rows = %d", r.Len())
	}
	if _, err := db().Query("SELECT ID FROM cars OFFSET x"); err == nil {
		t.Fatal("bad OFFSET must error")
	}
	// SQL rendering round-trips the clause.
	stmt := MustParse("SELECT ID FROM cars ORDER BY ID LIMIT 2 OFFSET 4")
	if _, err := Parse(stmt.SQL()); err != nil {
		t.Fatalf("OFFSET rendering does not reparse: %v", err)
	}
}
