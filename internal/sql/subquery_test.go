package sql

import (
	"strings"
	"testing"

	"sheetmusiq/internal/expr"
	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

func TestScalarSubquery(t *testing.T) {
	r := q(t, "SELECT ID FROM cars WHERE Price = (SELECT MIN(Price) FROM cars)")
	if r.Len() != 1 || r.TupleRows()[0][0].Int() != 132 {
		t.Fatalf("cheapest car = %v", r.TupleRows())
	}
}

func TestScalarSubqueryInSelectList(t *testing.T) {
	r := q(t, "SELECT ID, Price - (SELECT AVG(Price) FROM cars) AS dev FROM cars WHERE ID = 304")
	if r.Len() != 1 {
		t.Fatal("want one row")
	}
	wantAvg := (14500.0 + 15000 + 16000 + 17000 + 17500 + 18000 + 13500 + 15000 + 16000) / 9
	if got := r.TupleRows()[0][1].Float(); got != 14500-wantAvg {
		t.Fatalf("dev = %v, want %v", got, 14500-wantAvg)
	}
}

func TestInSubquery(t *testing.T) {
	r := q(t, "SELECT ID FROM cars WHERE Model IN (SELECT specialty FROM dealers WHERE dealer LIKE 'Ann%') ORDER BY ID")
	// AnnArborAuto specialises in Jettas: 6 rows.
	if r.Len() != 6 {
		t.Fatalf("rows = %d, want 6 Jettas", r.Len())
	}
}

func TestNotInSubquery(t *testing.T) {
	r := q(t, "SELECT ID FROM cars WHERE Model NOT IN (SELECT specialty FROM dealers WHERE dealer LIKE 'Ann%')")
	if r.Len() != 3 {
		t.Fatalf("rows = %d, want 3 Civics", r.Len())
	}
}

func TestExistsCorrelated(t *testing.T) {
	// Cars for which a cheaper car of the same model exists.
	r := q(t, "SELECT c.ID FROM cars c WHERE EXISTS "+
		"(SELECT b.ID FROM cars b WHERE b.Model = c.Model AND b.Price < c.Price) ORDER BY c.ID")
	// Everything except the cheapest per model (304 for Jetta, 132 Civic).
	if r.Len() != 7 {
		t.Fatalf("rows = %d, want 7: %v", r.Len(), r.TupleRows())
	}
	for _, row := range r.TupleRows() {
		if id := row[0].Int(); id == 304 || id == 132 {
			t.Fatalf("model-cheapest car %d should not qualify", id)
		}
	}
}

func TestNotExistsCorrelated(t *testing.T) {
	// The classic Q4-style shape: the cheapest car per model.
	r := q(t, "SELECT c.ID FROM cars c WHERE NOT EXISTS "+
		"(SELECT b.ID FROM cars b WHERE b.Model = c.Model AND b.Price < c.Price) ORDER BY c.ID")
	if r.Len() != 2 || r.TupleRows()[0][0].Int() != 132 || r.TupleRows()[1][0].Int() != 304 {
		t.Fatalf("cheapest per model = %v", r.TupleRows())
	}
}

func TestCorrelatedScalarSubquery(t *testing.T) {
	// Cars cheaper than their model's average — the Fig. 2 query in pure
	// nested SQL (the formulation the paper says needs "a join between two
	// copies of the base table" or nesting).
	r := q(t, "SELECT c.ID FROM cars c WHERE c.Price < "+
		"(SELECT AVG(b.Price) FROM cars b WHERE b.Model = c.Model) ORDER BY c.ID")
	want := []int64{132, 304, 872, 901}
	if r.Len() != len(want) {
		t.Fatalf("rows = %v", r.TupleRows())
	}
	for i, w := range want {
		if r.TupleRows()[i][0].Int() != w {
			t.Fatalf("row %d = %v, want %d", i, r.TupleRows()[i], w)
		}
	}
}

func TestSubqueryInHaving(t *testing.T) {
	r := q(t, "SELECT Model FROM cars GROUP BY Model "+
		"HAVING AVG(Price) > (SELECT AVG(Price) FROM cars) ORDER BY Model")
	if r.Len() != 1 || r.TupleRows()[0][0].Str() != "Jetta" {
		t.Fatalf("above-average models = %v", r.TupleRows())
	}
}

func TestScalarSubqueryErrors(t *testing.T) {
	d := db()
	if _, err := d.Query("SELECT ID FROM cars WHERE Price = (SELECT Price FROM cars)"); err == nil {
		t.Error("multi-row scalar subquery must error")
	}
	if _, err := d.Query("SELECT ID FROM cars WHERE Price = (SELECT ID, Price FROM cars)"); err == nil {
		t.Error("multi-column scalar subquery must error")
	}
	if _, err := d.Query("SELECT ID FROM cars WHERE Model IN (SELECT ID, Model FROM cars)"); err == nil {
		t.Error("multi-column IN subquery must error")
	}
}

func TestEmptyScalarSubqueryIsNull(t *testing.T) {
	// WHERE Price = NULL keeps nothing.
	r := q(t, "SELECT ID FROM cars WHERE Price = (SELECT Price FROM cars WHERE ID = 999999)")
	if r.Len() != 0 {
		t.Fatalf("rows = %d, want 0", r.Len())
	}
}

func TestSubquerySQLRoundTrip(t *testing.T) {
	src := "SELECT c.ID FROM cars AS c WHERE EXISTS (SELECT b.ID FROM cars AS b WHERE b.Model = c.Model AND b.Price < c.Price)"
	stmt, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rendered := stmt.SQL()
	if !strings.Contains(rendered, "EXISTS") {
		t.Fatalf("rendering lost EXISTS: %s", rendered)
	}
	stmt2, err := Parse(rendered)
	if err != nil {
		t.Fatalf("reparse %q: %v", rendered, err)
	}
	d := db()
	r1, err := d.Exec(stmt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d.Exec(stmt2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.String() != r2.String() {
		t.Fatal("subquery round trip diverged")
	}
}

func TestAlgebraContextRejectsSubqueries(t *testing.T) {
	// Plain expression parsing (what the spreadsheet algebra uses) has no
	// SubParser, so nesting is rejected — the paper's SheetMusiq boundary.
	if _, err := expr.Parse("Price < (SELECT AVG(Price) FROM cars)"); err == nil {
		t.Fatal("bare expression context must reject subqueries")
	}
	if _, err := expr.Parse("EXISTS (SELECT 1 FROM cars)"); err == nil {
		t.Fatal("bare expression context must reject EXISTS")
	}
}

func TestSubqueryCache(t *testing.T) {
	d := db()
	// Uncorrelated: the scalar subquery must execute exactly once even
	// though nine outer rows evaluate it.
	if _, err := d.Query("SELECT ID FROM cars WHERE Price > (SELECT AVG(Price) FROM cars)"); err != nil {
		t.Fatal(err)
	}
	if got := d.SubqueryRuns(); got != 1 {
		t.Fatalf("uncorrelated subquery ran %d times, want 1", got)
	}
	// Correlated on Model: once per distinct model (2), not per row (9).
	d2 := db()
	if _, err := d2.Query("SELECT c.ID FROM cars c WHERE c.Price < (SELECT AVG(b.Price) FROM cars b WHERE b.Model = c.Model)"); err != nil {
		t.Fatal(err)
	}
	if got := d2.SubqueryRuns(); got != 2 {
		t.Fatalf("model-correlated subquery ran %d times, want 2", got)
	}
}

// membershipDB is the test database plus t(k, x), whose x column holds a
// NULL: the inner and outer sides of the membership edge cases.
func membershipDB() *DB {
	d := db()
	t := relation.New("t", relation.Schema{
		{Name: "k", Kind: value.KindInt},
		{Name: "x", Kind: value.KindInt},
	})
	t.MustAppend(value.NewInt(1), value.NewInt(2005))
	t.MustAppend(value.NewInt(2), value.Null)
	t.MustAppend(value.NewInt(3), value.NewInt(30))
	d.Register(t)
	return d
}

func TestNotInOverNullInnerKeepsNoRow(t *testing.T) {
	// Every Year is either 2005 (in the set) or unequal to 2005 and 30 with
	// a NULL left to compare: false or unknown, never true.
	r, err := membershipDB().Query("SELECT ID FROM cars WHERE Year NOT IN (SELECT x FROM t)")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("NOT IN over a column holding NULL kept %v", r.TupleRows())
	}
}

func TestInOverEmptyInner(t *testing.T) {
	d := membershipDB()
	in, err := d.Query("SELECT k FROM t WHERE x IN (SELECT ID FROM cars WHERE Price < 0)")
	if err != nil {
		t.Fatal(err)
	}
	if in.Len() != 0 {
		t.Fatalf("IN over an empty result kept %v", in.TupleRows())
	}
	// NOT IN over an empty set is true for every row, a NULL x included.
	notIn, err := d.Query("SELECT k FROM t WHERE x NOT IN (SELECT ID FROM cars WHERE Price < 0) ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	if notIn.Len() != 3 {
		t.Fatalf("NOT IN over an empty result kept %v, want every row", notIn.TupleRows())
	}
}

func TestSubqueryOverGroupedOrderedInner(t *testing.T) {
	// The model with the most cars is Jetta (6 of 9).
	r := q(t, "SELECT ID FROM cars WHERE Model IN "+
		"(SELECT Model FROM cars GROUP BY Model ORDER BY COUNT(*) DESC LIMIT 1) ORDER BY ID")
	want := []int64{304, 423, 723, 725, 872, 901}
	if r.Len() != len(want) {
		t.Fatalf("IN over a grouped, ordered subquery = %v", r.TupleRows())
	}
	for i, row := range r.TupleRows() {
		if row[0].Int() != want[i] {
			t.Fatalf("row %d = %v, want %d", i, row, want[i])
		}
	}
	// The lowest per-model maximum price is the Civics' 16000.
	r = q(t, "SELECT ID FROM cars WHERE Price = "+
		"(SELECT MAX(Price) AS m FROM cars GROUP BY Model ORDER BY m LIMIT 1) ORDER BY ID")
	if r.Len() != 2 || r.TupleRows()[0][0].Int() != 322 || r.TupleRows()[1][0].Int() != 901 {
		t.Fatalf("scalar subquery over a grouped, ordered subquery = %v", r.TupleRows())
	}
}
