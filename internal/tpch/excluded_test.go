package tpch

import (
	"testing"

	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

// TestExcludedQueriesRun: every nested query the study excluded runs on the
// SQL substrate (which is exactly the boundary the paper draws: the algebra
// cannot express them, the backend can).
func TestExcludedQueriesRun(t *testing.T) {
	db := setup(t)
	for _, eq := range ExcludedQueries() {
		eq := eq
		t.Run(eq.Name, func(t *testing.T) {
			if _, err := db.Query(eq.SQL); err != nil {
				t.Fatalf("%s (%s): %v", eq.TpchQuery, eq.Why, err)
			}
		})
	}
}

func TestExcludedQ4AgainstManualCheck(t *testing.T) {
	// Verify the EXISTS semantics by recomputing Q4's order_count totals
	// directly over the base tables.
	db := setup(t)
	got, err := db.Query(ExcludedQueries()[0].SQL)
	if err != nil {
		t.Fatal(err)
	}
	orders, _ := db.Table("orders")
	lineitem, _ := db.Table("lineitem")
	late := map[int64]bool{}
	lo := lineitem.Schema.IndexOf("l_orderkey")
	lc := lineitem.Schema.IndexOf("l_commitdate")
	lr := lineitem.Schema.IndexOf("l_receiptdate")
	for _, row := range lineitem.TupleRows() {
		if row[lc].DateDays() < row[lr].DateDays() {
			late[row[lo].Int()] = true
		}
	}
	oo := orders.Schema.IndexOf("o_orderkey")
	od := orders.Schema.IndexOf("o_orderdate")
	op := orders.Schema.IndexOf("o_orderpriority")
	lo93 := value.NewDate(1993, 7, 1).DateDays()
	hi93 := value.NewDate(1993, 10, 1).DateDays()
	want := map[string]int64{}
	for _, row := range orders.TupleRows() {
		d := row[od].DateDays()
		if d >= lo93 && d < hi93 && late[row[oo].Int()] {
			want[row[op].Str()]++
		}
	}
	total := int64(0)
	for _, row := range got.TupleRows() {
		pr := row[0].Str()
		if row[1].Int() != want[pr] {
			t.Fatalf("priority %s count = %v, want %d", pr, row[1], want[pr])
		}
		total += row[1].Int()
	}
	if total == 0 {
		t.Fatal("Q4 returned no qualifying orders at the default scale")
	}
}

func TestExcludedQ18AgreesWithFlattenedTask(t *testing.T) {
	// The study's flattened Q18′ and the original nested Q18 must agree on
	// which orders exceed the quantity threshold.
	db := setup(t)
	nested, err := db.Query(ExcludedQueries()[3].SQL)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := db.Query(Tasks()[9].Query)
	if err != nil {
		t.Fatal(err)
	}
	keyOf := func(r *relation.Relation, row relation.Tuple) string {
		return row[r.Schema.IndexOf("o_orderkey")].Key()
	}
	flatKeys := map[string]bool{}
	for _, row := range flat.TupleRows() {
		flatKeys[keyOf(flat, row)] = true
	}
	// The original query carries TPC-H's LIMIT 100; every order it returns
	// must qualify in the flattened version, and when it returns fewer than
	// the limit the sets must coincide.
	for _, row := range nested.TupleRows() {
		if !flatKeys[keyOf(nested, row)] {
			t.Fatalf("nested order %v missing from the flattened result", row)
		}
	}
	if nested.Len() < 100 && nested.Len() != flat.Len() {
		t.Fatalf("nested %d orders vs flattened %d", nested.Len(), flat.Len())
	}
}

func TestExcludedQ11AgainstManualThreshold(t *testing.T) {
	// The scalar-subquery threshold equals 5% of Germany's total stock
	// value; check one representative row survives it.
	db := setup(t)
	rows, err := db.Query(ExcludedQueries()[1].SQL)
	if err != nil {
		t.Fatal(err)
	}
	totalRel, err := db.Query("SELECT SUM(ps_supplycost * ps_availqty) AS t FROM partsupp " +
		"JOIN supplier ON ps_suppkey = s_suppkey JOIN nation ON s_nationkey = n_nationkey WHERE n_name = 'GERMANY'")
	if err != nil {
		t.Fatal(err)
	}
	threshold := totalRel.TupleRows()[0][0].Float() * 0.05
	for _, row := range rows.TupleRows() {
		if row[1].Float() <= threshold {
			t.Fatalf("row %v under the threshold %v", row, threshold)
		}
	}
}
