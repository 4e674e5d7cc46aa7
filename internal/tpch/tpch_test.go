package tpch

import (
	"testing"

	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/sql"
	"sheetmusiq/internal/value"
)

var (
	testTables *Tables
	testDB     *sql.DB
)

func setup(t *testing.T) *sql.DB {
	t.Helper()
	if testDB == nil {
		testTables = Generate(DefaultConfig())
		testDB = BuildDB(testTables)
		if err := BuildViews(testDB); err != nil {
			t.Fatal(err)
		}
	}
	return testDB
}

// TestGenerateBuildsTypedColumns: every generated table appends into typed
// columns of its schema kinds; none is a Boxed column.
func TestGenerateBuildsTypedColumns(t *testing.T) {
	for _, r := range Generate(DefaultConfig()).All() {
		for j, c := range r.Columns() {
			if c.Boxed != nil || c.Kind != r.Schema[j].Kind {
				t.Errorf("%s.%s: kind %v, boxed %v; want typed %v",
					r.Name, r.Schema[j].Name, c.Kind, c.Boxed != nil, r.Schema[j].Kind)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{ScaleFactor: 0.001, Seed: 7})
	b := Generate(Config{ScaleFactor: 0.001, Seed: 7})
	if a.LineItem.Len() != b.LineItem.Len() {
		t.Fatal("generation is not deterministic in cardinality")
	}
	al, bl := a.LineItem.TupleRows(), b.LineItem.TupleRows()
	for i := range al {
		if al[i].Key() != bl[i].Key() {
			t.Fatalf("row %d differs between identical seeds", i)
		}
	}
	c := Generate(Config{ScaleFactor: 0.001, Seed: 8})
	if c.Orders.TupleRows()[0].Key() == a.Orders.TupleRows()[0].Key() {
		t.Error("different seeds should differ")
	}
}

func TestGenerateCardinalities(t *testing.T) {
	tb := Generate(Config{ScaleFactor: 0.001, Seed: 1})
	if tb.Region.Len() != 5 || tb.Nation.Len() != 25 {
		t.Fatalf("region/nation = %d/%d", tb.Region.Len(), tb.Nation.Len())
	}
	if tb.Supplier.Len() != 10 || tb.Customer.Len() != 150 {
		t.Fatalf("supplier/customer = %d/%d", tb.Supplier.Len(), tb.Customer.Len())
	}
	if tb.Orders.Len() != 1500 {
		t.Fatalf("orders = %d", tb.Orders.Len())
	}
	if tb.LineItem.Len() < tb.Orders.Len() || tb.LineItem.Len() > 7*tb.Orders.Len() {
		t.Fatalf("lineitem = %d for %d orders", tb.LineItem.Len(), tb.Orders.Len())
	}
	if tb.PartSupp.Len() != 4*tb.Part.Len() {
		t.Fatalf("partsupp = %d for %d parts", tb.PartSupp.Len(), tb.Part.Len())
	}
}

func TestReferentialIntegrity(t *testing.T) {
	tb := Generate(Config{ScaleFactor: 0.001, Seed: 1})
	keys := func(r *relation.Relation, col string) map[string]bool {
		i := r.Schema.IndexOf(col)
		out := map[string]bool{}
		for _, row := range r.TupleRows() {
			out[row[i].Key()] = true
		}
		return out
	}
	custKeys := keys(tb.Customer, "c_custkey")
	oc := tb.Orders.Schema.IndexOf("o_custkey")
	for _, row := range tb.Orders.TupleRows() {
		if !custKeys[row[oc].Key()] {
			t.Fatalf("order references missing customer %v", row[oc])
		}
	}
	orderKeys := keys(tb.Orders, "o_orderkey")
	lo := tb.LineItem.Schema.IndexOf("l_orderkey")
	for _, row := range tb.LineItem.TupleRows() {
		if !orderKeys[row[lo].Key()] {
			t.Fatalf("lineitem references missing order %v", row[lo])
		}
	}
	nationKeys := keys(tb.Nation, "n_nationkey")
	sn := tb.Supplier.Schema.IndexOf("s_nationkey")
	for _, row := range tb.Supplier.TupleRows() {
		if !nationKeys[row[sn].Key()] {
			t.Fatalf("supplier references missing nation %v", row[sn])
		}
	}
}

func TestDateRanges(t *testing.T) {
	tb := Generate(Config{ScaleFactor: 0.001, Seed: 1})
	oi := tb.Orders.Schema.IndexOf("o_orderdate")
	for _, row := range tb.Orders.TupleRows() {
		d := row[oi].DateDays()
		if d < startDate || d > endDate {
			t.Fatalf("order date %v out of the 1992-1998 window", row[oi])
		}
	}
	si := tb.LineItem.Schema.IndexOf("l_shipdate")
	ri := tb.LineItem.Schema.IndexOf("l_receiptdate")
	for _, row := range tb.LineItem.TupleRows() {
		if row[ri].DateDays() < row[si].DateDays() {
			t.Fatal("receipt before ship date")
		}
	}
}

func TestViewsBuild(t *testing.T) {
	db := setup(t)
	for _, task := range Tasks() {
		v, ok := db.Table(task.ViewName)
		if !ok {
			t.Fatalf("task %d view %q missing", task.ID, task.ViewName)
		}
		if v.Len() == 0 {
			t.Fatalf("task %d view %q is empty", task.ID, task.ViewName)
		}
	}
}

func TestTenTasks(t *testing.T) {
	if len(Tasks()) != 10 {
		t.Fatalf("the study used 10 queries, got %d", len(Tasks()))
	}
	seen := map[string]bool{}
	for _, task := range Tasks() {
		if task.Query == "" || task.Description == "" || len(task.Steps) == 0 {
			t.Fatalf("task %d incomplete", task.ID)
		}
		if seen[task.TpchQuery] {
			t.Fatalf("duplicate source query %s", task.TpchQuery)
		}
		seen[task.TpchQuery] = true
	}
}

// collapse reduces an evaluated algebra sheet to one row per finest group
// over the given columns, sorted by the group columns.
func collapse(t *testing.T, table *relation.Relation, cols []string) *relation.Relation {
	t.Helper()
	proj, err := table.Project(cols)
	if err != nil {
		t.Fatal(err)
	}
	out := proj.Distinct()
	var keys []relation.SortKey
	for _, c := range cols {
		keys = append(keys, relation.SortKey{Column: c})
	}
	if err := out.Sort(keys); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTasksAlgebraMatchesSQL runs every task twice — once as the SheetMusiq
// algebra program, once as the reference SQL — and requires identical
// group/aggregate values.
func TestTasksAlgebraMatchesSQL(t *testing.T) {
	db := setup(t)
	for _, task := range Tasks() {
		task := task
		t.Run(task.Name, func(t *testing.T) {
			sheet, err := task.Run(db)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sheet.Evaluate()
			if err != nil {
				t.Fatal(err)
			}
			var algebraCols []string
			algebraCols = append(algebraCols, task.GroupCols...)
			for _, st := range task.Steps {
				if st.Kind == StepAggregate {
					algebraCols = append(algebraCols, st.As)
				}
			}
			got := collapse(t, res.Table, algebraCols)

			want, err := db.Query(task.Query)
			if err != nil {
				t.Fatalf("reference SQL: %v", err)
			}
			wantSorted := want.Clone()
			var keys []relation.SortKey
			for i := range task.GroupCols {
				keys = append(keys, relation.SortKey{Column: want.Schema[i].Name})
			}
			if len(keys) > 0 {
				if err := wantSorted.Sort(keys); err != nil {
					t.Fatal(err)
				}
			}
			if got.Len() != wantSorted.Len() {
				t.Fatalf("algebra %d rows vs SQL %d rows\nalgebra:\n%s\nsql:\n%s",
					got.Len(), wantSorted.Len(), got.String(), wantSorted.String())
			}
			for i := range got.TupleRows() {
				for j := range got.TupleRows()[i] {
					if !value.Equal(got.TupleRows()[i][j], wantSorted.TupleRows()[i][j]) {
						t.Fatalf("row %d col %d: algebra %v vs SQL %v", i, j,
							got.TupleRows()[i][j], wantSorted.TupleRows()[i][j])
					}
				}
			}
		})
	}
}

func TestKeyTasksNonEmpty(t *testing.T) {
	db := setup(t)
	for _, id := range []int{1, 4, 8, 10} {
		task := Tasks()[id-1]
		r, err := db.Query(task.Query)
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() == 0 {
			t.Errorf("task %d (%s) returned no rows at the default scale", id, task.Name)
		}
	}
}
