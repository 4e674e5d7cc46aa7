package theorem1

import (
	"strings"
	"testing"

	"sheetmusiq/internal/dataset"
	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/sql"
	"sheetmusiq/internal/value"
)

// verify compiles the query through Theorem 1's construction and requires
// the collapsed algebra result to match the SQL engine exactly (values;
// row sets compared after sorting both sides identically when the query
// has no ORDER BY).
func verify(t *testing.T, query string) *Program {
	t.Helper()
	base := dataset.UsedCars()
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	prog, err := Compile(base, stmt)
	if err != nil {
		t.Fatalf("compile %q: %v", query, err)
	}
	got, err := prog.Collapse()
	if err != nil {
		t.Fatalf("collapse %q: %v", query, err)
	}
	db := sql.NewDB()
	db.Register(dataset.UsedCars())
	want, err := db.Query(query)
	if err != nil {
		t.Fatalf("reference %q: %v", query, err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%q: algebra %d rows vs SQL %d rows\nalgebra:\n%s\nsql:\n%s",
			query, got.Len(), want.Len(), got.String(), want.String())
	}
	ordered := len(stmt.OrderBy) > 0
	if !ordered {
		keys := make([]relation.SortKey, len(got.Schema))
		for i, c := range got.Schema {
			keys[i] = relation.SortKey{Column: c.Name}
		}
		if err := got.Sort(keys); err != nil {
			t.Fatal(err)
		}
		wkeys := make([]relation.SortKey, len(want.Schema))
		for i, c := range want.Schema {
			wkeys[i] = relation.SortKey{Column: c.Name}
		}
		wc := want.Clone()
		if err := wc.Sort(wkeys); err != nil {
			t.Fatal(err)
		}
		want = wc
	}
	for i := range got.TupleRows() {
		for j := range got.TupleRows()[i] {
			if !value.Equal(got.TupleRows()[i][j], want.TupleRows()[i][j]) {
				t.Fatalf("%q row %d col %d: algebra %v vs SQL %v\nalgebra:\n%s\nsql:\n%s",
					query, i, j, got.TupleRows()[i][j], want.TupleRows()[i][j], got.String(), want.String())
			}
		}
	}
	return prog
}

func TestTheorem1PlainSelection(t *testing.T) {
	prog := verify(t, "SELECT ID, Model, Price FROM cars WHERE Year = 2005 AND Price < 15500 ORDER BY Price")
	if len(prog.Log) == 0 || !strings.HasPrefix(prog.Log[0], "step 2") {
		t.Fatalf("log = %v", prog.Log)
	}
}

func TestTheorem1GroupingAggregation(t *testing.T) {
	prog := verify(t, "SELECT Model, AVG(Price) AS avg_price, COUNT(*) AS n FROM cars GROUP BY Model ORDER BY Model")
	if len(prog.GroupCols) != 1 || prog.GroupCols[0] != "Model" {
		t.Fatalf("group cols = %v", prog.GroupCols)
	}
	joined := strings.Join(prog.Log, "\n")
	for _, step := range []string{"step 3: τ Model", "step 4: η AVG(Price)", "step 7: π"} {
		if !strings.Contains(joined, step) {
			t.Fatalf("log missing %q:\n%s", step, joined)
		}
	}
}

func TestTheorem1Having(t *testing.T) {
	verify(t, "SELECT Model, AVG(Price) AS ap FROM cars GROUP BY Model HAVING AVG(Price) > 15500 ORDER BY Model")
}

func TestTheorem1MultiLevelGrouping(t *testing.T) {
	verify(t, "SELECT Model, Year, MIN(Price) AS lo, MAX(Price) AS hi FROM cars GROUP BY Model, Year ORDER BY Model, Year")
}

func TestTheorem1AggregateOverExpression(t *testing.T) {
	verify(t, "SELECT Model, SUM(Price * 2) AS s FROM cars GROUP BY Model ORDER BY Model")
}

func TestTheorem1ExpressionOverAggregates(t *testing.T) {
	verify(t, "SELECT Model, SUM(Price) / COUNT(*) AS manual_avg FROM cars GROUP BY Model ORDER BY Model")
}

func TestTheorem1OrderByAggregate(t *testing.T) {
	// ORDER BY over the aggregate exercises the OrderGroupsBy extension.
	prog := verify(t, "SELECT Model, SUM(Price) AS total FROM cars GROUP BY Model ORDER BY SUM(Price) DESC")
	res, err := prog.Collapse()
	if err != nil {
		t.Fatal(err)
	}
	if res.TupleRows()[0][0].Str() != "Jetta" {
		t.Fatalf("highest-revenue model first, got %v", res.TupleRows()[0])
	}
}

func TestTheorem1GroupByExpression(t *testing.T) {
	verify(t, "SELECT Year % 2 AS parity, COUNT(*) AS n FROM cars GROUP BY Year % 2 ORDER BY parity")
}

func TestTheorem1WholeSheetAggregate(t *testing.T) {
	verify(t, "SELECT COUNT(*) AS n, AVG(Price) AS ap, MIN(Mileage) AS lo FROM cars WHERE Condition = 'Good'")
}

func TestTheorem1OrderByDirectionOnGroupColumn(t *testing.T) {
	verify(t, "SELECT Model, COUNT(*) AS n FROM cars GROUP BY Model ORDER BY Model DESC")
}

func TestTheorem1CompileRejectsNonCore(t *testing.T) {
	base := dataset.UsedCars()
	bad := []string{
		"SELECT DISTINCT Model FROM cars",                        // DISTINCT
		"SELECT Model FROM cars LIMIT 3",                         // LIMIT
		"SELECT * FROM cars",                                     // star
		"SELECT c.ID FROM cars c JOIN cars d ON c.ID = d.ID",     // join (views handle step 1)
		"SELECT ID FROM trucks",                                  // wrong base
		"SELECT ID FROM cars WHERE Price > (SELECT 1 FROM cars)", // nesting
		"SELECT ID FROM cars WHERE SUM(Price) > 1",               // aggregate in WHERE
	}
	for _, q := range bad {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		if _, err := Compile(base, stmt); err == nil {
			t.Errorf("Compile(%q) should fail", q)
		}
	}
}

func TestTheorem1ProgramIsModifiable(t *testing.T) {
	// The compiled program is a live spreadsheet: Sec. V modification
	// applies to it like to any hand-built sheet.
	base := dataset.UsedCars()
	stmt := sql.MustParse("SELECT Model, COUNT(*) AS n FROM cars WHERE Year = 2005 GROUP BY Model ORDER BY Model")
	prog, err := Compile(base, stmt)
	if err != nil {
		t.Fatal(err)
	}
	sels := prog.Sheet.Selections("Year")
	if len(sels) != 1 {
		t.Fatalf("selections = %v", prog.Sheet.Selections(""))
	}
	if err := prog.Sheet.ReplaceSelection(sels[0].ID, "Year = 2006"); err != nil {
		t.Fatal(err)
	}
	res, err := prog.Collapse()
	if err != nil {
		t.Fatal(err)
	}
	// 2006: 3 Jettas + 2 Civics.
	if res.Len() != 2 {
		t.Fatalf("rows = %v", res.TupleRows())
	}
	for _, row := range res.TupleRows() {
		want := int64(3)
		if row[0].Str() == "Civic" {
			want = 2
		}
		if row[1].Int() != want {
			t.Fatalf("%v count = %v, want %d", row[0], row[1], want)
		}
	}
}

// TestTheorem1StudyTasks closes the loop on the paper's evaluation: every
// study task's reference SQL compiles through the Theorem 1 construction
// and matches the SQL engine on the study dataset.
func TestTheorem1StudyTasks(t *testing.T) {
	// Local import cycle note: tpch imports core/sql only, so using it here
	// is fine.
	db, tasks := studyFixtures(t)
	for _, task := range tasks {
		task := task
		t.Run(task.Name, func(t *testing.T) {
			view, ok := db.Table(task.ViewName)
			if !ok {
				t.Fatalf("view %q missing", task.ViewName)
			}
			stmt, err := sql.Parse(task.Query)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := Compile(view, stmt)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			got, err := prog.Collapse()
			if err != nil {
				t.Fatal(err)
			}
			want, err := db.Query(task.Query)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != want.Len() {
				t.Fatalf("rows: algebra %d vs SQL %d", got.Len(), want.Len())
			}
			// The task queries all ORDER BY their group columns (or are
			// single-row), so positions align.
			for i := range got.TupleRows() {
				for j := range got.TupleRows()[i] {
					if !value.Equal(got.TupleRows()[i][j], want.TupleRows()[i][j]) {
						t.Fatalf("row %d col %d: %v vs %v", i, j, got.TupleRows()[i][j], want.TupleRows()[i][j])
					}
				}
			}
		})
	}
}

// TestTheorem1Randomized fuzzes core single-block queries over synthetic
// cars: the compiled algebra program must agree with the SQL engine.
func TestTheorem1Randomized(t *testing.T) {
	base := dataset.RandomCars(60, 11)
	db := sql.NewDB()
	db.Register(base)
	wheres := []string{
		"", "WHERE Price < 25000", "WHERE Year >= 2004 AND Mileage < 150000",
		"WHERE Condition IN ('Good','Excellent')", "WHERE Model LIKE '%a%'",
	}
	groups := []struct {
		clause string
		cols   string
	}{
		{"", ""},
		{"GROUP BY Model", "Model"},
		{"GROUP BY Model, Year", "Model, Year"},
		{"GROUP BY Condition", "Condition"},
	}
	aggs := []string{"COUNT(*) AS n", "AVG(Price) AS ap", "SUM(Price) AS sp", "MIN(Mileage) AS lo"}
	havings := []string{"", "HAVING COUNT(*) > 2", "HAVING AVG(Price) > 15000"}
	count := 0
	for _, w := range wheres {
		for _, g := range groups {
			for _, h := range havings {
				if g.clause == "" && h != "" {
					continue
				}
				var sel, order string
				if g.cols != "" {
					sel = g.cols + ", " + aggs[count%len(aggs)]
					order = "ORDER BY " + g.cols
				} else {
					sel = aggs[count%len(aggs)] + ", " + aggs[(count+1)%len(aggs)]
					order = ""
				}
				query := strings.TrimSpace(strings.Join([]string{
					"SELECT " + sel, "FROM cars", w, g.clause, h, order}, " "))
				query = strings.Join(strings.Fields(query), " ")
				count++
				stmt, err := sql.Parse(query)
				if err != nil {
					t.Fatalf("parse %q: %v", query, err)
				}
				prog, err := Compile(base, stmt)
				if err != nil {
					t.Fatalf("compile %q: %v", query, err)
				}
				got, err := prog.Collapse()
				if err != nil {
					t.Fatalf("collapse %q: %v", query, err)
				}
				want, err := db.Exec(stmt)
				if err != nil {
					t.Fatalf("reference %q: %v", query, err)
				}
				if got.Len() != want.Len() {
					t.Fatalf("%q: algebra %d rows vs SQL %d", query, got.Len(), want.Len())
				}
				for i := range got.TupleRows() {
					for j := range got.TupleRows()[i] {
						if !value.Equal(got.TupleRows()[i][j], want.TupleRows()[i][j]) {
							t.Fatalf("%q row %d col %d: %v vs %v\nalgebra:\n%s\nsql:\n%s",
								query, i, j, got.TupleRows()[i][j], want.TupleRows()[i][j], got.String(), want.String())
						}
					}
				}
			}
		}
	}
	if count < 40 {
		t.Fatalf("only %d queries exercised", count)
	}
}
