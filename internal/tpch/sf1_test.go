package tpch

import (
	"os"
	"strconv"
	"testing"

	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/sql"
	"sheetmusiq/internal/value"
)

// TestFullTPCHAtScale is the opt-in large-scale sweep over all 22 TPC-H
// queries. It is gated on TPCH_SF1: unset, the test skips (the default
// `go test` run already covers every query at the fixed small scale);
// TPCH_SF1=1 runs at scale factor 1 (~6M lineitem rows, about a minute to
// generate); any other float (e.g. TPCH_SF1=0.05) picks that scale for a
// faster large-ish sweep.
//
//	TPCH_SF1=1 go test -run TestFullTPCHAtScale -timeout 0 ./internal/tpch
//
// Every query runs as its own subtest: the ten study tasks assert
// algebra-vs-SQL equality exactly as the default-scale differential does;
// the SQL-only exemplars assert successful end-to-end execution. The
// correlated-subquery exemplars (Q2, Q13, Q17, Q20, Q21) re-execute their
// inner statement per distinct correlation key, so at SF 1 they dominate
// the runtime by a wide margin — use -run to slice the sweep when iterating.
func TestFullTPCHAtScale(t *testing.T) {
	spec := os.Getenv("TPCH_SF1")
	if spec == "" {
		t.Skip("set TPCH_SF1=1 (or a scale factor) to run the large-scale TPC-H sweep")
	}
	sf, err := strconv.ParseFloat(spec, 64)
	if err != nil || sf <= 0 {
		t.Fatalf("TPCH_SF1=%q is not a positive scale factor", spec)
	}
	tables := Generate(Config{ScaleFactor: sf, Seed: DefaultConfig().Seed})
	db := BuildDB(tables)
	if err := BuildViews(db); err != nil {
		t.Fatal(err)
	}

	for _, task := range Tasks() {
		task := task
		t.Run(task.TpchQuery+"/"+task.Name, func(t *testing.T) {
			diffTaskAgainstSQL(t, db, task)
		})
	}
	for _, eq := range ExcludedQueries() {
		eq := eq
		t.Run(eq.TpchQuery+"/"+eq.Name, func(t *testing.T) {
			res, err := db.Query(eq.SQL)
			if err != nil {
				t.Fatal(err)
			}
			if res == nil {
				t.Fatal("query returned no relation")
			}
		})
	}
}

// diffTaskAgainstSQL runs one study task through both routes and requires
// identical group/aggregate values — the same comparison the default-scale
// TestTasksAlgebraMatchesSQL makes.
func diffTaskAgainstSQL(t *testing.T, db *sql.DB, task Task) {
	t.Helper()
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
		t.Fatalf("algebra %d rows vs SQL %d rows", got.Len(), wantSorted.Len())
	}
	for i := range got.TupleRows() {
		for j := range got.TupleRows()[i] {
			if !value.Equal(got.TupleRows()[i][j], wantSorted.TupleRows()[i][j]) {
				t.Fatalf("row %d col %d: algebra %v vs SQL %v", i, j,
					got.TupleRows()[i][j], wantSorted.TupleRows()[i][j])
			}
		}
	}
}
