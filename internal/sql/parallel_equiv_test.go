package sql

import (
	"runtime"
	"testing"

	"sheetmusiq/internal/dataset"
	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

// Sequential/parallel equivalence for the SQL executor's chunked row
// loops: every query shape must render identically whether the chunked
// stages run in one chunk or in forced-parallel chunks. Run under -race via
// `make race`, it also proves the chunks share no state.

// equivQueries spans the executor's paths: compiled WHERE filtering, plain
// projection, grouped aggregation (multi-group and the chunked single
// group, an unaliased aggregate item, the empty ungrouped group under
// HAVING, a correlated subquery in a grouped item), HAVING, ORDER BY over
// aliases / source columns / aggregates / a window, DISTINCT, LIMIT/OFFSET,
// joins, the interpreted subquery fallback, and SUM, MIN and MAX over
// mixed-kind values.
var equivQueries = []string{
	"SELECT * FROM cars",
	"SELECT Model, Price FROM cars WHERE Price < 15000 AND Condition IN ('Good','Excellent')",
	"SELECT Model, Price / 1000 AS kprice FROM cars WHERE Model LIKE 'C%' ORDER BY kprice DESC, Model",
	"SELECT Model, Price FROM cars WHERE NOT (Year = 2005) ORDER BY Price * -1, ID",
	"SELECT DISTINCT Model, Condition FROM cars ORDER BY Model, Condition",
	"SELECT Model, Price FROM cars ORDER BY Price DESC LIMIT 7 OFFSET 3",
	"SELECT COUNT(*) AS n, SUM(Price) AS total, AVG(Mileage) AS avgm FROM cars",
	"SELECT COUNT(*) FROM cars WHERE Price > 20000",
	"SELECT Model, COUNT(*) AS n, AVG(Price) AS avgp FROM cars GROUP BY Model ORDER BY Model",
	"SELECT Model, MIN(Price) AS lo, MAX(Price) AS hi FROM cars GROUP BY Model HAVING COUNT(*) > 2 ORDER BY lo",
	"SELECT Year, Condition, AVG(Price) AS avgp FROM cars GROUP BY Year, Condition ORDER BY Year, Condition",
	"SELECT Model, AVG(Price) AS avgp FROM cars WHERE Mileage < 120000 GROUP BY Model HAVING AVG(Price) > 14000 ORDER BY avgp DESC",
	"SELECT Model, SUM(Price) / COUNT(*) AS per FROM cars GROUP BY Model ORDER BY SUM(Price) DESC",
	"SELECT c.Model, d.dealer FROM cars c, dealers d WHERE c.Model = d.specialty ORDER BY c.ID",
	"SELECT Model, Price FROM cars WHERE Price > (SELECT AVG(Price) FROM cars) ORDER BY ID",
	"SELECT Model FROM cars WHERE Model IN (SELECT specialty FROM dealers) ORDER BY ID",
	"SELECT Model, Price FROM (SELECT Model, Price FROM cars WHERE Year >= 2003) s WHERE Price < 18000 ORDER BY Price, Model",
	// Declared INTEGER, holding floats on odd IDs: a mixed-kind SUM, which
	// must stay sequential like a float SUM.
	"SELECT SUM(COALESCE(IF(ID % 2 = 0, ID, NULL), Price / 3.7)) AS s FROM cars",
	"SELECT MIN(COALESCE(IF(ID % 2 = 0, ID, NULL), Price / 3.7)) AS lo, MAX(COALESCE(IF(ID % 2 = 0, ID, NULL), Price / 3.7)) AS hi FROM cars",
	"SELECT Model, AVG(Price) FROM cars GROUP BY Model ORDER BY Model",
	"SELECT COUNT(*) AS n, MAX(Price) AS m FROM cars WHERE Price < 0 HAVING COUNT(*) = 0",
	"SELECT Model, (SELECT COUNT(*) FROM dealers d WHERE d.specialty = Model) AS k, COUNT(*) AS n FROM cars GROUP BY Model ORDER BY Model",
	"SELECT ID, RANK() OVER (PARTITION BY Model ORDER BY Price) AS r FROM cars ORDER BY r, ID",
}

func equivDB(base *relation.Relation) *DB {
	d := db()
	d.Register(base)
	return d
}

// renderQueryAt runs one query with the given parallel threshold in force.
// GOMAXPROCS is raised so the threshold-0 run splits into real chunks even
// on a single-core host.
func renderQueryAt(t *testing.T, base *relation.Relation, query string, threshold int) string {
	t.Helper()
	old := relation.ParallelThreshold
	relation.ParallelThreshold = threshold
	oldProcs := runtime.GOMAXPROCS(8)
	defer func() {
		relation.ParallelThreshold = old
		runtime.GOMAXPROCS(oldProcs)
	}()
	r, err := equivDB(base).Query(query)
	if err != nil {
		t.Fatalf("%q: %v", query, err)
	}
	return r.String()
}

func TestSQLParallelEquivalence(t *testing.T) {
	bases := map[string]*relation.Relation{
		"usedcars": dataset.UsedCars(),
		"random3k": dataset.RandomCars(3000, 42),
	}
	const sequential = 1 << 30
	for baseName, base := range bases {
		for _, query := range equivQueries {
			want := renderQueryAt(t, base, query, sequential)
			got := renderQueryAt(t, base, query, 0)
			if got != want {
				t.Errorf("%s/%q: parallel output diverged from sequential\n--- parallel ---\n%s\n--- sequential ---\n%s",
					baseName, query, got, want)
			}
		}
	}
}

// TestSQLParallelErrorParity pins error determinism: the chunked WHERE must
// surface the same first-failing-row error the sequential scan does.
func TestSQLParallelErrorParity(t *testing.T) {
	base := dataset.RandomCars(3000, 7)
	run := func(threshold int) error {
		old := relation.ParallelThreshold
		relation.ParallelThreshold = threshold
		oldProcs := runtime.GOMAXPROCS(8)
		defer func() {
			relation.ParallelThreshold = old
			runtime.GOMAXPROCS(oldProcs)
		}()
		_, err := equivDB(base).Query("SELECT Model FROM cars WHERE Price / (Year - Year) > 1")
		return err
	}
	seqErr := run(1 << 30)
	parErr := run(0)
	if seqErr == nil || parErr == nil {
		t.Fatalf("division by zero not surfaced: sequential %v, parallel %v", seqErr, parErr)
	}
	if seqErr.Error() != parErr.Error() {
		t.Fatalf("error parity lost:\nsequential: %v\nparallel:   %v", seqErr, parErr)
	}
}

// TestSQLHavingErrorPhase: HAVING is its own phase, after the aggregate
// arguments and before the output, so a later group's HAVING error is
// reported ahead of an earlier group's error in an item. Group 1 passes
// HAVING and divides by zero in the item; group 2 compares a string with an
// integer in HAVING. Both the batch programs and the interpreter (a scalar
// subquery's 0 added in HAVING) report the HAVING error.
func TestSQLHavingErrorPhase(t *testing.T) {
	rel := relation.New("t", relation.Schema{
		{Name: "G", Kind: value.KindInt},
		{Name: "X", Kind: value.KindInt},
	})
	rel.MustAppend(value.NewInt(1), value.NewInt(0))
	rel.MustAppend(value.NewInt(2), value.NewInt(1))
	d := NewDB()
	d.Register(rel)
	const want = "value: cannot compare TEXT with INTEGER"
	for _, src := range []string{
		"SELECT G, 1 / MIN(X) AS q FROM t GROUP BY G HAVING IF(G = 1, 1, 'a') > 0",
		"SELECT G, 1 / MIN(X) AS q FROM t GROUP BY G HAVING IF(G = 1, 1, 'a') > (SELECT 0 FROM t LIMIT 1)",
	} {
		if _, err := d.Query(src); err == nil || err.Error() != want {
			t.Errorf("%q: err = %v, want %q", src, err, want)
		}
	}
}

// TestSQLChunkBoundaryErrors places the one first-erring row at each chunk
// boundary of a 4-chunk split (the SHEETMUSIQ_PARALLEL_THRESHOLD=4 setting,
// forced here) and pins the error strings of each phase: WHERE, select
// items, an ORDER BY key, grouped aggregate arguments and a window's
// partition and argument inputs. Row bad divides by zero; every later row
// errs in UPPER, inside a different expression, so only a row-major first
// error reports the division. Each query also runs with a scalar subquery's
// 0 added to one numeric term, which declines the batch programs and runs
// the interpreter loops.
func TestSQLChunkBoundaryErrors(t *testing.T) {
	oldProcs := runtime.GOMAXPROCS(4)
	old := relation.ParallelThreshold
	defer func() {
		relation.ParallelThreshold = old
		runtime.GOMAXPROCS(oldProcs)
	}()
	const want = "value: division by zero"
	const zero = " + (SELECT 0 FROM t LIMIT 1)"
	queries := []struct{ batch, interpreted string }{
		{"SELECT X FROM t WHERE X / D + LENGTH(UPPER(Y)) > 0",
			"SELECT X FROM t WHERE X / D" + zero + " + LENGTH(UPPER(Y)) > 0"},
		{"SELECT LENGTH(UPPER(Y)) AS a, X / D AS b FROM t",
			"SELECT LENGTH(UPPER(Y)) AS a, X / D" + zero + " AS b FROM t"},
		{"SELECT LENGTH(UPPER(Y)) AS a FROM t ORDER BY X / D",
			"SELECT LENGTH(UPPER(Y)) AS a FROM t ORDER BY X / D" + zero},
		{"SELECT D, SUM(X / D) AS a, MAX(LENGTH(UPPER(Y))) AS b FROM t GROUP BY D",
			"SELECT D, SUM(X / D" + zero + ") AS a, MAX(LENGTH(UPPER(Y))) AS b FROM t GROUP BY D"},
		{"SELECT SUM(X / D) OVER (PARTITION BY LENGTH(UPPER(Y))) AS w FROM t",
			"SELECT SUM(X / D" + zero + ") OVER (PARTITION BY LENGTH(UPPER(Y))) AS w FROM t"},
	}
	for _, threshold := range []int{4, 1 << 30} {
		relation.ParallelThreshold = threshold
		for _, bad := range []int{0, 3, 4, 7, 8, 11, 12, 15} {
			rel := relation.New("t", relation.Schema{
				{Name: "X", Kind: value.KindInt},
				{Name: "D", Kind: value.KindInt},
				{Name: "Y", Kind: value.KindInt},
			})
			for i := 0; i < 16; i++ {
				d, y := value.NewInt(1), value.Null
				if i == bad {
					d = value.NewInt(0)
				}
				if i > bad {
					y = value.NewInt(7)
				}
				rel.MustAppend(value.NewInt(int64(i+1)), d, y)
			}
			d := NewDB()
			d.Register(rel)
			for _, q := range queries {
				for _, text := range []string{q.batch, q.interpreted} {
					if _, err := d.Query(text); err == nil || err.Error() != want {
						t.Errorf("threshold %d, bad row %d, %q: err = %v, want %q", threshold, bad, text, err, want)
					}
				}
			}
		}
	}
}
