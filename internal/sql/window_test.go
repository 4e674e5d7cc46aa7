package sql

import (
	"strings"
	"testing"

	"sheetmusiq/internal/dataset"
	"sheetmusiq/internal/obs"
	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

func colI64(t *testing.T, r *relation.Relation, name string) []int64 {
	t.Helper()
	i := r.Schema.IndexOf(name)
	if i < 0 {
		t.Fatalf("no column %q in %v", name, r.Schema.Names())
	}
	out := make([]int64, r.Len())
	for ri, row := range r.TupleRows() {
		out[ri] = row[i].Int()
	}
	return out
}

func eqI64(t *testing.T, got []int64, want ...int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d (%v vs %v)", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %d, want %d (%v vs %v)", i, got[i], want[i], got, want)
		}
	}
}

func TestSQLWindowRank(t *testing.T) {
	r := q(t, "SELECT ID, RANK() OVER (PARTITION BY Model ORDER BY Price) AS rnk FROM cars")
	eqI64(t, colI64(t, r, "rnk"), 1, 2, 3, 4, 5, 6, 1, 2, 3)
}

func TestSQLWindowRowNumberDense(t *testing.T) {
	r := q(t, `SELECT ID,
		ROW_NUMBER() OVER (PARTITION BY Model ORDER BY Year) AS rn,
		DENSE_RANK() OVER (PARTITION BY Model ORDER BY Year) AS dr
		FROM cars`)
	eqI64(t, colI64(t, r, "rn"), 1, 2, 3, 4, 5, 6, 1, 2, 3)
	eqI64(t, colI64(t, r, "dr"), 1, 1, 1, 2, 2, 2, 1, 2, 2)
}

func TestSQLWindowRunningSum(t *testing.T) {
	r := q(t, "SELECT ID, SUM(Price) OVER (PARTITION BY Model ORDER BY Price) AS run FROM cars")
	eqI64(t, colI64(t, r, "run"),
		14500, 29500, 45500, 62500, 80000, 98000, 13500, 28500, 44500)
}

func TestSQLWindowMovingFrame(t *testing.T) {
	r := q(t, `SELECT ID, SUM(Price) OVER (PARTITION BY Model ORDER BY Price
		ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS mov FROM cars`)
	eqI64(t, colI64(t, r, "mov"),
		14500, 29500, 31000, 33000, 34500, 35500, 13500, 28500, 31000)
}

// TestSQLWindowHugeFrameOffsets: an offset of math.MaxInt64 rows reaches
// past the partition without overflowing — as a near bound it is the
// partition's end, as a far one it leaves the frame empty.
func TestSQLWindowHugeFrameOffsets(t *testing.T) {
	rel := relation.New("t", relation.Schema{{Name: "x", Kind: value.KindInt}})
	for i := 1; i <= 4; i++ {
		rel.MustAppend(value.NewInt(int64(i)))
	}
	d := NewDB()
	d.Register(rel)
	for _, tc := range []struct {
		frame string
		want  []value.Value
	}{
		{"CURRENT ROW AND 9223372036854775807 FOLLOWING",
			[]value.Value{value.NewInt(10), value.NewInt(9), value.NewInt(7), value.NewInt(4)}},
		{"CURRENT ROW AND UNBOUNDED FOLLOWING",
			[]value.Value{value.NewInt(10), value.NewInt(9), value.NewInt(7), value.NewInt(4)}},
		{"9223372036854775807 PRECEDING AND CURRENT ROW",
			[]value.Value{value.NewInt(1), value.NewInt(3), value.NewInt(6), value.NewInt(10)}},
		{"9223372036854775807 FOLLOWING AND UNBOUNDED FOLLOWING",
			[]value.Value{value.Null, value.Null, value.Null, value.Null}},
		{"UNBOUNDED PRECEDING AND 9223372036854775807 PRECEDING",
			[]value.Value{value.Null, value.Null, value.Null, value.Null}},
	} {
		src := "SELECT SUM(x) OVER (ORDER BY x ROWS BETWEEN " + tc.frame + ") AS s FROM t ORDER BY x"
		r, err := d.Query(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		for i, row := range r.TupleRows() {
			if !value.Equal(row[0], tc.want[i]) || row[0].Kind() != tc.want[i].Kind() {
				t.Fatalf("%s: row %d = %v, want %v", src, i, row[0], tc.want[i])
			}
		}
	}
}

func TestSQLWindowCountStar(t *testing.T) {
	r := q(t, "SELECT ID, COUNT(*) OVER (PARTITION BY Model) AS n FROM cars")
	eqI64(t, colI64(t, r, "n"), 6, 6, 6, 6, 6, 6, 3, 3, 3)
}

func TestSQLWindowAfterWhere(t *testing.T) {
	// Windows run over the post-WHERE rows: the cheapest Civic is gone
	// before ranking.
	r := q(t, `SELECT ID, RANK() OVER (PARTITION BY Model ORDER BY Price) AS rnk
		FROM cars WHERE Price > 14000`)
	if r.Len() != 8 {
		t.Fatalf("rows = %d, want 8", r.Len())
	}
	eqI64(t, colI64(t, r, "rnk"), 1, 2, 3, 4, 5, 6, 1, 2)
}

func TestSQLWindowInExpression(t *testing.T) {
	// A window call composes inside a scalar expression.
	r := q(t, `SELECT ID, RANK() OVER (ORDER BY Price) * 10 AS x FROM cars WHERE Model = 'Civic'`)
	eqI64(t, colI64(t, r, "x"), 10, 20, 30)
}

func TestSQLWindowOrderByWindow(t *testing.T) {
	// ORDER BY a window expression (not in the select list).
	r := q(t, `SELECT ID FROM cars ORDER BY ROW_NUMBER() OVER (PARTITION BY Model ORDER BY Price DESC), Model`)
	eqI64(t, colI64(t, r, "ID"), 322, 725, 879, 723, 132, 423, 901, 872, 304)
}

func TestSQLWindowDistinctAndLimit(t *testing.T) {
	r := q(t, `SELECT Model, COUNT(*) OVER (PARTITION BY Model) AS n FROM cars
		ORDER BY n DESC LIMIT 2`)
	if r.Len() != 2 {
		t.Fatalf("rows = %d, want 2", r.Len())
	}
	eqI64(t, colI64(t, r, "n"), 6, 6)
}

func TestSQLWindowTopKSubquery(t *testing.T) {
	// The canonical top-k-per-group idiom: window in a FROM subquery,
	// filtered outside.
	r := q(t, `SELECT ID, rnk FROM (
			SELECT ID, Model, RANK() OVER (PARTITION BY Model ORDER BY Price) AS rnk FROM cars
		) t WHERE t.rnk <= 2 ORDER BY Model, rnk`)
	eqI64(t, colI64(t, r, "ID"), 132, 879, 304, 872)
}

func TestSQLWindowDuplicateCallsShareOneEval(t *testing.T) {
	// The same OVER spelling in two items dedupes to one computed vector.
	r := q(t, `SELECT RANK() OVER (ORDER BY Price) AS a, RANK() OVER (ORDER BY Price) AS b
		FROM cars WHERE Model = 'Civic'`)
	eqI64(t, colI64(t, r, "a"), 1, 2, 3)
	eqI64(t, colI64(t, r, "b"), 1, 2, 3)
}

func TestSQLWindowDefaultName(t *testing.T) {
	r := q(t, "SELECT RANK() OVER (ORDER BY Price) FROM cars WHERE Model = 'Civic'")
	name := r.Schema[0].Name
	if !strings.Contains(name, "RANK() OVER") {
		t.Fatalf("unaliased window column named %q", name)
	}
}

func TestSQLWindowErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"SELECT ID FROM cars WHERE RANK() OVER (ORDER BY Price) <= 2", "not allowed in WHERE"},
		{"SELECT Model, RANK() OVER (ORDER BY Price) FROM cars GROUP BY Model", "GROUP BY"},
		{"SELECT SUM(Price), RANK() OVER (ORDER BY Price) FROM cars", "GROUP BY"},
		{"SELECT RANK() OVER (PARTITION BY Model) FROM cars", "ORDER BY"},
		{"SELECT RANK(Price) OVER (ORDER BY Price) FROM cars", "argument"},
		{"SELECT SUM(Model) OVER (ORDER BY Price) FROM cars", "numeric"},
		{"SELECT SUM(Price) OVER (PARTITION BY Model ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) FROM cars", "ORDER BY"},
		{"SELECT MEDIAN(Price) OVER (ORDER BY Price) FROM cars", "window function"},
		{"SELECT COUNT_DISTINCT(Price) OVER (ORDER BY Price) FROM cars", "window function"},
	}
	for _, tc := range cases {
		_, err := db().Query(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s\n  err = %v, want substring %q", tc.src, err, tc.want)
		}
	}
}

func TestSQLWindowBatchCounterAndParity(t *testing.T) {
	// Window inputs come off typed vectors (expr.batch.window increments)
	// and the result is bit-identical to the row path over the same rows
	// (the same statement with every window input reading a scalar
	// subquery, which keeps it on the interpreter).
	big := dataset.RandomCars(4096, 11)
	d := NewDB()
	d.Register(big)
	const src = `SELECT ID, RANK() OVER (PARTITION BY Model ORDER BY Price, ID) AS rnk,
		SUM(Mileage) OVER (PARTITION BY Model ORDER BY Price, ID ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS mov
		FROM cars WHERE Price > 9000 ORDER BY Model, rnk`
	before := obs.Default.CounterValue("expr.batch.window")
	cold, err := d.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.Default.CounterValue("expr.batch.window") - before; got < 2 {
		t.Fatalf("expr.batch.window advanced by %d, want >= 2 (one per lifted window)", got)
	}
	warm, err := d.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if cold.String() != warm.String() {
		t.Fatal("warm run differs from cold run")
	}

	// Row-path reference: the same 64 rows, every window input adding a
	// scalar subquery's 0 (or '') so no input compiles to a batch program;
	// the output must be byte-identical to the batch path's.
	const zero = "(SELECT 0 FROM cars LIMIT 1)"
	const rowSrc = `SELECT ID, RANK() OVER (PARTITION BY Model || (SELECT '' FROM cars LIMIT 1) ORDER BY Price + ` + zero + `, ID + ` + zero + `) AS rnk,
		SUM(Mileage + ` + zero + `) OVER (PARTITION BY Model || (SELECT '' FROM cars LIMIT 1) ORDER BY Price + ` + zero + `, ID + ` + zero + ` ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS mov
		FROM cars WHERE Price > 9000 ORDER BY Model, rnk`
	first64 := make([]int32, 64)
	for i := range first64 {
		first64[i] = int32(i)
	}
	big64 := big.Pick(first64)
	db2 := NewDB()
	db2.Register(big64)
	before = obs.Default.CounterValue("expr.batch.window")
	rowRes, err := db2.Query(rowSrc)
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.Default.CounterValue("expr.batch.window") - before; got != 0 {
		t.Fatalf("interpreted window inputs advanced expr.batch.window by %d", got)
	}
	batchRes, err := db2.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if rowRes.String() != batchRes.String() {
		t.Fatalf("batch and row window paths diverge:\n%s\nvs\n%s", batchRes, rowRes)
	}
	_ = value.Null
}
