package sql

import (
	"math/rand"
	"testing"

	"sheetmusiq/internal/dataset"
	"sheetmusiq/internal/value"
)

func TestPushdownSplitsConjuncts(t *testing.T) {
	d := db()
	stmt := MustParse("SELECT c.ID FROM cars c JOIN dealers d ON c.Model = d.specialty " +
		"WHERE c.Price < 16000 AND d.dealer LIKE 'Ann%' AND c.Year + 1 = 2006 AND c.ID > d.specialty_missing_no")
	filters, residual := d.pushdown(stmt)
	if len(filters["c"]) != 2 {
		t.Fatalf("filters for c = %v", filters["c"])
	}
	if len(filters["d"]) != 1 {
		t.Fatalf("filters for d = %v", filters["d"])
	}
	// The unresolvable conjunct stays in the residual.
	if residual == nil {
		t.Fatal("residual should carry the unresolvable conjunct")
	}
}

func TestPushdownSkipsSingleSource(t *testing.T) {
	d := db()
	stmt := MustParse("SELECT ID FROM cars WHERE Price < 16000")
	filters, residual := d.pushdown(stmt)
	if filters != nil || residual == nil {
		t.Fatal("single-source queries should not be rewritten")
	}
}

func TestPushdownDisabled(t *testing.T) {
	d := db()
	d.DisablePushdown = true
	stmt := MustParse("SELECT c.ID FROM cars c JOIN dealers d ON c.Model = d.specialty WHERE c.Price < 16000")
	if filters, _ := d.pushdown(stmt); filters != nil {
		t.Fatal("DisablePushdown must suppress the rewrite")
	}
}

func TestPushdownSemanticsPreserved(t *testing.T) {
	// Identical results — including row order — with and without pushdown.
	queries := []string{
		"SELECT c.ID, d.dealer FROM cars c JOIN dealers d ON c.Model = d.specialty WHERE c.Price < 16000 AND d.dealer LIKE 'Ann%' ORDER BY c.ID",
		"SELECT c.Model, COUNT(*) AS n FROM cars c JOIN dealers d ON c.Model = d.specialty WHERE c.Year = 2006 GROUP BY c.Model ORDER BY c.Model",
		"SELECT c.ID FROM cars c CROSS JOIN dealers d WHERE c.Price < 14000 AND d.dealer = 'MotorCity'",
		"SELECT a.ID, b.ID FROM cars a JOIN cars b ON a.Model = b.Model WHERE a.Price < b.Price AND a.Year = 2005",
		"SELECT m, n FROM (SELECT Model AS m, COUNT(*) AS n FROM cars GROUP BY Model) AS g JOIN dealers d ON g.m = d.specialty WHERE n > 4",
	}
	for _, q := range queries {
		on := db()
		off := db()
		off.DisablePushdown = true
		r1, err := on.Query(q)
		if err != nil {
			t.Fatalf("%q with pushdown: %v", q, err)
		}
		r2, err := off.Query(q)
		if err != nil {
			t.Fatalf("%q without pushdown: %v", q, err)
		}
		if r1.String() != r2.String() {
			t.Fatalf("pushdown changed %q:\nwith:\n%s\nwithout:\n%s", q, r1.String(), r2.String())
		}
	}
}

func TestPushdownCorrelatedConjunctStays(t *testing.T) {
	// A conjunct referencing the outer scope must not be pushed.
	r := q(t, "SELECT c.ID FROM cars c WHERE EXISTS "+
		"(SELECT 1 AS one FROM cars a JOIN cars b ON a.ID = b.ID WHERE a.ID = c.ID AND a.Price > 17000)")
	if r.Len() != 2 {
		t.Fatalf("rows = %d, want 2 (cars 723 and 725 exceed $17000)", r.Len())
	}
}

// TestQuickPushdownEquivalence fuzzes join queries over random data with
// pushdown on and off.
func TestQuickPushdownEquivalence(t *testing.T) {
	preds := []string{
		"l.Price < 20000", "r.Year >= 2004", "l.Model LIKE '%a%'",
		"l.Price < r.Price", "r.Condition IN ('Good','Fair')",
		"l.Mileage + r.Mileage < 200000",
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		left := dataset.RandomCars(40, int64(trial))
		right := dataset.RandomCars(40, int64(trial+100))
		right.Name = "cars2"
		build := func(disable bool) *DB {
			d := NewDB()
			d.Register(left)
			d.Register(right)
			d.DisablePushdown = disable
			return d
		}
		n := 1 + rng.Intn(3)
		where := preds[rng.Intn(len(preds))]
		for i := 1; i < n; i++ {
			where += " AND " + preds[rng.Intn(len(preds))]
		}
		query := "SELECT l.ID, r.ID FROM cars l JOIN cars2 r ON l.Model = r.Model WHERE " + where + " ORDER BY l.ID, r.ID"
		r1, err := build(false).Query(query)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		r2, err := build(true).Query(query)
		if err != nil {
			t.Fatalf("trial %d (no pushdown): %v", trial, err)
		}
		if r1.Len() != r2.Len() {
			t.Fatalf("trial %d: %d vs %d rows for %q", trial, r1.Len(), r2.Len(), query)
		}
		for i := range r1.TupleRows() {
			for j := range r1.TupleRows()[i] {
				if !value.Equal(r1.TupleRows()[i][j], r2.TupleRows()[i][j]) {
					t.Fatalf("trial %d row %d: %v vs %v", trial, i, r1.TupleRows()[i], r2.TupleRows()[i])
				}
			}
		}
	}
}

func TestSourceColumnsStarSubquery(t *testing.T) {
	// A star subquery defeats static column analysis; nothing pushes.
	d := db()
	stmt := MustParse("SELECT g.ID FROM (SELECT * FROM cars) AS g JOIN dealers d ON g.Model = d.specialty WHERE g.Price < 15000")
	filters, _ := d.pushdown(stmt)
	if len(filters["g"]) != 0 {
		t.Fatalf("star subquery must not receive pushed filters: %v", filters)
	}
	// But execution still works.
	if _, err := d.Exec(stmt); err != nil {
		t.Fatal(err)
	}
}
