package dataset

import (
	"testing"

	"sheetmusiq/internal/relation"
)

func TestUsedCarsMatchesTableI(t *testing.T) {
	r := UsedCars()
	if r.Len() != 9 {
		t.Fatalf("rows = %d, want 9", r.Len())
	}
	if !r.Schema.Equal(CarSchema()) {
		t.Fatalf("schema = %v", r.Schema)
	}
	// Spot-check the first and last printed rows of the paper's Table I.
	rows := r.TupleRows()
	first, last := rows[0], rows[8]
	if first[0].Int() != 304 || first[1].Str() != "Jetta" || first[2].Int() != 14500 {
		t.Errorf("first row = %v", first)
	}
	if last[0].Int() != 322 || last[1].Str() != "Civic" || last[5].Str() != "Good" {
		t.Errorf("last row = %v", last)
	}
}

func TestUsedCarsIndependentCopies(t *testing.T) {
	a := UsedCars()
	b := UsedCars()
	a.Columns()[0].Ints[0] = 999
	if b.TupleRows()[0][0].Int() == 999 {
		t.Fatal("UsedCars must return independent relations")
	}
}

func TestRandomCarsDeterministic(t *testing.T) {
	a := RandomCars(100, 7)
	b := RandomCars(100, 7)
	if a.Len() != 100 || b.Len() != 100 {
		t.Fatalf("lengths = %d, %d", a.Len(), b.Len())
	}
	ar, br := a.TupleRows(), b.TupleRows()
	for i := range ar {
		if ar[i].Key() != br[i].Key() {
			t.Fatalf("row %d differs for identical seeds", i)
		}
	}
	c := RandomCars(100, 8)
	if c.TupleRows()[0].Key() == ar[0].Key() {
		t.Error("different seeds should differ")
	}
}

func TestRandomCarsSchemaAndRanges(t *testing.T) {
	r := RandomCars(500, 1)
	if !r.Schema.Equal(CarSchema()) {
		t.Fatalf("schema = %v", r.Schema)
	}
	yi := r.Schema.IndexOf("Year")
	pi := r.Schema.IndexOf("Price")
	for _, row := range r.TupleRows() {
		if y := row[yi].Int(); y < 2000 || y > 2008 {
			t.Fatalf("year %d out of range", y)
		}
		if p := row[pi].Int(); p < 8000 || p > 33000 {
			t.Fatalf("price %d out of range", p)
		}
	}
}

// TestCarsBuildTypedColumns pins that the generators build typed columns as
// they append: every column of UsedCars and RandomCars is typed (never
// Boxed) in its schema kind, and generating 16× the rows costs well under
// 2× the allocations — the payload slices grow by doubling, and no row is
// kept as a tuple.
func TestCarsBuildTypedColumns(t *testing.T) {
	for _, r := range []*relation.Relation{UsedCars(), RandomCars(1000, 3)} {
		for j, c := range r.Columns() {
			if c.Boxed != nil || c.Kind != r.Schema[j].Kind {
				t.Fatalf("%s column %s: kind %v, boxed %v; want typed %v",
					r.Name, r.Schema[j].Name, c.Kind, c.Boxed != nil, r.Schema[j].Kind)
			}
		}
	}
	small := testing.AllocsPerRun(3, func() { RandomCars(1024, 1) })
	large := testing.AllocsPerRun(3, func() { RandomCars(16384, 1) })
	if large >= 2*small {
		t.Fatalf("RandomCars allocates %.0f times for 1,024 rows and %.0f for 16,384; want under 2×", small, large)
	}
}
