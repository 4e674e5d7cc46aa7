package sqlgen

import (
	"math/rand"
	"strings"
	"testing"

	"sheetmusiq/internal/core"
	"sheetmusiq/internal/dataset"
	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/sql"
)

// roundTrip evaluates the spreadsheet through the algebra and through
// generated SQL and requires identical tables (values and row order).
func roundTrip(t *testing.T, s *core.Spreadsheet) string {
	t.Helper()
	res, err := s.Evaluate()
	if err != nil {
		t.Fatalf("algebra evaluate: %v", err)
	}
	stmt, err := Generate(s)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	db := sql.NewDB()
	db.Register(s.Base())
	got, err := db.Query(stmt)
	if err != nil {
		t.Fatalf("execute %q: %v", stmt, err)
	}
	want := res.Table.String()
	if got.String() != want {
		t.Fatalf("SQL path diverged.\nSQL: %s\ngot:\n%s\nwant:\n%s", stmt, got.String(), want)
	}
	return stmt
}

func TestGeneratePlainSelect(t *testing.T) {
	s := core.New(dataset.UsedCars())
	if _, err := s.Select("Year = 2005 AND Price < 15500"); err != nil {
		t.Fatal(err)
	}
	stmt := roundTrip(t, s)
	if !strings.Contains(stmt, "WHERE") {
		t.Errorf("expected WHERE in %q", stmt)
	}
}

func TestGenerateGroupingOrdering(t *testing.T) {
	s := core.New(dataset.UsedCars())
	if err := s.GroupBy(core.Desc, "Model"); err != nil {
		t.Fatal(err)
	}
	if err := s.GroupBy(core.Asc, "Year"); err != nil {
		t.Fatal(err)
	}
	if err := s.Sort("Price", core.Asc); err != nil {
		t.Fatal(err)
	}
	stmt := roundTrip(t, s)
	if !strings.Contains(stmt, "ORDER BY Model DESC, Year, Price") {
		t.Errorf("grouping emulation missing in %q", stmt)
	}
}

func TestGenerateTableIII(t *testing.T) {
	// The paper's Table III state: grouped aggregation with projection.
	s := core.New(dataset.UsedCars())
	if err := s.GroupBy(core.Desc, "Model"); err != nil {
		t.Fatal(err)
	}
	if err := s.GroupBy(core.Asc, "Year"); err != nil {
		t.Fatal(err)
	}
	if err := s.Sort("Price", core.Asc); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Aggregate(relation.AggAvg, "Price", 3); err != nil {
		t.Fatal(err)
	}
	if err := s.Hide("Condition"); err != nil {
		t.Fatal(err)
	}
	stmt := roundTrip(t, s)
	if !strings.Contains(stmt, "GROUP BY") {
		t.Errorf("expected GROUP BY subquery in %q", stmt)
	}
}

func TestGenerateHaving(t *testing.T) {
	s := core.New(dataset.UsedCars())
	if err := s.GroupBy(core.Asc, "Model"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AggregateAs("AvgP", relation.AggAvg, "Price", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Select("AvgP > 15500"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Select("Year = 2006"); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, s)
}

func TestGenerateFormulaChain(t *testing.T) {
	s := core.New(dataset.UsedCars())
	if _, err := s.Formula("KPrice", "Price / 1000"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Formula("KPrice2", "KPrice * 2"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Select("KPrice2 > 30"); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, s)
}

func TestGenerateFormulaOverAggregate(t *testing.T) {
	// Fig. 2's flow: compare Price with the per-group average.
	s := core.New(dataset.UsedCars())
	if err := s.GroupBy(core.Asc, "Model"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AggregateAs("AvgP", relation.AggAvg, "Price", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Formula("Delta", "Price - AvgP"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Select("Delta < 0"); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, s)
}

func TestGenerateWholeSheetAggregate(t *testing.T) {
	s := core.New(dataset.UsedCars())
	if _, err := s.AggregateAs("N", relation.AggCount, "ID", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AggregateAs("Total", relation.AggSum, "Price", 1); err != nil {
		t.Fatal(err)
	}
	stmt := roundTrip(t, s)
	if !strings.Contains(stmt, "CROSS JOIN") {
		t.Errorf("whole-sheet aggregates should CROSS JOIN: %q", stmt)
	}
}

func TestGenerateDistinct(t *testing.T) {
	s := core.New(dataset.UsedCars())
	for _, c := range []string{"ID", "Price", "Mileage", "Condition"} {
		if err := s.Hide(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Distinct(); err != nil {
		t.Fatal(err)
	}
	if err := s.Sort("Model", core.Asc); err != nil {
		t.Fatal(err)
	}
	stmt := roundTrip(t, s)
	if !strings.Contains(stmt, "DISTINCT") {
		t.Errorf("expected DISTINCT in %q", stmt)
	}
}

func TestGenerateDistinctRestriction(t *testing.T) {
	s := core.New(dataset.UsedCars())
	if _, err := s.Select("Price < 16000"); err != nil {
		t.Fatal(err)
	}
	if err := s.Hide("Price"); err != nil {
		t.Fatal(err)
	}
	if err := s.Distinct(); err != nil {
		t.Fatal(err)
	}
	// A selection on a column DE dropped cannot be expressed in SQL.
	if _, err := Generate(s); err == nil {
		t.Fatal("expected the documented DE restriction error")
	}
}

func TestGenerateMultiLevelAggregates(t *testing.T) {
	s := core.New(dataset.UsedCars())
	if err := s.GroupBy(core.Desc, "Model"); err != nil {
		t.Fatal(err)
	}
	if err := s.GroupBy(core.Asc, "Year"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AggregateAs("AvgMY", relation.AggAvg, "Price", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AggregateAs("AvgM", relation.AggAvg, "Price", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AggregateAs("MinMY", relation.AggMin, "Price", 3); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, s)
}

func TestGenerateDepth2Aggregate(t *testing.T) {
	// Aggregate over an aggregate-derived formula: depth 2.
	s := core.New(dataset.UsedCars())
	if err := s.GroupBy(core.Asc, "Model"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AggregateAs("AvgM", relation.AggAvg, "Price", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Formula("Dev", "Price - AvgM"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AggregateAs("MaxDev", relation.AggMax, "Dev", 2); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, s)
}

func TestGenerateAfterQueryModification(t *testing.T) {
	s := core.New(dataset.UsedCars())
	id, err := s.Select("Year = 2005")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.GroupBy(core.Asc, "Condition"); err != nil {
		t.Fatal(err)
	}
	if err := s.Sort("Price", core.Asc); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, s)
	if err := s.ReplaceSelection(id, "Year = 2006"); err != nil {
		t.Fatal(err)
	}
	stmt := roundTrip(t, s)
	if !strings.Contains(stmt, "2006") || strings.Contains(stmt, "2005") {
		t.Errorf("modified predicate not reflected: %q", stmt)
	}
}

func TestGenerateCountDistinct(t *testing.T) {
	s := core.New(dataset.UsedCars())
	if _, err := s.AggregateAs("U", relation.AggCountDistinct, "Model", 1); err != nil {
		t.Fatal(err)
	}
	stmt := roundTrip(t, s)
	if !strings.Contains(stmt, "COUNT(DISTINCT") {
		t.Errorf("expected COUNT(DISTINCT ...) in %q", stmt)
	}
}

func TestCompileStages(t *testing.T) {
	s := core.New(dataset.UsedCars())
	if _, err := s.Select("Year = 2005"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AggregateAs("N", relation.AggCount, "ID", 1); err != nil {
		t.Fatal(err)
	}
	p, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Stages) < 3 {
		t.Fatalf("expected staged plan, got %d stages", len(p.Stages))
	}
	if p.Stages[len(p.Stages)-1] != p.SQL {
		t.Fatal("last stage must be the final statement")
	}
}

// carColumns names the RandomCars columns the randomized programs read,
// and whether predicate and formula texts spell names as quoted
// identifiers.
type carColumns struct {
	Price, Year, Model, Mileage string
	quoted                      bool
}

// q spells a column name in a predicate or formula text.
func (c carColumns) q(name string) string {
	if c.quoted {
		return `"` + name + `"`
	}
	return name
}

// carInputs are the randomized programs' inputs: RandomCars as generated,
// and with those columns renamed so that every name the generator prints
// needs quoting (a space, reserved words, a leading digit).
var carInputs = []struct {
	name string
	cols carColumns
}{
	{"plain", carColumns{"Price", "Year", "Model", "Mileage", false}},
	{"quoted", carColumns{"Unit Price", "Date", "Order", "2nd", true}},
}

// randomCars is dataset.RandomCars with its columns renamed to cols.
func randomCars(n int, seed int64, cols carColumns) *relation.Relation {
	r := dataset.RandomCars(n, seed)
	schema := r.Schema.Clone()
	for i, c := range schema {
		switch c.Name {
		case "Price":
			schema[i].Name = cols.Price
		case "Year":
			schema[i].Name = cols.Year
		case "Model":
			schema[i].Name = cols.Model
		case "Mileage":
			schema[i].Name = cols.Mileage
		}
	}
	return r.WithSchema(schema)
}

// TestRandomizedEquivalence fuzzes query states and checks algebra ≡ SQL.
func TestRandomizedEquivalence(t *testing.T) {
	for _, in := range carInputs {
		t.Run(in.name, func(t *testing.T) { randomizedEquivalence(t, in.cols) })
	}
}

func randomizedEquivalence(t *testing.T, c carColumns) {
	rng := rand.New(rand.NewSource(99))
	preds := []string{
		c.q(c.Price) + " < 25000", c.q(c.Price) + " >= 12000", c.q(c.Year) + " <> 2003", c.q(c.Mileage) + " < 150000",
		"Condition IN ('Excellent','Good')", c.q(c.Model) + " LIKE '%a%'",
		c.q(c.Year) + " BETWEEN 2001 AND 2008", c.q(c.Price) + " * 2 > " + c.q(c.Mileage) + " / 3",
	}
	for trial := 0; trial < 40; trial++ {
		s := core.New(randomCars(50, int64(trial), c))
		steps := 1 + rng.Intn(6)
		grouped := 0
		hasAgg := false
		for i := 0; i < steps; i++ {
			switch rng.Intn(6) {
			case 0, 1:
				if _, err := s.Select(preds[rng.Intn(len(preds))]); err != nil {
					t.Fatal(err)
				}
			case 2:
				if grouped == 0 {
					if err := s.GroupBy(core.Dir(rng.Intn(2) == 0), c.Model); err != nil {
						t.Fatal(err)
					}
					grouped = 1
				} else if grouped == 1 {
					if err := s.GroupBy(core.Dir(rng.Intn(2) == 0), c.Year); err != nil {
						t.Fatal(err)
					}
					grouped = 2
				}
			case 3:
				if !hasAgg {
					lvl := 1 + rng.Intn(grouped+1)
					if _, err := s.AggregateAs("AvgP", relation.AggAvg, c.Price, lvl); err != nil {
						t.Fatal(err)
					}
					hasAgg = true
					if rng.Intn(2) == 0 {
						if _, err := s.Select("AvgP > 15000"); err != nil {
							t.Fatal(err)
						}
					}
				}
			case 4:
				if err := s.Sort(c.Price, core.Dir(rng.Intn(2) == 0)); err != nil {
					t.Fatal(err)
				}
				// Occasionally exercise the OrderGroupsBy extension.
				if hasAgg && grouped == 1 && rng.Intn(2) == 0 {
					if err := s.OrderGroupsBy(1, "AvgP", core.Dir(rng.Intn(2) == 0)); err != nil {
						t.Fatal(err)
					}
				}
			case 5:
				if _, err := s.Formula("", c.q(c.Price)+" + "+c.q(c.Mileage)+" / 100"); err != nil {
					t.Fatal(err)
				}
			}
		}
		roundTrip(t, s)
	}
}

func TestGenerateOrderGroupsBy(t *testing.T) {
	// The OrderGroupsBy extension maps to ORDER BY over the aggregate.
	s := core.New(dataset.UsedCars())
	if err := s.GroupBy(core.Asc, "Model"); err != nil {
		t.Fatal(err)
	}
	if err := s.Sort("Price", core.Asc); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AggregateAs("AvgP", relation.AggAvg, "Price", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.OrderGroupsBy(1, "AvgP", core.Desc); err != nil {
		t.Fatal(err)
	}
	stmt := roundTrip(t, s)
	if !strings.Contains(stmt, "ORDER BY AvgP DESC, Model, Price") {
		t.Errorf("group ordering missing from %q", stmt)
	}
}

func TestGenerateDistinctWithAggregate(t *testing.T) {
	// DE plus an aggregate whose input is within the recorded columns is
	// expressible: DISTINCT first, then the GROUP BY join.
	s := core.New(dataset.UsedCars())
	for _, c := range []string{"ID", "Mileage", "Condition"} {
		if err := s.Hide(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Distinct(); err != nil {
		t.Fatal(err)
	}
	if err := s.GroupBy(core.Asc, "Model"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AggregateAs("AvgP", relation.AggAvg, "Price", 2); err != nil {
		t.Fatal(err)
	}
	stmt := roundTrip(t, s)
	if !strings.Contains(stmt, "DISTINCT") || !strings.Contains(stmt, "GROUP BY") {
		t.Fatalf("expected DISTINCT + GROUP BY: %q", stmt)
	}
}
