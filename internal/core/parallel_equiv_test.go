package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"sheetmusiq/internal/dataset"
	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

// This file holds the sequential/parallel equivalence property test for
// the vectorized, data-parallel evaluation pipeline: every query shape the
// core and commute tests exercise must render identically whether the
// stage bodies run in one chunk or in forced-parallel chunks. Run under
// -race via `make race`, it also proves the chunked stages share no state.

// equivProgram is one named operator program.
type equivProgram struct {
	name  string
	build func(s *Spreadsheet) error
}

// equivPrograms covers the operator shapes of core_test and commute_test:
// selections (comparison, IN, LIKE, BETWEEN, boolean combinations),
// grouping at several levels, finest ordering, projection, duplicate
// elimination, aggregates at every level (including HAVING-style selection
// over them), formulas, formula-over-aggregate chains, an aggregate over
// a mixed-kind formula column, and a formula whose kinds mix on the last
// rows only.
func equivPrograms() []equivProgram {
	sel := func(pred string) func(s *Spreadsheet) error {
		return func(s *Spreadsheet) error { _, err := s.Select(pred); return err }
	}
	seq := func(steps ...func(s *Spreadsheet) error) func(s *Spreadsheet) error {
		return func(s *Spreadsheet) error {
			for _, step := range steps {
				if err := step(s); err != nil {
					return err
				}
			}
			return nil
		}
	}
	group := func(dir Dir, attrs ...string) func(s *Spreadsheet) error {
		return func(s *Spreadsheet) error { return s.GroupBy(dir, attrs...) }
	}
	sortBy := func(col string, dir Dir) func(s *Spreadsheet) error {
		return func(s *Spreadsheet) error { return s.Sort(col, dir) }
	}
	agg := func(name string, fn relation.AggFunc, col string, level int) func(s *Spreadsheet) error {
		return func(s *Spreadsheet) error { _, err := s.AggregateAs(name, fn, col, level); return err }
	}
	formula := func(name, src string) func(s *Spreadsheet) error {
		return func(s *Spreadsheet) error { _, err := s.Formula(name, src); return err }
	}
	return []equivProgram{
		{"base", seq()},
		{"selection", sel("Price < 20000 AND Condition IN ('Good','Excellent')")},
		{"selection-like-between", sel("Model LIKE 'J%' OR Price BETWEEN 12000 AND 15000")},
		{"selection-not", sel("NOT (Year = 2005) AND Mileage >= 30000")},
		{"three-selections-grouped", seq(
			sel("Year >= 2003"), sel("Model <> 'Civic'"), sel("Mileage < 120000"),
			group(Asc, "Condition"), sortBy("Price", Asc))},
		{"grouping-two-levels", seq(group(Desc, "Model"), group(Asc, "Year"), sortBy("Price", Asc))},
		{"grouping-multi-attr", seq(group(Asc, "Model", "Condition"), sortBy("Mileage", Desc))},
		{"hide", seq(sel("Price > 10000"), func(s *Spreadsheet) error { return s.Hide("Mileage") })},
		{"distinct", seq(func(s *Spreadsheet) error { return s.Hide("ID") },
			func(s *Spreadsheet) error { return s.Hide("Price") },
			func(s *Spreadsheet) error { return s.Hide("Mileage") },
			func(s *Spreadsheet) error { return s.Distinct() })},
		{"aggregate-levels", seq(group(Desc, "Model"), group(Asc, "Year"),
			agg("AvgAll", relation.AggAvg, "Price", 1),
			agg("CntModel", relation.AggCount, "Price", 2),
			agg("MinMY", relation.AggMin, "Price", 3),
			agg("MaxMY", relation.AggMax, "Mileage", 3),
			agg("SumMY", relation.AggSum, "Price", 3),
			agg("DevModel", relation.AggStdDev, "Price", 2),
			sortBy("Price", Asc))},
		{"count-distinct", seq(group(Asc, "Model"),
			agg("Conds", relation.AggCountDistinct, "Condition", 2))},
		{"theorem2-program", seq(group(Desc, "Model"), group(Asc, "Year"), sortBy("Price", Asc),
			sel("Condition = 'Good' OR Condition = 'Excellent'"),
			agg("AvgP", relation.AggAvg, "Price", 3),
			formula("Ratio", "Price / AvgP"),
			sel("AvgP > 14000"),
			func(s *Spreadsheet) error { return s.Hide("Mileage") })},
		{"formula", formula("PerMile", "Price * 1000 / (Mileage + 1)")},
		{"formula-chain", seq(formula("Double", "Price * 2"), formula("Quad", "Double * 2"),
			sel("Quad > 50000"))},
		{"aggregate-over-formula", seq(group(Asc, "Model"),
			formula("PerMile", "Price * 1000 / (Mileage + 1)"),
			agg("AvgPM", relation.AggAvg, "PerMile", 2),
			sel("AvgPM > 100"))},
		{"ordergroups-by", seq(group(Asc, "Model"),
			agg("AvgP", relation.AggAvg, "Price", 2),
			func(s *Spreadsheet) error { return s.OrderGroupsBy(1, "AvgP", Desc) })},
		// M is declared INTEGER but holds floats on odd IDs, so its column
		// is Boxed: its SUM must stay sequential like a float SUM's.
		{"sum-over-mixed-kinds", seq(
			formula("M", "COALESCE(IF(ID % 2 = 0, ID, NULL), Price / 3.7)"),
			agg("SumM", relation.AggSum, "M", 1))},
		// Over random3k (IDs 1000–3999) its lanes leave INTEGER only on
		// the last rows, so only the last chunk's lanes box.
		{"formula-mixed-last-rows", formula("Tail", "COALESCE(IF(ID >= 3990, NULL, ID), Model)")},
	}
}

// renderAt builds the program on a fresh spreadsheet and evaluates it with
// the given parallel threshold in force. GOMAXPROCS is raised so the
// threshold-0 run splits into real chunks even on a single-core host.
func renderAt(t *testing.T, base *relation.Relation, p equivProgram, threshold int) (string, string) {
	t.Helper()
	old := relation.ParallelThreshold
	relation.ParallelThreshold = threshold
	oldProcs := runtime.GOMAXPROCS(8)
	defer func() {
		relation.ParallelThreshold = old
		runtime.GOMAXPROCS(oldProcs)
	}()
	s := New(base)
	if err := p.build(s); err != nil {
		t.Fatalf("%s: build: %v", p.name, err)
	}
	res, err := s.Evaluate()
	if err != nil {
		t.Fatalf("%s: evaluate: %v", p.name, err)
	}
	return res.Render(), res.RenderGrouped()
}

// nanPriceCars is RandomCars with Price a FLOAT column that holds NaN on
// about one row in seven: a λ key that is not a strict weak order, since NaN
// compares 0 against every price.
func nanPriceCars(n int, seed int64) *relation.Relation {
	r := dataset.RandomCars(n, seed)
	rng := rand.New(rand.NewSource(seed))
	schema := r.Schema.Clone()
	cols := append([]*relation.Col(nil), r.Columns()...)
	p := r.Schema.IndexOf("Price")
	prices := make([]value.Value, n)
	for i := range prices {
		prices[i] = value.NewFloat(float64(cols[p].Ints[i]))
		if rng.Intn(7) == 0 {
			prices[i] = value.NewFloat(math.NaN())
		}
	}
	schema[p].Kind = value.KindFloat
	cols[p] = relation.ColOf(value.KindFloat, prices)
	return relation.FromColumns(r.Name, schema, cols, n)
}

// TestParallelEquivalence forces the chunked path (threshold 0) and the
// sequential path (huge threshold) over every program shape and both the
// paper's 15-row table and a larger random table, plus one whose Price
// holds NaN, and insists the rendered output — table and group structure —
// is identical.
func TestParallelEquivalence(t *testing.T) {
	bases := map[string]*relation.Relation{
		"usedcars":      dataset.UsedCars(),
		"random3k":      dataset.RandomCars(3000, 99),
		"random3k-nanp": nanPriceCars(3000, 99),
	}
	const sequential = 1 << 30
	for baseName, base := range bases {
		for _, p := range equivPrograms() {
			wantR, wantG := renderAt(t, base, p, sequential)
			gotR, gotG := renderAt(t, base, p, 0)
			if gotR != wantR {
				t.Errorf("%s/%s: parallel Render diverged from sequential\n--- parallel ---\n%s\n--- sequential ---\n%s",
					baseName, p.name, clip(gotR), clip(wantR))
			}
			if gotG != wantG {
				t.Errorf("%s/%s: parallel RenderGrouped diverged from sequential", baseName, p.name)
			}
		}
	}
}

// TestParallelSelectionErrorMatchesSequential pins error parity: the
// parallel filter must surface the same first-failing-row error the
// sequential scan does.
func TestParallelSelectionErrorMatchesSequential(t *testing.T) {
	base := dataset.RandomCars(3000, 5)
	run := func(threshold int) error {
		old := relation.ParallelThreshold
		relation.ParallelThreshold = threshold
		oldProcs := runtime.GOMAXPROCS(8)
		defer func() {
			relation.ParallelThreshold = old
			runtime.GOMAXPROCS(oldProcs)
		}()
		s := New(base)
		if _, err := s.Select("Price / (Year - Year) > 1"); err != nil {
			t.Fatalf("select: %v", err)
		}
		_, err := s.Evaluate()
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

// clip keeps failure messages readable for the 3000-row base.
func clip(s string) string {
	const max = 2000
	if len(s) <= max {
		return s
	}
	return s[:max] + "…"
}

// chunkBoundaryRel is the 16-row table of the chunk-boundary error tests:
// X = i+1, D = 1 except D = 0 at row bad (a division by zero), and Y NULL
// except 7 on every row after bad (UPPER over INTEGER errs there). The
// first erring row in row order is therefore bad, and every later chunk
// errs too, with a different message.
func chunkBoundaryRel(bad int) *relation.Relation {
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
	return rel
}

// TestChunkBoundaryErrors places the one first-erring row at each chunk
// boundary of a 4-chunk split (the SHEETMUSIQ_PARALLEL_THRESHOLD=4 setting,
// forced here) and pins the σ and θ error strings: the batch program flags
// the row and its interpreter re-run reports the division by zero, never
// a later chunk's UPPER error, in parallel and sequentially alike.
func TestChunkBoundaryErrors(t *testing.T) {
	oldProcs := runtime.GOMAXPROCS(4)
	old := relation.ParallelThreshold
	defer func() {
		relation.ParallelThreshold = old
		runtime.GOMAXPROCS(oldProcs)
	}()
	const formula = "X / D + LENGTH(UPPER(Y))"
	cases := []struct {
		name  string
		build func(s *Spreadsheet) error
		want  string
	}{
		{"selection", func(s *Spreadsheet) error {
			_, err := s.Select(formula + " > 0")
			return err
		}, "core: selection (((X / D) + LENGTH(UPPER(Y))) > 0): value: division by zero"},
		{"formula", func(s *Spreadsheet) error {
			_, err := s.Formula("Q", formula)
			return err
		}, "core: formula Q: value: division by zero"},
	}
	for _, threshold := range []int{4, 1 << 30} {
		relation.ParallelThreshold = threshold
		for _, bad := range []int{0, 3, 4, 7, 8, 11, 12, 15} {
			for _, c := range cases {
				s := New(chunkBoundaryRel(bad))
				if err := c.build(s); err != nil {
					t.Fatalf("%s: build: %v", c.name, err)
				}
				_, err := s.Evaluate()
				if err == nil || err.Error() != c.want {
					t.Errorf("threshold %d, bad row %d, %s: err = %v, want %q", threshold, bad, c.name, err, c.want)
				}
			}
		}
	}
}
