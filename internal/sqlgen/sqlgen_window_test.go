package sqlgen

import (
	"math/rand"
	"strings"
	"testing"

	"sheetmusiq/internal/core"
	"sheetmusiq/internal/dataset"
	"sheetmusiq/internal/relation"
)

// TestGenerateWindowEveryKind round-trips one ω column per window function:
// the generated SQL must contain the OVER clause and reproduce the algebra's
// table bit-for-bit. This is the per-kind coverage gate for the generator.
func TestGenerateWindowEveryKind(t *testing.T) {
	order := []core.SortKey{{Column: "Price", Dir: core.Asc}, {Column: "ID", Dir: core.Asc}}
	cases := []struct {
		fn    relation.WindowFunc
		input string
		frame *relation.Frame
	}{
		{relation.WinRank, "", nil},
		{relation.WinDenseRank, "", nil},
		{relation.WinRowNumber, "", nil},
		{relation.WinSum, "Price", nil},
		{relation.WinAvg, "Price", nil},
		{relation.WinMin, "Mileage", nil},
		{relation.WinMax, "Mileage", nil},
		{relation.WinCount, "", nil},
		{relation.WinSum, "Price", &relation.Frame{
			Lo: relation.FrameBound{Kind: relation.BoundPreceding, Offset: 2},
			Hi: relation.FrameBound{Kind: relation.BoundCurrentRow},
		}},
		{relation.WinAvg, "Mileage", &relation.Frame{
			Lo: relation.FrameBound{Kind: relation.BoundPreceding, Offset: 1},
			Hi: relation.FrameBound{Kind: relation.BoundFollowing, Offset: 1},
		}},
	}
	for _, tc := range cases {
		s := core.New(dataset.RandomCars(64, 7))
		if _, err := s.WindowAs("W", tc.fn, tc.input, []string{"Model"}, order, tc.frame); err != nil {
			t.Fatalf("%s: %v", tc.fn, err)
		}
		stmt := roundTrip(t, s)
		if !strings.Contains(stmt, string(tc.fn)+"(") || !strings.Contains(stmt, "OVER (") {
			t.Errorf("%s: generated SQL lacks the OVER clause: %q", tc.fn, stmt)
		}
	}
}

func TestGenerateWindowTopKPerGroup(t *testing.T) {
	// The study's top-k idiom: ω then a depth-1 σ over the rank.
	s := core.New(dataset.UsedCars())
	if _, err := s.WindowAs("R", relation.WinRank, "", []string{"Model"},
		[]core.SortKey{{Column: "Price", Dir: core.Asc}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Select("R <= 2"); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, s)
}

func TestGenerateWindowOverAggregate(t *testing.T) {
	// ω ranking by a depth-1 η column lands at depth 2 and must be emitted
	// after the aggregate join.
	s := core.New(dataset.UsedCars())
	if err := s.GroupBy(core.Asc, "Model"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AggregateAs("AvgP", relation.AggAvg, "Price", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WindowAs("R", relation.WinRank, "", nil,
		[]core.SortKey{{Column: "AvgP", Dir: core.Desc}, {Column: "ID", Dir: core.Asc}}, nil); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, s)
}

func TestGenerateFormulaOverWindow(t *testing.T) {
	// θ referencing ω: the formula wrap must come after the window wrap.
	s := core.New(dataset.UsedCars())
	if _, err := s.WindowAs("Run", relation.WinSum, "Price", []string{"Model"},
		[]core.SortKey{{Column: "Price", Dir: core.Asc}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Formula("Share", "Price * 100 / Run"); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, s)
}

func TestGenerateWindowAfterSelection(t *testing.T) {
	// Depth-0 σ runs before the depth-1 ω: the rank is over surviving rows.
	s := core.New(dataset.UsedCars())
	if _, err := s.Select("Price > 14000"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WindowAs("R", relation.WinRank, "", []string{"Model"},
		[]core.SortKey{{Column: "Price", Dir: core.Asc}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Sort("Mileage", core.Asc); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, s)
}

// TestRandomizedWindowEquivalence mixes ω into random σ/θ/λ states and
// requires the SQL path to agree on every trial.
func TestRandomizedWindowEquivalence(t *testing.T) {
	for _, in := range carInputs {
		t.Run(in.name, func(t *testing.T) { randomizedWindowEquivalence(t, in.cols) })
	}
}

func randomizedWindowEquivalence(t *testing.T, c carColumns) {
	rng := rand.New(rand.NewSource(42))
	funcs := []relation.WindowFunc{
		relation.WinRank, relation.WinDenseRank, relation.WinRowNumber,
		relation.WinSum, relation.WinAvg, relation.WinMin, relation.WinMax,
		relation.WinCount,
	}
	for trial := 0; trial < 25; trial++ {
		s := core.New(randomCars(60, int64(100+trial), c))
		fn := funcs[rng.Intn(len(funcs))]
		input := ""
		if fn.NeedsArg() {
			input = []string{c.Price, c.Mileage}[rng.Intn(2)]
		}
		var part []string
		if rng.Intn(3) > 0 {
			part = []string{c.Model}
		}
		order := []core.SortKey{{Column: c.Price, Dir: core.Dir(rng.Intn(2) == 0)}, {Column: "ID", Dir: core.Asc}}
		var frame *relation.Frame
		if !fn.Ranking() && rng.Intn(3) == 0 {
			frame = &relation.Frame{
				Lo: relation.FrameBound{Kind: relation.BoundPreceding, Offset: int64(1 + rng.Intn(3))},
				Hi: relation.FrameBound{Kind: relation.BoundCurrentRow},
			}
		}
		if rng.Intn(2) == 0 {
			if _, err := s.Select(c.q(c.Price) + " < 30000"); err != nil {
				t.Fatal(err)
			}
		}
		name, err := s.WindowAs("", fn, input, part, order, frame)
		if err != nil {
			t.Fatalf("trial %d %s: %v", trial, fn, err)
		}
		if fn.Ranking() && rng.Intn(2) == 0 {
			if _, err := s.Select(c.q(name) + " <= 5"); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(2) == 0 {
			if err := s.Sort(c.Mileage, core.Dir(rng.Intn(2) == 0)); err != nil {
				t.Fatal(err)
			}
		}
		roundTrip(t, s)
	}
}
