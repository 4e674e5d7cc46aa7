package core

import (
	"strings"
	"testing"

	"sheetmusiq/internal/expr"
	"sheetmusiq/internal/relation"
)

// colInts extracts a column of an evaluated result as int64s, in display
// order.
func colInts(t *testing.T, s *Spreadsheet, name string) []int64 {
	t.Helper()
	res, err := s.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	i := res.Table.Schema.IndexOf(name)
	if i < 0 {
		t.Fatalf("result has no column %q", name)
	}
	out := make([]int64, res.Table.Len())
	for r, row := range res.Table.TupleRows() {
		out[r] = row[i].Int()
	}
	return out
}

func wantInts(t *testing.T, got []int64, want ...int64) {
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

func TestWindowRankPerPartition(t *testing.T) {
	// RANK() OVER (PARTITION BY Model ORDER BY Price) on Table I. Display
	// order is untouched (ω adds a column, like η), so ranks read off in
	// base order.
	s := sheet()
	name, err := s.WindowAs("PriceRank", relation.WinRank, "",
		[]string{"Model"}, []SortKey{{Column: "Price", Dir: Asc}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if name != "PriceRank" {
		t.Fatalf("name = %q", name)
	}
	wantInts(t, colInts(t, s, "PriceRank"), 1, 2, 3, 4, 5, 6, 1, 2, 3)
	// Presentation order is unchanged.
	wantIDs(t, tableIDs(t, s), 304, 872, 901, 423, 723, 725, 132, 879, 322)
}

func TestWindowRowNumberTies(t *testing.T) {
	// Two Jettas and one Civic share Price 15000/16000; RANK gives ties the
	// same number, ROW_NUMBER breaks them by original row order, DENSE_RANK
	// leaves no gaps. Order by Year: Jetta years 2005,2005,2005,2006,2006,
	// 2006 → rank 1,1,1,4,4,4; dense 1,1,1,2,2,2; row_number 1..6 in base
	// order (stable sort keeps lane order on full ties).
	s := sheet()
	for _, w := range []struct {
		name string
		fn   relation.WindowFunc
	}{
		{"R", relation.WinRank}, {"D", relation.WinDenseRank}, {"N", relation.WinRowNumber},
	} {
		if _, err := s.WindowAs(w.name, w.fn, "",
			[]string{"Model"}, []SortKey{{Column: "Year", Dir: Asc}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	wantInts(t, colInts(t, s, "R"), 1, 1, 1, 4, 4, 4, 1, 2, 2)
	wantInts(t, colInts(t, s, "D"), 1, 1, 1, 2, 2, 2, 1, 2, 2)
	wantInts(t, colInts(t, s, "N"), 1, 2, 3, 4, 5, 6, 1, 2, 3)
}

func TestWindowRunningSum(t *testing.T) {
	// SUM with ORDER BY and no frame is the SQL default: RANGE UNBOUNDED
	// PRECEDING .. CURRENT ROW — running total including the row's peers.
	s := sheet()
	if _, err := s.WindowAs("Run", relation.WinSum, "Price",
		[]string{"Model"}, []SortKey{{Column: "Price", Dir: Asc}}, nil); err != nil {
		t.Fatal(err)
	}
	wantInts(t, colInts(t, s, "Run"),
		14500, 29500, 45500, 62500, 80000, 98000, 13500, 28500, 44500)
}

func TestWindowRunningSumPeers(t *testing.T) {
	// Peers (ties on the order key) all carry the whole peer group's
	// contribution: ordering Jettas by Year, the three 2005 rows each see
	// the 2005 total.
	s := sheet()
	if _, err := s.WindowAs("Run", relation.WinSum, "Price",
		[]string{"Model"}, []SortKey{{Column: "Year", Dir: Asc}}, nil); err != nil {
		t.Fatal(err)
	}
	// Jetta 2005: 14500+15000+16000 = 45500 on all three rows; 2006 adds
	// 17000+17500+18000 → 98000. Civic 2005: 13500; 2006: 13500+15000+16000.
	wantInts(t, colInts(t, s, "Run"),
		45500, 45500, 45500, 98000, 98000, 98000, 13500, 44500, 44500)
}

func TestWindowMovingFrame(t *testing.T) {
	// ROWS BETWEEN 1 PRECEDING AND CURRENT ROW: a two-row moving sum in
	// price order within each model.
	s := sheet()
	frame := &relation.Frame{
		Lo: relation.FrameBound{Kind: relation.BoundPreceding, Offset: 1},
		Hi: relation.FrameBound{Kind: relation.BoundCurrentRow},
	}
	if _, err := s.WindowAs("Mov", relation.WinSum, "Price",
		[]string{"Model"}, []SortKey{{Column: "Price", Dir: Asc}}, frame); err != nil {
		t.Fatal(err)
	}
	wantInts(t, colInts(t, s, "Mov"),
		14500, 29500, 31000, 33000, 34500, 35500, 13500, 28500, 31000)
}

func TestWindowWholePartition(t *testing.T) {
	// No ORDER BY: the window is the whole partition, broadcast per row —
	// COUNT(*) OVER (PARTITION BY Model) is the group size.
	s := sheet()
	if _, err := s.WindowAs("N", relation.WinCount, "",
		[]string{"Model"}, nil, nil); err != nil {
		t.Fatal(err)
	}
	wantInts(t, colInts(t, s, "N"), 6, 6, 6, 6, 6, 6, 3, 3, 3)
}

func TestWindowTopKPerGroup(t *testing.T) {
	// The motivating composition: rank per partition, then select by rank.
	// The selection is deeper than the window (depth 1), so the ranks are
	// computed before the filter — "2 cheapest per model".
	s := sheet()
	if _, err := s.WindowAs("R", relation.WinRank, "",
		[]string{"Model"}, []SortKey{{Column: "Price", Dir: Asc}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Select("R <= 2"); err != nil {
		t.Fatal(err)
	}
	wantIDs(t, tableIDs(t, s), 304, 872, 132, 879)
	// A shallower (depth-0) selection re-ranks the survivors: dropping the
	// cheapest Jetta promotes the rest.
	if _, err := s.Select("Price >= 15000"); err != nil {
		t.Fatal(err)
	}
	wantIDs(t, tableIDs(t, s), 872, 901, 879, 322)
}

func TestWindowDescOrder(t *testing.T) {
	s := sheet()
	if _, err := s.WindowAs("R", relation.WinRank, "",
		[]string{"Model"}, []SortKey{{Column: "Price", Dir: Desc}}, nil); err != nil {
		t.Fatal(err)
	}
	wantInts(t, colInts(t, s, "R"), 6, 5, 4, 3, 2, 1, 3, 2, 1)
}

func TestWindowAutoName(t *testing.T) {
	s := sheet()
	n1, err := s.Window(relation.WinRank, "", nil, []SortKey{{Column: "Price"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != "Rank" {
		t.Fatalf("auto name = %q, want Rank", n1)
	}
	n2, err := s.Window(relation.WinSum, "Price", nil, []SortKey{{Column: "Price"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != "Sum_Price" {
		t.Fatalf("auto name = %q, want Sum_Price", n2)
	}
	// Collision with the aggregate naming convention bumps a suffix.
	n3, err := s.Window(relation.WinSum, "Price", nil, []SortKey{{Column: "Year"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n3 != "Sum_Price_2" {
		t.Fatalf("auto name = %q, want Sum_Price_2", n3)
	}
}

func TestWindowValidation(t *testing.T) {
	frame := &relation.Frame{
		Lo: relation.FrameBound{Kind: relation.BoundPreceding, Offset: 1},
		Hi: relation.FrameBound{Kind: relation.BoundCurrentRow},
	}
	cases := []struct {
		name string
		run  func(s *Spreadsheet) error
		want string
	}{
		{"rank without order", func(s *Spreadsheet) error {
			_, err := s.Window(relation.WinRank, "", []string{"Model"}, nil, nil)
			return err
		}, "needs ORDER BY"},
		{"rank with frame", func(s *Spreadsheet) error {
			_, err := s.Window(relation.WinRank, "", nil, []SortKey{{Column: "Price"}}, frame)
			return err
		}, "takes no frame"},
		{"rank with argument", func(s *Spreadsheet) error {
			_, err := s.Window(relation.WinRank, "Price", nil, []SortKey{{Column: "Price"}}, nil)
			return err
		}, "takes no argument"},
		{"sum without argument", func(s *Spreadsheet) error {
			_, err := s.Window(relation.WinSum, "", nil, []SortKey{{Column: "Price"}}, nil)
			return err
		}, "needs an argument"},
		{"sum over string", func(s *Spreadsheet) error {
			_, err := s.Window(relation.WinSum, "Model", nil, []SortKey{{Column: "Price"}}, nil)
			return err
		}, "numeric"},
		{"frame without order", func(s *Spreadsheet) error {
			_, err := s.Window(relation.WinSum, "Price", []string{"Model"}, nil, frame)
			return err
		}, "frame needs ORDER BY"},
		{"unknown partition column", func(s *Spreadsheet) error {
			_, err := s.Window(relation.WinRank, "", []string{"Nope"}, []SortKey{{Column: "Price"}}, nil)
			return err
		}, "unknown column"},
		{"unknown order column", func(s *Spreadsheet) error {
			_, err := s.Window(relation.WinRank, "", nil, []SortKey{{Column: "Nope"}}, nil)
			return err
		}, "unknown column"},
		{"duplicate partition column", func(s *Spreadsheet) error {
			_, err := s.Window(relation.WinRank, "", []string{"Model", "model"}, []SortKey{{Column: "Price"}}, nil)
			return err
		}, "duplicate"},
		{"duplicate name", func(s *Spreadsheet) error {
			_, err := s.WindowAs("Price", relation.WinRank, "", nil, []SortKey{{Column: "Price"}}, nil)
			return err
		}, "already exists"},
		{"inverted frame", func(s *Spreadsheet) error {
			bad := &relation.Frame{
				Lo: relation.FrameBound{Kind: relation.BoundUnboundedFollowing},
				Hi: relation.FrameBound{Kind: relation.BoundCurrentRow},
			}
			_, err := s.Window(relation.WinSum, "Price", nil, []SortKey{{Column: "Price"}}, bad)
			return err
		}, "frame"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sheet()
			err := tc.run(s)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
			// A rejected ω leaves no trace in the state.
			if len(s.state.computed) != 0 {
				t.Fatal("failed Window left a computed column behind")
			}
		})
	}
}

func TestWindowInlineRejected(t *testing.T) {
	s := sheet()
	if _, err := s.Select("RANK() OVER (ORDER BY Price) <= 2"); err == nil ||
		!strings.Contains(err.Error(), "not inline") {
		t.Fatalf("inline window in predicate: err = %v", err)
	}
	if _, err := s.Formula("F", "SUM(Price) OVER (PARTITION BY Model) / 2"); err == nil ||
		!strings.Contains(err.Error(), "not inline") {
		t.Fatalf("inline window in formula: err = %v", err)
	}
}

func TestWindowExprAs(t *testing.T) {
	s := sheet()
	e, err := expr.Parse("SUM(Price) OVER (PARTITION BY Model ORDER BY Price ROWS BETWEEN 1 PRECEDING AND CURRENT ROW)")
	if err != nil {
		t.Fatal(err)
	}
	w, ok := e.(*expr.WindowCall)
	if !ok {
		t.Fatalf("parsed %T, want *expr.WindowCall", e)
	}
	if _, err := s.WindowExprAs("Mov", w); err != nil {
		t.Fatal(err)
	}
	wantInts(t, colInts(t, s, "Mov"),
		14500, 29500, 31000, 33000, 34500, 35500, 13500, 28500, 31000)
}

func TestWindowRenameRewrites(t *testing.T) {
	s := sheet()
	if _, err := s.WindowAs("R", relation.WinSum, "Price",
		[]string{"Model"}, []SortKey{{Column: "Price", Dir: Asc}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Rename("Price", "Cost"); err != nil {
		t.Fatal(err)
	}
	c := s.state.findComputed("R")
	w := c.Formula.(*expr.WindowCall)
	if w.Arg.(*expr.ColumnRef).Name != "Cost" || w.OrderBy[0].X.(*expr.ColumnRef).Name != "Cost" {
		t.Fatalf("rename did not rewrite window definition: %s", w.SQL())
	}
	wantInts(t, colInts(t, s, "R"),
		14500, 29500, 45500, 62500, 80000, 98000, 13500, 28500, 44500)
}

func TestWindowDependentsBlockRemoval(t *testing.T) {
	s := sheet()
	if _, err := s.WindowAs("R", relation.WinRank, "",
		[]string{"Model"}, []SortKey{{Column: "Price"}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Formula("F", "R * 10"); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveComputed("R"); err == nil || !strings.Contains(err.Error(), "depended on") {
		t.Fatalf("removal with dependent formula: err = %v", err)
	}
	if err := s.RemoveComputed("F"); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveComputed("R"); err != nil {
		t.Fatal(err)
	}
	if got := len(s.state.computed); got != 0 {
		t.Fatalf("computed columns left: %d", got)
	}
}

func TestWindowUndoRedo(t *testing.T) {
	s := sheet()
	if _, err := s.WindowAs("R", relation.WinRank, "",
		[]string{"Model"}, []SortKey{{Column: "Price"}}, nil); err != nil {
		t.Fatal(err)
	}
	before := colInts(t, s, "R")
	if _, err := s.Undo(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Schema.IndexOf("R") >= 0 {
		t.Fatal("undo left the window column")
	}
	if _, err := s.Redo(); err != nil {
		t.Fatal(err)
	}
	wantInts(t, colInts(t, s, "R"), before...)
}

func TestWindowPersistRoundTrip(t *testing.T) {
	s := sheet()
	frame := &relation.Frame{
		Lo: relation.FrameBound{Kind: relation.BoundPreceding, Offset: 2},
		Hi: relation.FrameBound{Kind: relation.BoundFollowing, Offset: 1},
	}
	if _, err := s.WindowAs("Mov", relation.WinAvg, "Price",
		[]string{"Model"}, []SortKey{{Column: "Price", Dir: Asc}}, frame); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WindowAs("R", relation.WinDenseRank, "",
		nil, []SortKey{{Column: "Year", Dir: Desc}}, nil); err != nil {
		t.Fatal(err)
	}
	want, err := s.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreState(s.Base(), data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if got.Table.String() != want.Table.String() {
		t.Fatalf("restored evaluation differs:\n%s\nvs\n%s", got.Table, want.Table)
	}
}

func TestWindowExplainAndCache(t *testing.T) {
	s := sheet()
	if _, err := s.WindowAs("R", relation.WinRank, "",
		[]string{"Model"}, []SortKey{{Column: "Price"}}, nil); err != nil {
		t.Fatal(err)
	}
	plan, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, st := range plan.Stages {
		if strings.HasPrefix(st.Name, "ω R") {
			found = true
			if st.Cached {
				t.Fatal("first evaluation reported the ω stage cached")
			}
		}
	}
	if !found {
		t.Fatalf("no ω stage in plan: %+v", plan.Stages)
	}
	// An ordering change outranks the window stage, so re-evaluation reuses
	// its snapshot.
	if err := s.Sort("Mileage", Asc); err != nil {
		t.Fatal(err)
	}
	plan, err = s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range plan.Stages {
		if strings.HasPrefix(st.Name, "ω R") && !st.Cached {
			t.Fatal("ω stage recomputed after an order-only change")
		}
	}
	// A depth-0 selection is shallower than the window: ω must recompute.
	if _, err := s.Select("Price > 14000"); err != nil {
		t.Fatal(err)
	}
	plan, err = s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range plan.Stages {
		if strings.HasPrefix(st.Name, "ω R") && st.Cached {
			t.Fatal("ω stage served stale snapshot across a shallower selection")
		}
	}
	// Survivors (Price > 14000 drops the 13500 Civic) read off in Mileage
	// order; ranks were computed before the Mileage sort, per partition.
	wantInts(t, colInts(t, s, "R"), 6, 5, 3, 4, 2, 1, 2, 1)
}

func TestWindowCarriesAcrossJoin(t *testing.T) {
	// Binary operators fold history into a new base; ω definitions carry
	// over and recompute against the joined relation (Sec. IV-B).
	s := sheet()
	if _, err := s.WindowAs("R", relation.WinRank, "", []string{"Model"},
		[]SortKey{{Column: "Price", Dir: Asc}}, nil); err != nil {
		t.Fatal(err)
	}
	d := New(dealers())
	if err := s.Join(d, "Model = Specialty"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	// Every car matches exactly one dealer, so the join is row-for-row and
	// the ranks match the pre-join sheet.
	if res.Table.Len() != 9 {
		t.Fatalf("joined rows = %d, want 9", res.Table.Len())
	}
	wantInts(t, colInts(t, s, "R"), 1, 2, 3, 4, 5, 6, 1, 2, 3)
}

func TestWindowBlocksBinaryWhenColumnDropped(t *testing.T) {
	s := sheet()
	if _, err := s.WindowAs("M", relation.WinSum, "Mileage", nil,
		[]SortKey{{Column: "ID", Dir: Asc}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Hide("Mileage"); err != nil {
		t.Fatal(err)
	}
	d := New(dealers())
	err := s.Product(d)
	if err == nil || !strings.Contains(err.Error(), "Mileage") {
		t.Fatalf("product with a dropped ω input should fail, got %v", err)
	}
}
