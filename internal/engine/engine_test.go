package engine

import (
	"encoding/json"
	"strings"
	"testing"

	"sheetmusiq/internal/core"
)

func must(t *testing.T, e *Engine, op Op) *Effect {
	t.Helper()
	eff, err := e.Apply(op)
	if err != nil {
		t.Fatalf("op %+v: %v", op, err)
	}
	return eff
}

func demoCars(t *testing.T) *Engine {
	t.Helper()
	e := New(nil)
	must(t, e, Op{Op: "demo", Table: "cars"})
	return e
}

func TestApplyWalkthrough(t *testing.T) {
	// The paper's Sam session (Sec. I-B) as structured ops.
	e := demoCars(t)
	sel := must(t, e, Op{Op: "select", Predicate: "Condition = 'Good' OR Condition = 'Excellent'"})
	if sel.ID != 1 {
		t.Fatalf("first selection id = %d, want 1", sel.ID)
	}
	if !strings.HasPrefix(sel.Entry, "σ") {
		t.Fatalf("selection entry %q should be the history line", sel.Entry)
	}
	must(t, e, Op{Op: "group", Dir: "desc", Columns: []string{"Model"}})
	must(t, e, Op{Op: "group", Dir: "asc", Columns: []string{"Year"}})
	must(t, e, Op{Op: "sort", Column: "Price", Dir: "asc"})
	agg := must(t, e, Op{Op: "agg", Fn: "avg", Column: "Price", Level: 3, Name: "Avg_Price"})
	if agg.Column != "Avg_Price" {
		t.Fatalf("agg created column %q", agg.Column)
	}
	must(t, e, Op{Op: "select", Predicate: "Price < Avg_Price"})
	grid, err := e.Grid(0)
	if err != nil {
		t.Fatal(err)
	}
	if grid.Columns[len(grid.Columns)-1] != "Avg_Price" {
		t.Fatalf("grid columns: %v", grid.Columns)
	}
	if grid.Total == 0 || len(grid.Rows) != grid.Total {
		t.Fatalf("grid rows %d total %d", len(grid.Rows), grid.Total)
	}
	if e.Version() != 6 {
		t.Fatalf("version = %d, want 6", e.Version())
	}
}

func TestApplyModifyUndoRedo(t *testing.T) {
	e := demoCars(t)
	sel := must(t, e, Op{Op: "select", Predicate: "Year = 2005"})
	must(t, e, Op{Op: "modify", ID: sel.ID, Predicate: "Year = 2006"})
	grid, err := e.Grid(0)
	if err != nil {
		t.Fatal(err)
	}
	if grid.Total != 5 {
		t.Fatalf("2006 cars = %d, want 5", grid.Total)
	}
	und := must(t, e, Op{Op: "undo"})
	if !strings.Contains(und.Entry, "modify") {
		t.Fatalf("undo entry %q", und.Entry)
	}
	red := must(t, e, Op{Op: "redo"})
	if !strings.Contains(red.Entry, "modify") {
		t.Fatalf("redo entry %q", red.Entry)
	}
}

func TestApplyBinaryViaSharedCatalog(t *testing.T) {
	cat := core.NewCatalog()
	a := New(cat)
	must(t, a, Op{Op: "demo", Table: "cars"})
	must(t, a, Op{Op: "select", Predicate: "Condition = 'Excellent'"})
	must(t, a, Op{Op: "save", Name: "nice"})

	// A different session sharing the catalog consumes the stored sheet.
	b := New(cat)
	must(t, b, Op{Op: "demo", Table: "cars"})
	must(t, b, Op{Op: "minus", Sheet: "nice"})
	grid, err := b.Grid(0)
	if err != nil {
		t.Fatal(err)
	}
	if grid.Total != 5 {
		t.Fatalf("9 − 4 excellent = %d, want 5", grid.Total)
	}
}

func TestApplyRenameSheet(t *testing.T) {
	e := demoCars(t)
	must(t, e, Op{Op: "save", Name: "a"})
	must(t, e, Op{Op: "renamesheet", Sheet: "a", Name: "b"})
	if names := e.StoredNames(); len(names) != 1 || names[0] != "b" {
		t.Fatalf("stored names after rename: %v", names)
	}
	if _, err := e.Apply(Op{Op: "renamesheet", Sheet: "a", Name: "c"}); err == nil {
		t.Fatal("renaming a missing stored sheet must fail")
	}
}

func TestStateAndTree(t *testing.T) {
	e := demoCars(t)
	must(t, e, Op{Op: "select", Predicate: "Year = 2005"})
	must(t, e, Op{Op: "group", Dir: "asc", Columns: []string{"Model"}})
	must(t, e, Op{Op: "agg", Fn: "count", Column: "ID", Level: 2, Name: "N"})
	must(t, e, Op{Op: "distinct"})
	st, err := e.State()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Selections) != 1 || !strings.Contains(st.Selections[0].SQL, "Year = 2005") {
		t.Fatalf("state selections: %+v", st.Selections)
	}
	if len(st.Computed) != 1 || st.Computed[0].Kind != "aggregate" || st.Computed[0].Level != 2 {
		t.Fatalf("state computed: %+v", st.Computed)
	}
	if len(st.Grouping) != 1 || st.Grouping[0].Level != 2 || st.Grouping[0].Rel[0] != "Model" {
		t.Fatalf("state grouping: %+v", st.Grouping)
	}
	if len(st.DistinctOn) == 0 {
		t.Fatalf("state should record the distinct column set")
	}
	tree, err := e.Tree()
	if err != nil {
		t.Fatal(err)
	}
	if tree.Level != 1 || len(tree.Children) != 2 {
		t.Fatalf("tree root: %+v", tree)
	}
	if tree.Children[0].Key[0] != "Civic" || tree.Children[0].Basis[0] != "Model" {
		t.Fatalf("first group: %+v", tree.Children[0])
	}
	// The tree serialises cleanly.
	if _, err := json.Marshal(tree); err != nil {
		t.Fatal(err)
	}
}

// TestGridPageIsPrefixOfFullGrid: a limited grid is the first limit rows
// of the full grid with the same Total, limits past the end included. The
// pages render first, while the evaluated table is still unread, so they
// take the page-only path; one sheet shares base tuples, the other defers
// its gather behind a computed column.
func TestGridPageIsPrefixOfFullGrid(t *testing.T) {
	plain := demoCars(t)
	must(t, plain, Op{Op: "select", Predicate: "Year >= 2005"})
	must(t, plain, Op{Op: "sort", Column: "Price", Dir: "desc"})
	computed := demoCars(t)
	must(t, computed, Op{Op: "select", Predicate: "Condition = 'Good' OR Condition = 'Excellent'"})
	must(t, computed, Op{Op: "group", Dir: "desc", Columns: []string{"Model"}})
	must(t, computed, Op{Op: "sort", Column: "Price", Dir: "asc"})
	must(t, computed, Op{Op: "agg", Fn: "avg", Column: "Price", Level: 2, Name: "AvgP"})
	for name, e := range map[string]*Engine{"shared base tuples": plain, "deferred gather": computed} {
		res, err := e.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		total := res.Table.Len()
		var pages []*Grid
		limits := []int{1, 2, total - 1, total, total + 5}
		for _, k := range limits {
			g, err := e.Grid(k)
			if err != nil {
				t.Fatal(err)
			}
			pages = append(pages, g)
		}
		full, err := e.Grid(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Rows) != full.Total || full.Total < 3 {
			t.Fatalf("%s: full grid has %d rows, total %d", name, len(full.Rows), full.Total)
		}
		for i, g := range pages {
			want := min(limits[i], full.Total)
			if g.Total != full.Total || strings.Join(g.Columns, ",") != strings.Join(full.Columns, ",") {
				t.Fatalf("%s: Grid(%d) total %d columns %v, want %d %v", name, limits[i], g.Total, g.Columns, full.Total, full.Columns)
			}
			if len(g.Rows) != want {
				t.Fatalf("%s: Grid(%d) has %d rows, want %d", name, limits[i], len(g.Rows), want)
			}
			for r := range g.Rows {
				if strings.Join(g.Rows[r], "|") != strings.Join(full.Rows[r], "|") {
					t.Fatalf("%s: Grid(%d) row %d = %v, want %v", name, limits[i], r, g.Rows[r], full.Rows[r])
				}
			}
		}
	}
}

func TestMenuInfo(t *testing.T) {
	e := demoCars(t)
	must(t, e, Op{Op: "select", Predicate: "Price < 16000"})
	m, err := e.Menu("Price")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, op := range m.FilterOps {
		if op == "BETWEEN" {
			found = true
		}
	}
	if !found {
		t.Fatalf("numeric menu should offer BETWEEN: %+v", m)
	}
	if len(m.Selections) != 1 {
		t.Fatalf("menu should surface the existing predicate: %+v", m.Selections)
	}
	if _, err := e.Menu("Nope"); err == nil {
		t.Fatal("menu over unknown column must fail")
	}
}

func TestOpJSONRoundTrip(t *testing.T) {
	// The wire format: a JSON body decodes to the op the REPL would build.
	var op Op
	body := `{"op":"agg","fn":"avg","column":"Price","level":3,"name":"Avg_Price"}`
	if err := json.Unmarshal([]byte(body), &op); err != nil {
		t.Fatal(err)
	}
	e := demoCars(t)
	must(t, e, Op{Op: "group", Dir: "desc", Columns: []string{"Model"}})
	must(t, e, Op{Op: "group", Dir: "asc", Columns: []string{"Year"}})
	eff := must(t, e, op)
	if eff.Column != "Avg_Price" || eff.Version != 3 {
		t.Fatalf("effect: %+v", eff)
	}
}

func TestErrorsAndGates(t *testing.T) {
	e := New(nil)
	cases := []Op{
		{Op: "frobnicate"},
		{Op: "select", Predicate: "Price < 1"}, // no sheet yet
		{Op: "use", Table: "nothere"},
		{Op: "open", Name: "nothere"},
		{Op: "demo", Table: "nothere"},
	}
	for _, op := range cases {
		if _, err := e.Apply(op); err == nil {
			t.Errorf("op %+v should fail", op)
		}
	}
	must(t, e, Op{Op: "demo", Table: "cars"})
	for _, op := range []Op{
		{Op: "group", Dir: "sideways", Columns: []string{"Model"}},
		{Op: "agg", Fn: "median", Column: "Price", Level: 1},
		{Op: "agg", Fn: "avg", Column: "Price", Level: 9},
		{Op: "modify", ID: 9, Predicate: "Year = 1"},
		{Op: "join", Sheet: "nothere", On: "1 = 1"},
		{Op: "join", Sheet: "cars"}, // missing ON
		{Op: "compile", Query: "SELEC * FROM"},
		{Op: "save"}, // missing name
	} {
		if _, err := e.Apply(op); err == nil {
			t.Errorf("op %+v should fail", op)
		}
	}
	// Filesystem gating is the op's own property, not a server guess, and
	// it must match in every spelling dispatch accepts — a case-sensitive
	// gate over a case-insensitive dispatcher is a bypass.
	for _, kind := range []string{
		"load", "savestate", "loadstate", "export",
		"Load", "SaveState", "LoadState", "Export", "EXPORT",
	} {
		if !(Op{Op: kind}).TouchesFilesystem() {
			t.Errorf("op %s should report TouchesFilesystem", kind)
		}
	}
	if (Op{Op: "select"}).TouchesFilesystem() {
		t.Error("select must not report TouchesFilesystem")
	}
}

func TestRunSQLAndSQLGen(t *testing.T) {
	e := demoCars(t)
	rel, err := e.RunSQL("SELECT Model, COUNT(*) AS n FROM cars GROUP BY Model ORDER BY Model")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("model groups = %d, want 2", rel.Len())
	}
	must(t, e, Op{Op: "select", Predicate: "Year = 2005"})
	sqlText, err := e.SQL()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sqlText, "SELECT") {
		t.Fatalf("generated SQL: %s", sqlText)
	}
	stages, err := e.Stages()
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) == 0 {
		t.Fatal("expected at least one stage")
	}
}

func TestCompileOp(t *testing.T) {
	e := demoCars(t)
	eff := must(t, e, Op{Op: "compile",
		Query: "SELECT Model, AVG(Price) AS ap FROM cars WHERE Year = 2005 GROUP BY Model ORDER BY Model"})
	joined := strings.Join(eff.Log, "\n")
	if !strings.Contains(joined, "step 3: τ Model") {
		t.Fatalf("compile log: %v", eff.Log)
	}
	if !e.HasSheet() || e.Version() == 0 {
		t.Fatal("compile should install a live sheet")
	}
}
