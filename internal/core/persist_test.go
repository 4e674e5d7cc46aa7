package core

import (
	"encoding/json"
	"strings"
	"testing"

	"sheetmusiq/internal/dataset"
	"sheetmusiq/internal/expr"
	"sheetmusiq/internal/relation"
)

// richSheet builds a state exercising every persisted feature.
func richSheet(t *testing.T) *Spreadsheet {
	t.Helper()
	s := New(dataset.UsedCars())
	if _, err := s.Select("Condition IN ('Good', 'Excellent')"); err != nil {
		t.Fatal(err)
	}
	if err := s.GroupBy(Desc, "Model"); err != nil {
		t.Fatal(err)
	}
	if err := s.GroupBy(Asc, "Year"); err != nil {
		t.Fatal(err)
	}
	if err := s.Sort("Price", Asc); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AggregateAs("AvgP", relation.AggAvg, "Price", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Formula("Delta", "Price - AvgP"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Select("Delta < 500"); err != nil {
		t.Fatal(err)
	}
	if err := s.Hide("Mileage"); err != nil {
		t.Fatal(err)
	}
	if err := s.OrderGroupsBy(1, "Model", Desc); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStateRoundTrip(t *testing.T) {
	orig := richSheet(t)
	want, err := orig.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	data, err := orig.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreState(dataset.UsedCars(), data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if got.Render() != want.Render() {
		t.Fatalf("restored state diverges:\n%s\nvs\n%s", got.Render(), want.Render())
	}
	if len(restored.History()) != len(orig.History()) {
		t.Fatal("operation log not restored")
	}
	// The restored sheet remains fully modifiable.
	sels := restored.Selections("Condition")
	if len(sels) != 1 {
		t.Fatalf("selections after restore: %v", restored.Selections(""))
	}
	if err := restored.ReplaceSelection(sels[0].ID, "Condition = 'Good'"); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Evaluate(); err != nil {
		t.Fatal(err)
	}
}

func TestStateRoundTripDistinct(t *testing.T) {
	s := New(dataset.UsedCars())
	for _, c := range []string{"ID", "Price", "Year", "Mileage", "Condition"} {
		if err := s.Hide(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Distinct(); err != nil {
		t.Fatal(err)
	}
	data, err := s.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreState(dataset.UsedCars(), data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := restored.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Len() != 2 {
		t.Fatalf("restored DE lost: %d rows", res.Table.Len())
	}
}

func TestRestoreRejectsWrongBase(t *testing.T) {
	s := richSheet(t)
	data, err := s.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	// Wrong relation name.
	other := dataset.UsedCars()
	other.Name = "trucks"
	if _, err := RestoreState(other, data); err == nil {
		t.Fatal("restore against a differently-named base must fail")
	}
	// Wrong schema.
	narrow, err := dataset.UsedCars().Project([]string{"ID", "Model"})
	if err != nil {
		t.Fatal(err)
	}
	narrow.Name = "cars"
	if _, err := RestoreState(narrow, data); err == nil {
		t.Fatal("restore against a narrower base must fail")
	}
}

func TestRestoreRejectsCorruptState(t *testing.T) {
	base := dataset.UsedCars()
	valid, err := richSheet(t).MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(m map[string]any)) []byte {
		var m map[string]any
		if err := json.Unmarshal(valid, &m); err != nil {
			t.Fatal(err)
		}
		mutate(m)
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	cases := map[string][]byte{
		"not json":    []byte("{nope"),
		"bad format":  corrupt(func(m map[string]any) { m["format"] = 99 }),
		"bad dir":     corrupt(func(m map[string]any) { m["grouping"].([]any)[0].(map[string]any)["dir"] = "SIDEWAYS" }),
		"empty level": corrupt(func(m map[string]any) { m["grouping"].([]any)[0].(map[string]any)["rel"] = []any{} }),
		"bad formula": corrupt(func(m map[string]any) { m["computed"].([]any)[1].(map[string]any)["formula"] = "((" }),
		"bad agg fn":  corrupt(func(m map[string]any) { m["computed"].([]any)[0].(map[string]any)["agg"] = "MEDIAN" }),
		"bad agg lvl": corrupt(func(m map[string]any) { m["computed"].([]any)[0].(map[string]any)["level"] = 9.0 }),
		"bad pred":    corrupt(func(m map[string]any) { m["selections"].([]any)[0].(map[string]any)["pred"] = "Nope = 1" }),
		"bad kind":    corrupt(func(m map[string]any) { m["computed"].([]any)[0].(map[string]any)["kind"] = "window" }),
	}
	for name, data := range cases {
		if _, err := RestoreState(base, data); err == nil {
			t.Errorf("%s: restore should fail", name)
		}
	}
}

func TestStateJSONIsReadable(t *testing.T) {
	data, err := richSheet(t).MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{`"base_name": "cars"`, `"agg": "AVG"`, `"pred"`, `"by": "Model"`} {
		if !strings.Contains(text, want) {
			t.Errorf("state JSON missing %q:\n%s", want, text)
		}
	}
}

func TestSchemaFingerprint(t *testing.T) {
	a := New(dataset.UsedCars()).SchemaFingerprint()
	if !strings.Contains(a, "Price:INTEGER") {
		t.Errorf("fingerprint = %q", a)
	}
	narrow, _ := dataset.UsedCars().Project([]string{"ID"})
	if New(narrow).SchemaFingerprint() == a {
		t.Error("different schemas must fingerprint differently")
	}
}

// unitPriceCars is the demo relation with Price renamed to "Unit Price", a
// name every printed definition must quote.
func unitPriceCars() *relation.Relation {
	r := dataset.UsedCars()
	schema := r.Schema.Clone()
	schema[schema.IndexOf("Price")].Name = "Unit Price"
	return r.WithSchema(schema)
}

// TestWindowQuotedColumnRoundTrip: a window over a column whose name needs
// quoting prints its OVER text through expr's printer, so both persisted
// documents read back, with the grid, history, version and undo stack.
func TestWindowQuotedColumnRoundTrip(t *testing.T) {
	s := New(unitPriceCars())
	e, err := expr.Parse(`SUM("Unit Price") OVER (ORDER BY Year)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WindowExprAs("W", e.(*expr.WindowCall)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WindowAs("R", relation.WinRank, "", []string{"Model"},
		[]SortKey{{Column: "Unit Price", Dir: Desc}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Select("R <= 2"); err != nil {
		t.Fatal(err)
	}
	if want := `ω W = SUM("Unit Price") OVER (ORDER BY Year)`; s.History()[0] != want {
		t.Fatalf("history reads %q, want %q", s.History()[0], want)
	}
	want, err := s.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	check := func(doc string, got *Spreadsheet) {
		t.Helper()
		res, err := got.Evaluate()
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		if res.Render() != want.Render() {
			t.Fatalf("%s: restored grid differs:\n%s\nvs\n%s", doc, res.Render(), want.Render())
		}
		if strings.Join(got.History(), "\n") != strings.Join(s.History(), "\n") {
			t.Fatalf("%s: history %q, want %q", doc, got.History(), s.History())
		}
	}
	data, err := s.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreState(unitPriceCars(), data)
	if err != nil {
		t.Fatal(err)
	}
	check("state", restored)
	full, err := s.MarshalFull()
	if err != nil {
		t.Fatal(err)
	}
	restored, err = RestoreFull(s.Base(), full)
	if err != nil {
		t.Fatal(err)
	}
	check("full", restored)
	if restored.Version() != s.Version() || restored.UndoDepth() != s.UndoDepth() {
		t.Fatalf("full: version %d undo %d, want %d and %d",
			restored.Version(), restored.UndoDepth(), s.Version(), s.UndoDepth())
	}
	if _, err := restored.Undo(); err != nil {
		t.Fatal(err)
	}
	if len(restored.ComputedColumns()) != 2 || len(restored.Selections("")) != 0 {
		t.Fatal("full: undo did not restore the state before the selection")
	}
}
