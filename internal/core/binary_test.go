package core

import (
	"strings"
	"testing"

	"sheetmusiq/internal/dataset"
	"sheetmusiq/internal/obs"
	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

// dealers returns a second relation for binary-operator tests.
func dealers() *relation.Relation {
	r := relation.New("dealers", relation.Schema{
		{Name: "Dealer", Kind: value.KindString},
		{Name: "Specialty", Kind: value.KindString},
	})
	r.MustAppend(value.NewString("AnnArborAuto"), value.NewString("Jetta"))
	r.MustAppend(value.NewString("MotorCity"), value.NewString("Civic"))
	r.MustAppend(value.NewString("LibertyCars"), value.NewString("Corolla"))
	return r
}

func TestProductCarriesGroupingAndCount(t *testing.T) {
	s := New(dataset.UsedCars())
	if err := s.GroupBy(Asc, "Model"); err != nil {
		t.Fatal(err)
	}
	d := New(dealers())
	if err := s.Product(d); err != nil {
		t.Fatal(err)
	}
	res, err := s.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Len() != 9*3 {
		t.Fatalf("product rows = %d, want 27", res.Table.Len())
	}
	if len(s.Grouping()) != 1 {
		t.Fatal("product must keep the current spreadsheet's grouping")
	}
	if !res.Table.Schema.Has("Dealer") {
		t.Fatal("product should carry the stored sheet's columns")
	}
}

func TestJoin(t *testing.T) {
	s := New(dataset.UsedCars())
	if err := s.Sort("Price", Asc); err != nil {
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
	if res.Table.Len() != 9 {
		t.Fatalf("join rows = %d, want 9 (every car has a dealer)", res.Table.Len())
	}
	di := res.Table.Schema.IndexOf("Dealer")
	mi := res.Table.Schema.IndexOf("Model")
	for _, row := range res.Table.TupleRows() {
		want := "AnnArborAuto"
		if row[mi].Str() == "Civic" {
			want = "MotorCity"
		}
		if row[di].Str() != want {
			t.Fatalf("join row %v has dealer %v", row[mi], row[di])
		}
	}
	// Ordering survived the join.
	pi := res.Table.Schema.IndexOf("Price")
	if res.Table.TupleRows()[0][pi].Int() != 13500 {
		t.Fatal("join must keep the current sheet's ordering")
	}
}

func TestJoinInvalidCondition(t *testing.T) {
	s := New(dataset.UsedCars())
	d := New(dealers())
	if err := s.Join(d, "Model = NoSuchColumn"); err == nil {
		t.Fatal("invalid join condition must be reported immediately")
	}
	if err := s.Join(d, "Price + 1"); err == nil {
		t.Fatal("non-boolean join condition must fail")
	}
	if s.Version() != 0 {
		t.Fatal("failed join must not change the spreadsheet")
	}
}

func TestJoinColumnCollisionPrefixed(t *testing.T) {
	s := New(dataset.UsedCars())
	other := New(dataset.UsedCars())
	other.SetName("cars2")
	if err := s.Join(other, "Model = cars2_Model"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Table.Schema.Has("cars2_Model") {
		t.Fatalf("collided columns should be prefixed: %v", res.Table.Schema.Names())
	}
	// Self-join on Model: 6*6 Jetta pairs + 3*3 Civic pairs.
	if res.Table.Len() != 45 {
		t.Fatalf("self-join rows = %d, want 45", res.Table.Len())
	}
}

// TestJoinEquiDispatchesToHashKernel: a conjunctive cross-relation equality
// routes through the hash-join kernel (counter advances) and produces
// exactly the rows the theta pair scan produces for the same predicate.
func TestJoinEquiDispatchesToHashKernel(t *testing.T) {
	hashBefore := obs.Default.CounterValue("relation.join.hash")

	s := New(dataset.UsedCars())
	d := New(dealers())
	if err := s.Join(d, "Model = Specialty AND Price > 14000"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.Default.CounterValue("relation.join.hash"); got <= hashBefore {
		t.Fatal("equality condition must dispatch to the hash-join kernel")
	}

	// Reference: the same predicate wrapped so no key can be extracted
	// (OR with a false arm), forcing the theta pair scan.
	fallBefore := obs.Default.CounterValue("relation.join.fallback")
	ref := New(dataset.UsedCars())
	if err := ref.Join(d, "(Model = Specialty AND Price > 14000) OR 1 = 2"); err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.Default.CounterValue("relation.join.fallback"); got <= fallBefore {
		t.Fatal("OR condition must fall back to the theta pair scan")
	}
	if res.Table.Len() != refRes.Table.Len() {
		t.Fatalf("hash join rows = %d, theta join rows = %d", res.Table.Len(), refRes.Table.Len())
	}
	for i := range res.Table.TupleRows() {
		for j := range res.Table.TupleRows()[i] {
			if !value.Equal(res.Table.TupleRows()[i][j], refRes.Table.TupleRows()[i][j]) {
				t.Fatalf("row %d differs between hash and theta paths", i)
			}
		}
	}
}

func TestUnionAndDifferenceMultiset(t *testing.T) {
	s := New(dataset.UsedCars())
	d := New(dataset.UsedCars())
	if err := s.Union(d); err != nil {
		t.Fatal(err)
	}
	res, _ := s.Evaluate()
	if res.Table.Len() != 18 {
		t.Fatalf("union rows = %d, want 18 (multiset)", res.Table.Len())
	}
	if err := s.Difference(d); err != nil {
		t.Fatal(err)
	}
	res, _ = s.Evaluate()
	if res.Table.Len() != 9 {
		t.Fatalf("difference rows = %d, want 9 ({t,t}−{t}={t})", res.Table.Len())
	}
}

func TestUnionIncompatible(t *testing.T) {
	s := New(dataset.UsedCars())
	d := New(dealers())
	if err := s.Union(d); err == nil {
		t.Fatal("union of incompatible schemas must fail")
	}
}

func TestUnionFoldsSelections(t *testing.T) {
	// Selections made before the union are folded into the materialised
	// base (point of non-commutativity) and leave the rewritable state.
	s := New(dataset.UsedCars())
	if _, err := s.Select("Model = 'Jetta'"); err != nil {
		t.Fatal(err)
	}
	d := New(dataset.UsedCars())
	if err := s.Union(d); err != nil {
		t.Fatal(err)
	}
	if len(s.Selections("")) != 0 {
		t.Fatal("selections must be folded at a point of non-commutativity")
	}
	res, _ := s.Evaluate()
	if res.Table.Len() != 6+9 {
		t.Fatalf("rows = %d, want 15 (6 Jettas ∪ all 9)", res.Table.Len())
	}
}

func TestBinaryOpRecomputesComputedColumns(t *testing.T) {
	// Def. 7: computed columns are "updated such that computation is based
	// on the product".
	s := New(dataset.UsedCars())
	if _, err := s.AggregateAs("N", relation.AggCount, "ID", 1); err != nil {
		t.Fatal(err)
	}
	d := New(dealers())
	if err := s.Product(d); err != nil {
		t.Fatal(err)
	}
	res, err := s.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	ni := res.Table.Schema.IndexOf("N")
	if got := res.Table.TupleRows()[0][ni].Int(); got != 27 {
		t.Fatalf("COUNT after product = %d, want 27", got)
	}
}

func TestBinaryOpRejectsDanglingComputed(t *testing.T) {
	// A computed column whose input is hidden cannot survive a binary op;
	// the operator must refuse rather than silently drop it.
	s := New(dataset.UsedCars())
	if _, err := s.AggregateAs("AvgP", relation.AggAvg, "Price", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Hide("Price"); err != nil {
		t.Fatal(err)
	}
	d := New(dealers())
	if err := s.Product(d); err == nil {
		t.Fatal("product must refuse when a computed column's input is not carried")
	}
}

func TestProductAsymmetry(t *testing.T) {
	// S × S_s keeps S's grouping; S_s × S keeps S_s's — results differ.
	a := New(dataset.UsedCars())
	if err := a.GroupBy(Desc, "Model"); err != nil {
		t.Fatal(err)
	}
	b := New(dealers())

	a1 := a.Clone()
	if err := a1.Product(b); err != nil {
		t.Fatal(err)
	}
	b1 := b.Clone()
	if err := b1.Product(a); err != nil {
		t.Fatal(err)
	}
	r1, err := a1.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := b1.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(r1.Table.Schema.Names(), ",") == strings.Join(r2.Table.Schema.Names(), ",") {
		t.Fatal("product should be asymmetric in presentation")
	}
}

func TestCatalogSaveOpenClose(t *testing.T) {
	cat := NewCatalog()
	s := New(dataset.UsedCars())
	if _, err := s.Select("Model = 'Jetta'"); err != nil {
		t.Fatal(err)
	}
	if err := cat.Save("jettas", s); err != nil {
		t.Fatal(err)
	}
	// Mutating the original must not affect the stored copy.
	if _, err := s.Select("Price < 15000"); err != nil {
		t.Fatal(err)
	}
	stored, err := cat.Open("jettas")
	if err != nil {
		t.Fatal(err)
	}
	res, err := stored.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Len() != 6 {
		t.Fatalf("stored sheet rows = %d, want 6", res.Table.Len())
	}
	if names := cat.Names(); len(names) != 1 || names[0] != "jettas" {
		t.Fatalf("catalog names = %v", names)
	}
	if err := cat.Close("jettas"); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Open("jettas"); err == nil {
		t.Fatal("open after close must fail")
	}
	if err := cat.Close("jettas"); err == nil {
		t.Fatal("double close must fail")
	}
	if err := cat.Save("", s); err == nil {
		t.Fatal("empty name must fail")
	}
}

func TestStoredSheetAsOperand(t *testing.T) {
	cat := NewCatalog()
	s := New(dataset.UsedCars())
	if _, err := s.Select("Condition = 'Excellent'"); err != nil {
		t.Fatal(err)
	}
	if err := cat.Save("excellent", s); err != nil {
		t.Fatal(err)
	}
	cur := New(dataset.UsedCars())
	stored, err := cat.Stored("excellent")
	if err != nil {
		t.Fatal(err)
	}
	if err := cur.Difference(stored); err != nil {
		t.Fatal(err)
	}
	res, _ := cur.Evaluate()
	if res.Table.Len() != 5 {
		t.Fatalf("all − excellent = %d rows, want 5", res.Table.Len())
	}
}

func TestUndoAcrossBinaryOp(t *testing.T) {
	s := New(dataset.UsedCars())
	d := New(dealers())
	if err := s.Join(d, "Model = Specialty"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Undo(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Schema.Has("Dealer") {
		t.Fatal("undo must restore the pre-join base")
	}
	if res.Table.Len() != 9 {
		t.Fatalf("rows after undo = %d", res.Table.Len())
	}
}
