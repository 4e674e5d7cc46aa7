package expr

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

// Property tests for the vectorized backend's core contract: bit-identity
// with the interpreter. Random expression trees drawn from the vectorizer's
// full coverage run over random typed columns seeded with the adversarial
// values (-0, NaN, infinities, MinInt64, big ints past 2^53, NULLs
// everywhere), through both evaluators, and every lane must agree — same
// kind, same payload bits (floats compared via Float64bits), and the same
// first erring row, whose re-run yields the interpreter's exact error.

// batchPropCols is the test schema: every payload family, plus an
// all-NULL column.
var batchPropCols = relation.Schema{
	{Name: "I", Kind: value.KindInt},
	{Name: "J", Kind: value.KindInt},
	{Name: "F", Kind: value.KindFloat},
	{Name: "G", Kind: value.KindFloat},
	{Name: "S", Kind: value.KindString},
	{Name: "B", Kind: value.KindBool},
	{Name: "D", Kind: value.KindDate},
	{Name: "N", Kind: value.KindInt},
}

// genBatchRel builds a random relation over batchPropCols whose cells are
// drawn from pools of boundary values, with ~1 in 5 cells NULL (column N is
// always NULL).
func genBatchRel(rng *rand.Rand, n int) *relation.Relation {
	negZero := math.Copysign(0, -1)
	ints := []int64{0, 1, -1, 2, 7, 19999, 20000, 1 << 53, (1 << 53) + 1,
		1 << 62, math.MaxInt64, math.MinInt64}
	floats := []float64{0, negZero, 1, -1.5, 0.5, 1e300, -1e300,
		math.NaN(), math.Inf(1), math.Inf(-1), float64(1 << 53)}
	strs := []string{"", "a", "b", "ab", "Good", "Excellent", "zzz"}
	r := relation.New("prop", batchPropCols.Clone())
	for i := 0; i < n; i++ {
		cell := func(mk func() value.Value) value.Value {
			if rng.Intn(5) == 0 {
				return value.Null
			}
			return mk()
		}
		r.MustAppend(
			cell(func() value.Value { return value.NewInt(ints[rng.Intn(len(ints))]) }),
			cell(func() value.Value { return value.NewInt(ints[rng.Intn(len(ints))]) }),
			cell(func() value.Value { return value.NewFloat(floats[rng.Intn(len(floats))]) }),
			cell(func() value.Value { return value.NewFloat(floats[rng.Intn(len(floats))]) }),
			cell(func() value.Value { return value.NewString(strs[rng.Intn(len(strs))]) }),
			cell(func() value.Value { return value.NewBool(rng.Intn(2) == 0) }),
			cell(func() value.Value { return value.NewDateDays(int64(rng.Intn(40000) - 10000)) }),
			value.Null,
		)
	}
	return r
}

// batchFuncs is every scalar function of funcs.go plus an unknown name.
var batchFuncs = []string{"ABS", "ROUND", "FLOOR", "CEIL", "UPPER", "LOWER",
	"LENGTH", "SUBSTR", "IF", "COALESCE", "TRIM", "REPLACE", "SIGN", "POWER",
	"YEAR", "MONTH", "DAY", "NOSUCHFN"}

// genBatchExpr draws a random expression tree from the vectorizer's
// coverage: column refs (resolvable or not) and literals under
// comparisons, arithmetic, AND/OR/NOT, negation, IS [NOT] NULL, [NOT] IN,
// [NOT] BETWEEN, LIKE, || and scalar calls of every arity. Type mismatches,
// arity errors, division by zero and overflow are all in-distribution —
// they exercise the error-parity contract.
func genBatchExpr(rng *rand.Rand, depth int) Expr {
	lits := []value.Value{
		value.NewInt(0), value.NewInt(1), value.NewInt(-1), value.NewInt(7),
		value.NewInt(20000), value.NewInt(math.MaxInt64), value.NewInt(math.MinInt64),
		value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)),
		value.NewFloat(math.NaN()), value.NewFloat(math.Inf(1)), value.NewFloat(1.5),
		value.NewString(""), value.NewString("a"), value.NewString("Good"),
		value.NewBool(true), value.NewBool(false), value.Null,
		value.NewDateDays(12000),
	}
	patterns := []string{"%", "a%", "%d", "_", "G__d", "%oo%", "a_", "", "Excellent"}
	leaf := func() Expr {
		switch rng.Intn(20) {
		case 0:
			return &ColumnRef{Name: "Ghost"} // never resolves
		case 1:
			return &Literal{Val: value.NewString(patterns[rng.Intn(len(patterns))])}
		}
		if rng.Intn(2) == 0 {
			return &ColumnRef{Name: batchPropCols[rng.Intn(len(batchPropCols))].Name}
		}
		return &Literal{Val: lits[rng.Intn(len(lits))]}
	}
	if depth <= 0 || rng.Intn(4) == 0 {
		return leaf()
	}
	sub := func() Expr { return genBatchExpr(rng, depth-1) }
	switch rng.Intn(11) {
	case 0:
		ops := []BinaryOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
		return &Binary{Op: ops[rng.Intn(len(ops))], L: sub(), R: sub()}
	case 1:
		ops := []BinaryOp{OpAdd, OpSub, OpMul, OpDiv, OpMod}
		return &Binary{Op: ops[rng.Intn(len(ops))], L: sub(), R: sub()}
	case 2:
		ops := []BinaryOp{OpAnd, OpOr}
		return &Binary{Op: ops[rng.Intn(len(ops))], L: sub(), R: sub()}
	case 3:
		return &Unary{Op: OpNot, X: sub()}
	case 4:
		return &Unary{Op: OpNeg, X: sub()}
	case 5:
		return &IsNull{X: sub(), Negate: rng.Intn(2) == 0}
	case 6:
		items := make([]Expr, 1+rng.Intn(3))
		for i := range items {
			items[i] = sub()
		}
		return &InList{X: sub(), Items: items, Negate: rng.Intn(2) == 0}
	case 7:
		// LIKE: mostly a string column against a %/_ pattern, sometimes
		// arbitrary (non-string, NULL, erring) operands.
		if rng.Intn(2) == 0 {
			return &Binary{Op: OpLike, L: &ColumnRef{Name: "S"},
				R: &Literal{Val: value.NewString(patterns[rng.Intn(len(patterns))])}}
		}
		return &Binary{Op: OpLike, L: sub(), R: sub()}
	case 8:
		return &Binary{Op: OpConcat, L: sub(), R: sub()}
	case 9:
		args := make([]Expr, rng.Intn(4)) // 0..3 arguments: arity errors included
		for i := range args {
			args[i] = sub()
		}
		return &FuncCall{Name: batchFuncs[rng.Intn(len(batchFuncs))], Args: args}
	default:
		return &Between{X: sub(), Lo: sub(), Hi: sub(), Negate: rng.Intn(2) == 0}
	}
}

// bitIdentical is value identity at the representation level: same kind and
// same payload bits. Floats compare via Float64bits so -0 vs +0 and NaN
// payloads cannot silently diverge between the two backends.
func bitIdentical(a, b value.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case value.KindNull:
		return true
	case value.KindFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case value.KindString:
		return a.Str() == b.Str()
	case value.KindBool:
		return a.Bool() == b.Bool()
	case value.KindDate:
		return a.DateDays() == b.DateDays()
	default:
		return a.Int() == b.Int()
	}
}

func batchPropResolvers(r *relation.Relation) (BatchResolver, Resolver) {
	cols := r.Columns()
	batch := func(name string) (*relation.Col, bool) {
		if i := r.Schema.IndexOf(name); i >= 0 {
			return cols[i], true
		}
		return nil, false
	}
	row := func(name string) (int, bool) {
		if i := r.Schema.IndexOf(name); i >= 0 {
			return i, true
		}
		return 0, false
	}
	return batch, row
}

// firstRowErr runs the interpreter over rows in order (through idx when
// non-nil) and returns the position and error of the first erring row, or
// -1 and nil.
func firstRowErr(rows []relation.Tuple, idx []int32, lo, hi int, eval func(row []value.Value) error) (int, error) {
	for k := lo; k < hi; k++ {
		ri := k
		if idx != nil {
			ri = int(idx[k])
		}
		if err := eval(rows[ri]); err != nil {
			return k, err
		}
	}
	return -1, nil
}

// checkBadLane asserts the batch entry point flagged exactly the
// interpreter's first erring row, and that re-running that row — what every
// caller does — yields the interpreter's error string.
func checkBadLane(t *testing.T, what string, bad, wantBad int, wantErr error, rerun func(int) error) {
	t.Helper()
	if bad != wantBad {
		t.Fatalf("%s: batch flagged lane %d, interpreter first errs at %d (%v)", what, bad, wantBad, wantErr)
	}
	if bad < 0 {
		return
	}
	if got := rerun(bad); got == nil || got.Error() != wantErr.Error() {
		t.Fatalf("%s: re-run of lane %d gives %v, interpreter %v", what, bad, got, wantErr)
	}
}

// TestBatchBitIdentityProperty is the main property: for random expressions
// and random data, EvalPos and SelectInto agree with the interpreter on
// every lane — identical values (including float bit patterns and NULL
// tri-state) before the first erring row, and that row reported as the
// first erring lane.
func TestBatchBitIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 600; trial++ {
		n := 1 + rng.Intn(70)
		r := genBatchRel(rng, n)
		rows := r.TupleRows()
		e := genBatchExpr(rng, 3)
		batchRes, rowRes := batchPropResolvers(r)

		bp, err := CompileBatch(e, batchRes)
		if err != nil {
			t.Fatalf("trial %d: %s unexpectedly declined: %v", trial, e.SQL(), err)
		}
		rp, err := Compile(e, rowRes)
		if err != nil {
			t.Fatalf("trial %d: bind %s: %v", trial, e.SQL(), err)
		}
		what := fmt.Sprintf("trial %d: %s", trial, e.SQL())

		// Interpreter reference over the full window.
		want := make([]value.Value, n)
		wantBad, wantErr := firstRowErr(rows, nil, 0, n, func(row []value.Value) error {
			_, err := rp.Eval(row)
			return err
		})
		for i := 0; i < n && (wantBad < 0 || i < wantBad); i++ {
			want[i], _ = rp.Eval(rows[i])
		}

		out := make([]value.Value, n)
		bad := bp.EvalPos(nil, 0, n, value.KindInt, out)
		checkBadLane(t, what, bad, wantBad, wantErr, func(i int) error {
			_, err := Eval(e, rowMap(r, i))
			return err
		})
		for i := 0; i < n && (bad < 0 || i < bad); i++ {
			if !bitIdentical(want[i], out[i]) {
				t.Fatalf("%s: lane %d diverges: interpreter %s (%v) vs batch %s (%v)",
					what, i, want[i], want[i].Kind(), out[i], out[i].Kind())
			}
		}

		// Predicate parity: the surviving-row set of SelectInto matches
		// per-row EvalBool, and the first erring lane is EvalBool's.
		var survivors []int32
		selBad, selErr := firstRowErr(rows, nil, 0, n, func(row []value.Value) error {
			_, err := rp.EvalBool(row)
			return err
		})
		for i := 0; i < n && selBad < 0; i++ {
			if keep, _ := rp.EvalBool(rows[i]); keep {
				survivors = append(survivors, int32(i))
			}
		}
		dst := make([]int32, n)
		w, bad := bp.SelectInto(nil, 0, n, dst)
		checkBadLane(t, what+" (predicate)", bad, selBad, selErr, func(i int) error {
			_, err := EvalBool(e, rowMap(r, i))
			return err
		})
		if bad >= 0 {
			continue
		}
		if w != len(survivors) {
			t.Fatalf("%s: %d survivors, interpreter kept %d", what, w, len(survivors))
		}
		for i := range survivors {
			if dst[i] != survivors[i] {
				t.Fatalf("%s: survivor %d = row %d, interpreter kept %d", what, i, dst[i], survivors[i])
			}
		}
	}
}

// rowMap is row i of r as a by-name Env: the interpreter with no binding.
func rowMap(r *relation.Relation, i int) MapEnv {
	m := MapEnv{}
	for j, c := range r.Schema {
		m[c.Name] = r.TupleRows()[i][j]
	}
	return m
}

// TestBatchBitIdentityWindowed pins the indexed-window form: evaluating a
// sub-window of a shuffled (and duplicating) index vector must agree lane
// for lane with the interpreter applied to the indexed rows, EvalInto's
// KindFloat widening must match the coerce rule, and EvalIntoCol must fill
// the same cells (or report the same first erring lane).
func TestBatchBitIdentityWindowed(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(60)
		r := genBatchRel(rng, n)
		rows := r.TupleRows()
		e := genBatchExpr(rng, 3)
		batchRes, rowRes := batchPropResolvers(r)
		bp, err := CompileBatch(e, batchRes)
		if err != nil {
			t.Fatalf("trial %d: %s unexpectedly declined: %v", trial, e.SQL(), err)
		}
		rp, err := Compile(e, rowRes)
		if err != nil {
			t.Fatalf("trial %d: bind: %v", trial, err)
		}
		what := fmt.Sprintf("trial %d: %s", trial, e.SQL())

		m := 1 + rng.Intn(2*n)
		idx := make([]int32, m)
		for i := range idx {
			idx[i] = int32(rng.Intn(n)) // duplicates and gaps on purpose
		}
		lo := rng.Intn(m)
		hi := lo + 1 + rng.Intn(m-lo)

		wantBad, wantErr := firstRowErr(rows, idx, lo, hi, func(row []value.Value) error {
			_, err := rp.Eval(row)
			return err
		})
		rerun := func(k int) error {
			_, err := Eval(e, rowMap(r, int(idx[k])))
			return err
		}
		out := make([]value.Value, m)
		bad := bp.EvalPos(idx, lo, hi, value.KindFloat, out)
		checkBadLane(t, what, bad, wantBad, wantErr, rerun)
		checkBadLane(t, what+" (EvalInto)", bp.EvalInto(idx, lo, hi, value.KindFloat, make([]value.Value, n)),
			wantBad, wantErr, rerun)
		col := &relation.Col{Kind: value.KindFloat, Floats: make([]float64, n)}
		colBad, _ := bp.EvalIntoCol(idx, lo, hi, col, make([]uint8, n))
		checkBadLane(t, what+" (EvalIntoCol)", colBad, wantBad, wantErr, rerun)
		if bad >= 0 {
			continue
		}
		for k := lo; k < hi; k++ {
			v, _ := rp.Eval(rows[idx[k]])
			if v.Kind() == value.KindInt { // EvalPos(KindFloat) widens; mirror coerce
				v = value.NewFloat(float64(v.Int()))
			}
			if !bitIdentical(v, out[k]) {
				t.Fatalf("%s: window lane %d diverges: %s vs %s", what, k, v, out[k])
			}
		}
	}
}

// TestCompileBatchDeclines pins the coverage boundary: only subqueries
// decline; LIKE, ||, scalar calls, unresolvable names and row-context
// aggregate/window calls all compile (the latter to erring lanes).
func TestCompileBatchDeclines(t *testing.T) {
	r := genBatchRel(rand.New(rand.NewSource(1)), 4)
	batchRes, _ := batchPropResolvers(r)
	sub := &Subquery{Text: "SELECT 1"}
	for _, e := range []Expr{
		sub,
		&Exists{Sub: sub},
		&InSubquery{X: &ColumnRef{Name: "I"}, Sub: sub},
		&Binary{Op: OpAnd, L: MustParse("I > 1"), R: &Exists{Sub: sub}},
		&FuncCall{Name: "UPPER", Args: []Expr{sub}},
	} {
		if _, err := CompileBatch(e, batchRes); !errors.Is(err, ErrNotVectorizable) {
			t.Errorf("%s: err = %v, want ErrNotVectorizable", e.SQL(), err)
		}
	}
	for _, src := range []string{
		"S LIKE 'a%'",
		"S || 'x' = 'ax'",
		"UPPER(S) = 'A'",
		"Missing = 1",
		"I + 1 > 2 AND Q IS NULL",
		"SUM(I) > 1",
		"RANK() OVER (ORDER BY I) = 1",
	} {
		if _, err := CompileBatch(MustParse(src), batchRes); err != nil {
			t.Errorf("%s: declined: %v", src, err)
		}
	}
}

// TestBatchWindowBoundedAllocs caps the vectorized per-window overhead: one
// SelectInto call over 10k lanes must allocate a bounded number of vectors
// (operand and truth lanes), never per-lane boxes.
func TestBatchWindowBoundedAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	r := genBatchRel(rng, 10000)
	n := r.Len()
	batchRes, _ := batchPropResolvers(r)
	e, err := Parse("I < 20000 AND S IN ('a', 'Good', 'zzz')")
	if err != nil {
		t.Fatal(err)
	}
	bp, err := CompileBatch(e, batchRes)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int32, n)
	allocs := testing.AllocsPerRun(10, func() {
		bp.SelectInto(nil, 0, n, dst)
	})
	if allocs > 40 {
		t.Fatalf("SelectInto allocates %.0f times per 10k-lane window; per-lane allocation regressed", allocs)
	}
}

// subRowEnv is a row Env with the subquery capability: every subquery
// yields the fixed relation.
type subRowEnv struct {
	schema relation.Schema
	row    []value.Value
	res    *relation.Relation
}

func (e subRowEnv) Lookup(name string) (value.Value, bool) {
	if i := e.schema.IndexOf(name); i >= 0 {
		return e.row[i], true
	}
	return value.Null, false
}

func (e subRowEnv) EvalSubquery(*Subquery) (*relation.Relation, error) { return e.res, nil }

// TestBatchDeclineFallsBackIdentically is the decline story in miniature:
// the one shape the vectorizer declines, a subquery, evaluates through the
// interpreter with the same results the batch-covered equivalent produces.
func TestBatchDeclineFallsBackIdentically(t *testing.T) {
	r := genBatchRel(rand.New(rand.NewSource(7)), 50)
	rows := r.TupleRows()
	batchRes, _ := batchPropResolvers(r)
	inner := relation.New("sub", relation.Schema{{Name: "v", Kind: value.KindString}})
	inner.MustAppend(value.NewString("a"))
	inner.MustAppend(value.NewString("b"))
	declined := &InSubquery{X: &ColumnRef{Name: "S"}, Sub: &Subquery{Text: "SELECT v FROM sub"}}
	if _, err := CompileBatch(declined, batchRes); !errors.Is(err, ErrNotVectorizable) {
		t.Fatalf("subquery compiled: %v", err)
	}
	bp, err := CompileBatch(MustParse("S IN ('a', 'b')"), batchRes)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int32, len(rows))
	w, bad := bp.SelectInto(nil, 0, len(rows), dst)
	if bad >= 0 {
		t.Fatalf("covered predicate errs at lane %d", bad)
	}
	var kept []int32
	for i, row := range rows {
		ok, err := EvalBool(declined, subRowEnv{r.Schema, row, inner})
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if ok {
			kept = append(kept, int32(i))
		}
	}
	if fmt.Sprint(kept) != fmt.Sprint(dst[:w]) {
		t.Fatalf("interpreted subquery kept %v, batch IN kept %v", kept, dst[:w])
	}
	if !strings.Contains(ErrNotVectorizable.Error(), "not vectorizable") {
		t.Fatalf("sentinel error text changed: %v", ErrNotVectorizable)
	}
}
