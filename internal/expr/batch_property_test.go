package expr

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
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

// batchPropCols is the test schema: every payload family, an all-NULL
// column, and X, a Boxed column whose cells mix INT, FLOAT, STRING and
// NULL (its declared kind is never consulted).
var batchPropCols = relation.Schema{
	{Name: "I", Kind: value.KindInt},
	{Name: "J", Kind: value.KindInt},
	{Name: "F", Kind: value.KindFloat},
	{Name: "G", Kind: value.KindFloat},
	{Name: "S", Kind: value.KindString},
	{Name: "B", Kind: value.KindBool},
	{Name: "D", Kind: value.KindDate},
	{Name: "N", Kind: value.KindInt},
	{Name: "X", Kind: value.KindFloat},
}

// genBatchRel builds a random relation over batchPropCols whose cells are
// drawn from pools of boundary values, with ~1 in 5 cells NULL (column N is
// always NULL). The typed columns come from appended rows; X joins them as
// a Boxed column, which no appended row can produce.
func genBatchRel(rng *rand.Rand, n int) *relation.Relation {
	negZero := math.Copysign(0, -1)
	ints := []int64{0, 1, -1, 2, 7, 19999, 20000, 1 << 53, (1 << 53) + 1,
		1 << 62, math.MaxInt64, math.MinInt64}
	floats := []float64{0, negZero, 1, -1.5, 0.5, 1e300, -1e300,
		math.NaN(), math.Inf(1), math.Inf(-1), float64(1 << 53)}
	// ASCII words plus multibyte, case-changing (ß has no single-rune upper
	// case, İ lowers to a shorter string, ǅ is title case) and invalid
	// UTF-8 strings.
	strs := []string{"", "a", "b", "ab", "Good", "Excellent", "zzz",
		"ß", "İ", "ǅ", "é", "\xff", "Straße", "aé_"}
	typed := batchPropCols[:len(batchPropCols)-1]
	r := relation.New("prop", typed.Clone())
	mixed := make([]value.Value, n)
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
		mixed[i] = cell(func() value.Value {
			switch rng.Intn(3) {
			case 0:
				return value.NewInt(ints[rng.Intn(len(ints))])
			case 1:
				return value.NewFloat(floats[rng.Intn(len(floats))])
			}
			return value.NewString(strs[rng.Intn(len(strs))])
		})
	}
	cols := append(r.Columns(), relation.BoxedCol(mixed))
	return relation.FromColumns("prop", batchPropCols.Clone(), cols, n)
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
		value.NewString("ß"), value.NewString("İ"), value.NewString("ǅ"),
		value.NewString("é"), value.NewString("\xff"),
		value.NewBool(true), value.NewBool(false), value.Null,
		value.NewDateDays(12000),
	}
	// LIKE's _ matches one byte, so "_" misses the two-byte "é" and "__"
	// matches it.
	patterns := []string{"%", "a%", "%d", "_", "G__d", "%oo%", "a_", "", "Excellent",
		"__", "%é%", "Stra%e", "\xff%"}
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

// batchKernelShapes are the typed kernels' shapes — the walkthrough's θ
// formulas and LIKE σ, and their variants over every payload family and
// the Boxed column X — which the property tests check on fresh random
// relations alongside the random trees, so that their coverage does not
// hang on rare draws of genBatchExpr.
var batchKernelShapes = []string{
	"UPPER(S)", "LOWER(S)", "UPPER(X)", "UPPER(I)", "LOWER(N)", "UPPER('ǅß')",
	"UPPER(S) || '-' || S", "S || LOWER(X) || S", "UPPER(X) || I", "UPPER(I) || S", "X || '-' || S",
	"S || (LOWER(S) || N)", "(S || F) || (D || B)", "LOWER('Ab') || S",
	"I * 7 / 100 + J / 3", "I / J", "-(I / J)", "I / J + F", "(I / J) % J",
	"I / J / J - 1", "X / I", "I % J", "(I / J) * N", "I / J || S", "I / J < 1",
	"S LIKE 'a%'", "S LIKE X", "X LIKE 'a%'", "LOWER(S) LIKE '%é%'", "S LIKE '__'", "'Good' LIKE S", "S LIKE S",
	"I LIKE S", "(S LIKE 'a%') = TRUE", "N LIKE S",
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

// checkFirstErr asserts that an entry point's error is the interpreter's
// error for the first erring row, wantErr (nil when no row errs).
func checkFirstErr(t *testing.T, what string, err, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%s: batch error %v, interpreter's first %v", what, err, wantErr)
	}
}

// checkErrLane pins the lane an entry point's error comes from, not only
// its message: run over the first bad lanes returns no error, and over the
// first bad+1 it returns the interpreter's error for lane bad, wantErr. It
// checks nothing when no lane errs (bad < 0).
func checkErrLane(t *testing.T, what string, bad int, wantErr error, run func(lanes int) error) {
	t.Helper()
	if bad < 0 {
		return
	}
	if err := run(bad); err != nil {
		t.Fatalf("%s: the %d lanes before the first erring row err: %v", what, bad, err)
	}
	checkFirstErr(t, fmt.Sprintf("%s (through lane %d)", what, bad), run(bad+1), wantErr)
}

// widened returns vals with INT values widened to FLOAT when kind is FLOAT,
// as EvalCol's widen coerces them; other kinds leave vals as they are.
func widened(vals []value.Value, kind value.Kind) []value.Value {
	if kind != value.KindFloat {
		return vals
	}
	out := make([]value.Value, len(vals))
	for i, v := range vals {
		if v.Kind() == value.KindInt {
			v = value.NewFloat(float64(v.Int()))
		}
		out[i] = v
	}
	return out
}

// checkCol asserts that an EvalCol column holds want cell for cell —
// identical values, float bits and NULLs — in EvalCol's form: typed in kind
// when kind has a payload family and every non-NULL value has that kind,
// else relation.ValuesCol(want)'s.
func checkCol(t *testing.T, what string, col *relation.Col, want []value.Value, kind value.Kind) {
	t.Helper()
	if col == nil {
		t.Fatalf("%s: EvalCol returned no column and no error", what)
	}
	for i, w := range want {
		if got := col.Value(i); !bitIdentical(got, w) {
			t.Fatalf("%s: cell %d: batch %s (%v), interpreter %s (%v)", what, i, got, got.Kind(), w, w.Kind())
		}
	}
	form := relation.ValuesCol(want)
	if payloadCol(kind, 0) != nil && !slices.ContainsFunc(want, func(v value.Value) bool {
		return !v.IsNull() && v.Kind() != kind
	}) {
		form = &relation.Col{Kind: kind}
	}
	if (col.Boxed != nil) != (form.Boxed != nil) || (col.Boxed == nil && col.Kind != form.Kind) {
		t.Fatalf("%s: EvalCol(%s) built a %s column (boxed %v), want %s (boxed %v)",
			what, kind, col.Kind, col.Boxed != nil, form.Kind, form.Boxed != nil)
	}
}

// batchKinds are the kinds the property tests ask EvalCol for: every
// payload family, and KindNull, which has none.
var batchKinds = []value.Kind{value.KindInt, value.KindFloat, value.KindString,
	value.KindBool, value.KindDate, value.KindNull}

// firstKind is the kind of the first non-NULL value, or KindFloat.
func firstKind(vals []value.Value) value.Kind {
	for _, v := range vals {
		if !v.IsNull() {
			return v.Kind()
		}
	}
	return value.KindFloat
}

// TestBatchBitIdentityProperty is the main property: for random expressions
// (and the kernel shapes) and random data, EvalCol and Select agree with
// the interpreter on every lane — identical values (including float bit
// patterns and NULL tri-state) before the first erring row, in a column of
// a random kind with or without FLOAT widening, and that row's exact error
// as the entry point's error.
func TestBatchBitIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	const random = 600
	for trial := 0; trial < random+40*len(batchKernelShapes); trial++ {
		n := 1 + rng.Intn(70)
		r := genBatchRel(rng, n)
		rows := r.TupleRows()
		e := genBatchExpr(rng, 3)
		if trial >= random {
			e = MustParse(batchKernelShapes[trial%len(batchKernelShapes)])
		}
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

		// The kind asked for: the first clean lane's, so the typed form
		// is common, or any kind (KindNull has no payload family).
		kind, widen := batchKinds[rng.Intn(len(batchKinds))], rng.Intn(2) == 0
		if rng.Intn(2) == 0 {
			kind = firstKind(want)
		}
		wk := value.KindNull
		if widen {
			wk = kind
		}
		col, err := bp.EvalCol(nil, n, n, kind, rng.Intn(2) == 0, widen)
		checkFirstErr(t, what, err, wantErr)
		checkErrLane(t, what, wantBad, wantErr, func(lanes int) error {
			_, err := bp.EvalCol(nil, lanes, lanes, kind, true, widen)
			return err
		})
		if m := wantBad; m >= 0 {
			// The lanes before the first erring row, on their own.
			if col, err = bp.EvalCol(nil, m, m, kind, true, widen); err != nil {
				t.Fatalf("%s: the %d lanes before the first erring row err: %v", what, m, err)
			}
			checkCol(t, what, col, widened(want[:m], wk), kind)
		} else {
			checkCol(t, what, col, widened(want, wk), kind)
		}

		// Predicate parity: the surviving-row set of Select matches
		// per-row EvalBool, and its error is EvalBool's first.
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
		kept, err := bp.Select(nil, n)
		checkFirstErr(t, what+" (predicate)", err, selErr)
		checkErrLane(t, what+" (predicate)", selBad, selErr, func(lanes int) error {
			_, err := bp.Select(nil, lanes)
			return err
		})
		if err == nil && fmt.Sprint(kept) != fmt.Sprint(survivors) {
			t.Fatalf("%s: batch kept %v, interpreter kept %v", what, kept, survivors)
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

// TestBatchBitIdentityWindowed pins the indexed form: evaluating a
// sub-window of a shuffled index vector with gaps must agree lane for lane
// with the interpreter applied to the indexed rows, in both layouts —
// positional (pos, where the index duplicates rows on purpose) and at the
// base-row index (one lane per row, every other cell NULL). Into a FLOAT
// column with widening every value must match the coerce rule; into a
// column of the first non-NULL lane's kind the cells must match as
// payloads, typed while no lane's kind differs and by the values rule
// otherwise; and either call's error must be the first erring lane's.
func TestBatchBitIdentityWindowed(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	const random = 300
	for trial := 0; trial < random+20*len(batchKernelShapes); trial++ {
		n := 2 + rng.Intn(60)
		r := genBatchRel(rng, n)
		rows := r.TupleRows()
		e := genBatchExpr(rng, 3)
		if trial >= random {
			e = MustParse(batchKernelShapes[trial%len(batchKernelShapes)])
		}
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
		win := idx[lo : lo+1+rng.Intn(m-lo)]
		pos, size := trial%2 == 0, len(win)
		if !pos {
			// At the base-row index, two lanes of one row would write
			// one cell from two chunks: keep each row's first lane.
			seen := map[int32]bool{}
			var distinct []int32
			for _, ri := range win {
				if !seen[ri] {
					seen[ri] = true
					distinct = append(distinct, ri)
				}
			}
			win, size = distinct, n
		}
		what += fmt.Sprintf(" (pos %v)", pos)

		wantBad, wantErr := firstRowErr(rows, win, 0, len(win), func(row []value.Value) error {
			_, err := rp.Eval(row)
			return err
		})
		col, err := bp.EvalCol(win, len(win), size, value.KindFloat, pos, true)
		checkFirstErr(t, what, err, wantErr)
		checkErrLane(t, what, wantBad, wantErr, func(lanes int) error {
			_, err := bp.EvalCol(win[:lanes], lanes, size, value.KindFloat, pos, true)
			return err
		})
		if err != nil {
			continue
		}
		want := make([]value.Value, size)
		for k, ri := range win {
			want[cellOf(win, k, pos)], _ = rp.Eval(rows[ri])
		}
		checkCol(t, what+" (FLOAT)", col, widened(want, value.KindFloat), value.KindFloat)
		lanes := make([]value.Value, len(win))
		for k := range win {
			lanes[k] = widened(want, value.KindFloat)[cellOf(win, k, pos)]
		}
		target := firstKind(lanes)
		col, err = bp.EvalCol(win, len(win), size, target, pos, true)
		checkFirstErr(t, what, err, nil)
		checkCol(t, fmt.Sprintf("%s (%s)", what, target), col, widened(want, target), target)
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

// TestBatchWindowBoundedAllocs caps the vectorized per-window overhead: a
// window allocates a bounded number of vectors (operand, truth and result
// lanes, one backing string per string result), never per-lane boxes or
// strings, so the same window shape allocates as often at 1k lanes as at
// 10k.
func TestBatchWindowBoundedAllocs(t *testing.T) {
	for _, tc := range []struct {
		src  string
		eval func(bp *BatchProgram, n int) func()
	}{
		{"I < 20000 AND S IN ('a', 'Good', 'zzz')", func(bp *BatchProgram, n int) func() {
			dst := make([]int32, n)
			return func() { bp.selectInto(nil, 0, n, dst) }
		}},
		{"S || '-' || S", func(bp *BatchProgram, n int) func() {
			col := &relation.Col{Kind: value.KindString, Strs: make([]string, n)}
			filled := make([]uint8, n)
			return func() { bp.evalWindow(nil, 0, n, col, filled, false, false) }
		}},
	} {
		allocs := map[int]float64{}
		for _, n := range []int{1000, 10000} {
			r := genBatchRel(rand.New(rand.NewSource(17)), n)
			batchRes, _ := batchPropResolvers(r)
			bp, err := CompileBatch(MustParse(tc.src), batchRes)
			if err != nil {
				t.Fatal(err)
			}
			allocs[n] = testing.AllocsPerRun(10, tc.eval(bp, n))
		}
		if allocs[1000] != allocs[10000] || allocs[10000] > 40 {
			t.Errorf("%s: a window allocates %.0f times at 1k lanes and %.0f at 10k; per-lane allocation regressed",
				tc.src, allocs[1000], allocs[10000])
		}
	}
}

// TestBatchProgramConcurrentWindows pins BatchProgram's "no mutable
// state" contract, which chunked stages rely on when they share one
// program across goroutines: the walkthrough's formula and selection
// shapes, evaluated over disjoint windows from several goroutines into one
// output, give exactly the sequential result. Run it under -race.
func TestBatchProgramConcurrentWindows(t *testing.T) {
	const n, window = 4096, 256
	r := genBatchRel(rand.New(rand.NewSource(23)), n)
	batchRes, _ := batchPropResolvers(r)
	// forWindows runs fn over every window, one goroutine each when
	// concurrent, and waits for them.
	forWindows := func(concurrent bool, fn func(lo, hi int)) {
		var wg sync.WaitGroup
		for lo := 0; lo < n; lo += window {
			if !concurrent {
				fn(lo, lo+window)
				continue
			}
			wg.Add(1)
			go func(lo int) {
				defer wg.Done()
				fn(lo, lo+window)
			}(lo)
		}
		wg.Wait()
	}
	for _, tc := range []struct {
		src  string
		kind value.Kind
	}{
		{"I * 7 / 100 + J / 3", value.KindFloat},
		{"UPPER(S) || '-' || S", value.KindString},
		{"LOWER(S) LIKE 'a%' OR S LIKE '%é%'", value.KindBool},
	} {
		bp, err := CompileBatch(MustParse(tc.src), batchRes)
		if err != nil {
			t.Fatal(err)
		}
		type result struct {
			col    *relation.Col
			filled []uint8
			vals   []value.Value
			sel    []int32
			counts []int
		}
		run := func(concurrent bool) result {
			res := result{
				col:    &relation.Col{Kind: tc.kind, Ints: make([]int64, n), Floats: make([]float64, n), Strs: make([]string, n)},
				filled: make([]uint8, n),
				vals:   make([]value.Value, n),
				sel:    make([]int32, n),
				counts: make([]int, n/window),
			}
			widen := tc.kind == value.KindFloat
			forWindows(concurrent, func(lo, hi int) {
				if bad, vals := bp.evalWindow(nil, lo, hi, res.col, res.filled, false, widen); bad >= 0 || vals != nil {
					t.Errorf("%s: typed window [%d,%d): bad %d, left the kind %v", tc.src, lo, hi, bad, vals != nil)
				}
				bad, vals := bp.evalWindow(nil, lo, hi, nil, nil, false, widen)
				if bad >= 0 {
					t.Errorf("%s: boxed window [%d,%d): bad %d", tc.src, lo, hi, bad)
				}
				copy(res.vals[lo:hi], vals)
				if tc.kind == value.KindBool {
					cnt, bad := bp.selectInto(nil, lo, hi, res.sel[lo:])
					if bad >= 0 {
						t.Errorf("%s: selectInto [%d,%d): bad %d", tc.src, lo, hi, bad)
					}
					res.counts[lo/window] = cnt
				}
			})
			return res
		}
		seq, par := run(false), run(true)
		if !reflect.DeepEqual(seq.filled, par.filled) || !reflect.DeepEqual(seq.col, par.col) ||
			!reflect.DeepEqual(seq.sel, par.sel) || !reflect.DeepEqual(seq.counts, par.counts) {
			t.Fatalf("%s: concurrent windows disagree with sequential ones", tc.src)
		}
		for i := range seq.vals {
			if !bitIdentical(seq.vals[i], par.vals[i]) {
				t.Fatalf("%s: row %d: concurrent %v, sequential %v", tc.src, i, par.vals[i], seq.vals[i])
			}
		}
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
	batchKept, err := bp.Select(nil, len(rows))
	if err != nil {
		t.Fatalf("covered predicate errs: %v", err)
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
	if fmt.Sprint(kept) != fmt.Sprint(batchKept) {
		t.Fatalf("interpreted subquery kept %v, batch IN kept %v", kept, batchKept)
	}
	if !strings.Contains(ErrNotVectorizable.Error(), "not vectorizable") {
		t.Fatalf("sentinel error text changed: %v", ErrNotVectorizable)
	}
}

// chunked splits every entry point's lanes into several chunks for the
// rest of the test: a parallel threshold below any test relation, and
// GOMAXPROCS 4 so that a small host splits too.
func chunked(t *testing.T) {
	oldThreshold, oldProcs := relation.ParallelThreshold, runtime.GOMAXPROCS(4)
	relation.ParallelThreshold = 4
	t.Cleanup(func() {
		relation.ParallelThreshold = oldThreshold
		runtime.GOMAXPROCS(oldProcs)
	})
}

// chunkRel is 64 rows over ID (0..63), S ("s0".."s63") and B, a Boxed
// column holding FLOAT ID+0.5 on rows 0–15, STRING 'x' on row 50 and
// INTEGER ID elsewhere.
func chunkRel() *relation.Relation {
	const n = 64
	r := relation.New("chunks", relation.Schema{{Name: "ID", Kind: value.KindInt}, {Name: "S", Kind: value.KindString}})
	b := make([]value.Value, n)
	for i := 0; i < n; i++ {
		r.MustAppend(value.NewInt(int64(i)), value.NewString(fmt.Sprintf("s%d", i)))
		switch {
		case i < 16:
			b[i] = value.NewFloat(float64(i) + 0.5)
		case i == 50:
			b[i] = value.NewString("x")
		default:
			b[i] = value.NewInt(int64(i))
		}
	}
	schema := append(r.Schema.Clone(), relation.Column{Name: "B", Kind: value.KindFloat})
	return relation.FromColumns("chunks", schema, append(r.Columns(), relation.BoxedCol(b)), n)
}

// TestEvalColAcrossChunks pins EvalCol's merge of its chunks' results:
// lanes that leave the kind only in the last chunk give the values rule's
// column over every lane, a kind with no payload family gives it too, and
// an erring lane in a later chunk than a chunk whose lanes left the kind is
// still reported, as the interpreter's message for that row.
func TestEvalColAcrossChunks(t *testing.T) {
	chunked(t)
	r := chunkRel()
	n := r.Len()
	if len(relation.Chunks(n)) < 3 {
		t.Fatalf("%d rows split into %d chunks; the test needs at least 3", n, len(relation.Chunks(n)))
	}
	batchRes, _ := batchPropResolvers(r)
	// interp is the interpreter's value of e on every row, INT widened
	// into a FLOAT kind.
	interp := func(e Expr, kind value.Kind) []value.Value {
		vals := make([]value.Value, n)
		for i := range vals {
			v, err := Eval(e, rowMap(r, i))
			if err != nil {
				t.Fatalf("%s: row %d: %v", e.SQL(), i, err)
			}
			vals[i] = v
		}
		return widened(vals, kind)
	}
	for _, tc := range []struct {
		src  string
		kind value.Kind
	}{
		{"COALESCE(IF(ID >= 62, NULL, ID), S)", value.KindInt},   // the last chunk's lanes leave INT
		{"COALESCE(IF(ID >= 62, NULL, ID), S)", value.KindFloat}, // … widened
		{"COALESCE(IF(ID >= 62, NULL, ID), S)", value.KindNull},  // no payload family
		{"ID * 2", value.KindNull},                               // … one kind: typed
		{"IF(ID < 0, ID, NULL)", value.KindNull},                 // … every lane NULL
		{"IF(ID >= 62, S, NULL)", value.KindInt},                 // one other kind: typed in it
	} {
		e := MustParse(tc.src)
		bp, err := CompileBatch(e, batchRes)
		if err != nil {
			t.Fatal(err)
		}
		want := interp(e, tc.kind)
		col, err := bp.EvalCol(nil, n, n, tc.kind, true, true)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		what := fmt.Sprintf("%s as %s", tc.src, tc.kind)
		checkCol(t, what, col, want, tc.kind)
		form := relation.ValuesCol(want)
		if (col.Boxed != nil) != (form.Boxed != nil) || col.Kind != form.Kind {
			t.Fatalf("%s: EvalCol built a %s column (boxed %v), ValuesCol a %s one (boxed %v)",
				what, col.Kind, col.Boxed != nil, form.Kind, form.Boxed != nil)
		}
		// At the base-row index, over every other row in reverse: the
		// leaving lanes come first, and the skipped rows' cells are NULL.
		var idx []int32
		for i := n - 1; i >= 0; i -= 2 {
			idx = append(idx, int32(i))
		}
		sparse := make([]value.Value, n)
		for _, ri := range idx {
			sparse[ri] = want[ri]
		}
		if col, err = bp.EvalCol(idx, len(idx), n, tc.kind, false, true); err != nil {
			t.Fatalf("%s over every other row: %v", what, err)
		}
		checkCol(t, what+" over every other row", col, sparse, tc.kind)
	}

	// B / (ID - 40): FLOAT lanes in chunk 0 leave INT, row 40 divides by
	// zero and row 50 divides a string; the error is row 40's.
	e := MustParse("B / (ID - 40)")
	bp, err := CompileBatch(e, batchRes)
	if err != nil {
		t.Fatal(err)
	}
	_, want := Eval(e, rowMap(r, 40))
	_, later := Eval(e, rowMap(r, 50))
	if want == nil || later == nil || want.Error() == later.Error() {
		t.Fatalf("rows 40 and 50 must err differently: %v, %v", want, later)
	}
	for _, kind := range []value.Kind{value.KindInt, value.KindNull} {
		col, err := bp.EvalCol(nil, n, n, kind, true, false)
		if col != nil || err == nil || err.Error() != want.Error() {
			t.Fatalf("EvalCol(%s): column %v, error %v, want row 40's %v", kind, col != nil, err, want)
		}
	}
	pred := MustParse("B / (ID - 40) > 0")
	if bp, err = CompileBatch(pred, batchRes); err != nil {
		t.Fatal(err)
	}
	_, want = EvalBool(pred, rowMap(r, 40))
	if kept, err := bp.Select(nil, n); kept != nil || err == nil || err.Error() != want.Error() {
		t.Fatalf("Select: kept %v, error %v, want row 40's %v", kept, err, want)
	}
}
