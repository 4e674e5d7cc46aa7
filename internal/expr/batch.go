package expr

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

	"sheetmusiq/internal/obs"
	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

// Vectorized expression backend. CompileBatch turns an expression tree into
// a program that evaluates a whole chunk of rows per call against typed
// column vectors (relation.Col), instead of one boxed row at a time. It has
// two entry points: a selection returns its surviving-index vector
// (Select) and a formula its column (EvalCol), with comparison and
// arithmetic running as tight loops over int64/float64/string payload
// arrays.
//
// The contract is bit-identity with the interpreter (Eval): every value,
// NULL and error outcome matches the row-at-a-time path exactly. Errors are
// tracked as a per-lane bitmap — a lane's bit is set iff evaluating that row
// through Eval would return an error, including the short-circuit
// suppression rules (AND/OR skip the right side's errors on deciding lanes;
// IN stops at the first match). When a lane errs, the entry point rebuilds
// the first erring lane's row from the columns its resolver handed the
// compiler and returns the interpreter's error for it — the exact error,
// and the first one in lane order, since the bitmap is exact.
//
// Each node picks its kernel per window from its operand vectors' kinds,
// which typed columns and literals fix. Over typed lanes nothing is boxed:
// arithmetic (integer division yields a per-lane INT/FLOAT numeric vector),
// comparison, IN, a fused a || b || … chain (one backing string per
// window), UPPER/LOWER and LIKE. A function's per-value rule has one
// definition that both evaluators call (value.IntArith/FloatArith,
// appendCase, likeMatch, Value.String for ||); the kernels derive only the
// NULL and error lanes from the operand kinds. Boxed operands (a Boxed
// column, kindDynamic) and the other scalar functions go through laneWise,
// which boxes each lane and calls the interpreter's own function.
// Unresolvable names, aggregate and window calls in row context, and *
// compile to nodes that err on every lane (zero rows stay silent). Only
// subqueries decline, with ErrNotVectorizable, counted by the
// expr.batch.ok/declined pair: they need the statement scope only the
// interpreter's Env carries.

// BatchResolver maps a column name to the typed column vector a batch
// program reads it from. It is consulted at compile time, and again only
// to rebuild an erring lane's row, possibly from several chunks at once,
// so it must answer the same every time and be safe for concurrent use.
type BatchResolver func(name string) (*relation.Col, bool)

// ErrNotVectorizable marks expressions the batch compiler declines (those
// nesting a subquery); callers evaluate them through the interpreter.
var ErrNotVectorizable = errors.New("expr: expression is not vectorizable")

// Batch compile outcome counters.
var (
	batchOK       = obs.Default.Counter("expr.batch.ok")
	batchDeclined = obs.Default.Counter("expr.batch.declined")
)

// kindDynamic marks a lane vector carrying boxed values of per-lane kind —
// the escape hatch for Boxed columns and what laneWise builds once its
// results' kinds mix.
const kindDynamic value.Kind = 0xFF

// kindNumeric marks a lane vector whose lanes are INT or FLOAT per lane:
// integer division's result, and arithmetic over it. Lane k's ints slot
// holds the integer, or the float's bits (math.Float64bits) when bit k of
// isFloat is set. A vector with no FLOAT lane is built as KindInt instead.
const kindNumeric value.Kind = 0xFE

// bctx addresses one evaluation window: lanes k in [0,n) map to cell index
// rows[lo+k] of the base columns, or lo+k when rows is nil.
type bctx struct {
	rows []int32
	lo   int
	n    int
}

// bvec is one operand or result vector over a window's lanes. kind selects
// the payload family (KindNull = every lane NULL, kindDynamic = boxed vals,
// kindNumeric = ints plus isFloat); scalar marks a one-slot payload
// broadcast to every lane. nulls, errs and isFloat are lane-indexed
// bitmaps; payload slots of NULL or erring lanes hold zero values and are
// never trusted.
type bvec struct {
	kind    value.Kind
	scalar  bool
	ints    []int64
	floats  []float64
	strs    []string
	vals    []value.Value
	nulls   []uint64
	errs    []uint64
	isFloat []uint64
}

// pi maps a lane to its payload slot (0 for scalars).
func (v *bvec) pi(k int) int {
	if v.scalar {
		return 0
	}
	return k
}

// null reports whether lane k is NULL.
func (v *bvec) null(k int) bool {
	switch v.kind {
	case value.KindNull:
		return true
	case kindDynamic:
		return v.vals[v.pi(k)].IsNull()
	}
	return relation.BitGet(v.nulls, k)
}

// lane boxes lane k back into a value.
func (v *bvec) lane(k int) value.Value {
	switch v.kind {
	case value.KindNull:
		return value.Null
	case kindDynamic:
		return v.vals[v.pi(k)]
	}
	if relation.BitGet(v.nulls, k) {
		return value.Null
	}
	p := v.pi(k)
	switch v.kind {
	case kindNumeric:
		i, f, isFloat := v.num(k)
		if isFloat {
			return value.NewFloat(f)
		}
		return value.NewInt(i)
	case value.KindInt:
		return value.NewInt(v.ints[p])
	case value.KindFloat:
		return value.NewFloat(v.floats[p])
	case value.KindString:
		return value.NewString(v.strs[p])
	case value.KindBool:
		return value.NewBool(v.ints[p] != 0)
	case value.KindDate:
		return value.NewDateDays(v.ints[p])
	}
	return value.Null
}

// num returns lane k of an INT, FLOAT or numeric vector unboxed: the
// integer (for INT lanes), the lane widened to float64 as AsFloat does, and
// whether the lane is FLOAT.
func (v *bvec) num(k int) (i int64, f float64, isFloat bool) {
	if v.kind == value.KindFloat {
		return 0, v.floats[v.pi(k)], true
	}
	i = v.ints[v.pi(k)]
	if relation.BitGet(v.isFloat, k) {
		return 0, math.Float64frombits(uint64(i)), true
	}
	return i, float64(i), false
}

// unionBits ORs the given lane bitmaps into a freshly allocated one (nil
// when every part is nil). The result is safe to mutate; the parts are not
// touched.
func unionBits(n int, parts ...[]uint64) []uint64 {
	var out []uint64
	for _, p := range parts {
		if p == nil {
			continue
		}
		if out == nil {
			out = make([]uint64, (n+63)/64)
		}
		for i := range p {
			out[i] |= p[i]
		}
	}
	return out
}

// setBit sets lane k, allocating the bitmap on first use. Only bitmaps owned
// by the caller (freshly built or from unionBits) may be passed.
func setBit(bm []uint64, n, k int) []uint64 {
	if bm == nil {
		bm = make([]uint64, (n+63)/64)
	}
	relation.BitSet(bm, k)
	return bm
}

// stride returns the lane-to-payload step: 0 for scalars, 1 otherwise.
func (v *bvec) stride() int {
	if v.scalar {
		return 0
	}
	return 1
}

// windowIdx returns idx, or nil when idx maps window [lo,hi) to itself —
// the zero-copy identity case where column payloads alias instead of
// gathering. The scan is cheap next to any gather it saves.
func windowIdx(idx []int32, lo, hi int) []int32 {
	if idx == nil {
		return nil
	}
	for k := lo; k < hi; k++ {
		if int(idx[k]) != k {
			return idx
		}
	}
	return nil
}

// firstBit returns the index of the lowest set bit of the bitmap, or -1.
func firstBit(bm []uint64) int {
	for wi, w := range bm {
		if w != 0 {
			return wi*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// allBits returns a bitmap with lanes [0,n) set: every lane errs.
func allBits(n int) []uint64 {
	bm := make([]uint64, (n+63)/64)
	for k := 0; k < n; k++ {
		relation.BitSet(bm, k)
	}
	return bm
}

// batchFn evaluates one compiled node over a window.
type batchFn func(c *bctx) *bvec

// batchPredFn evaluates one compiled predicate node straight to truth lanes.
// Predicate-shaped nodes (comparisons, AND/OR/NOT, IN, BETWEEN, IS NULL)
// compile natively to this form so a selection tree never round-trips
// through boolean value vectors between nodes.
type batchPredFn func(c *bctx) *truthVec

// BatchProgram is a compiled vectorized expression. It holds no mutable
// state; one program may evaluate windows from many goroutines.
type BatchProgram struct {
	src     Expr
	fn      batchFn
	pred    batchPredFn
	resolve BatchResolver // what an erring lane's row is rebuilt from
}

// CompileBatch compiles e against typed columns. It declines (with the
// expr.batch.declined counter) only expressions nesting a subquery.
func CompileBatch(e Expr, resolve BatchResolver) (*BatchProgram, error) {
	fn, err := compileBatch(e, resolve)
	if err != nil {
		batchDeclined.Inc()
		return nil, err
	}
	pred, err := compileBatchPred(e, resolve)
	if err != nil {
		batchDeclined.Inc()
		return nil, err
	}
	batchOK.Inc()
	return &BatchProgram{src: e, fn: fn, pred: pred, resolve: resolve}, nil
}

// laneRow is the interpreter's Env over one lane's row: cell ri of every
// column the program's resolver hands it.
type laneRow struct {
	resolve BatchResolver
	ri      int
}

func (r laneRow) Lookup(name string) (value.Value, bool) {
	if col, ok := r.resolve(name); ok {
		return col.Value(r.ri), true
	}
	return value.Null, false
}

// rowError re-runs lane k of idx (nil = identity), which an entry point
// flagged as erring, through the interpreter — EvalBool when pred, Eval
// otherwise — and returns its exact error. The error bitmap is exact, so
// the row errs; a clean re-run would mean the two evaluators disagree,
// which is reported rather than ignored.
func (p *BatchProgram) rowError(idx []int32, k int, pred bool) error {
	env := laneRow{resolve: p.resolve, ri: cellOf(idx, k, false)}
	var err error
	if pred {
		_, err = EvalBool(p.src, env)
	} else {
		_, err = Eval(p.src, env)
	}
	if err == nil {
		err = fmt.Errorf("expr: %s: batch lane errs but the row evaluates cleanly", p.src.SQL())
	}
	return err
}

// cellOf is the cell lane k lands at: k in the positional layout (pos) or
// over the identity, else its base-row index idx[k].
func cellOf(idx []int32, k int, pos bool) int {
	if idx == nil || pos {
		return k
	}
	return int(idx[k])
}

// Select evaluates the program as a predicate over the n lanes of idx (nil
// = identity) in parallel chunks (relation.Chunks) and returns the
// surviving base-row indexes in lane order — or, when a lane errs, the
// interpreter's exact error for the first erring lane: each chunk stops at
// its own first, and chunks report in order.
func (p *BatchProgram) Select(idx []int32, n int) ([]int32, error) {
	dst := make([]int32, n)
	bounds := relation.Chunks(n)
	counts := make([]int, len(bounds))
	err := relation.RunChunks(bounds, func(c, lo, hi int) error {
		var bad int
		if counts[c], bad = p.selectInto(idx, lo, hi, dst[lo:]); bad >= 0 {
			return p.rowError(idx, bad, true)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	w := 0
	for c, b := range bounds {
		copy(dst[w:], dst[b[0]:b[0]+counts[c]])
		w += counts[c]
	}
	return dst[:w:w], nil
}

// selectInto is Select over window [lo,hi) of idx: it appends the
// surviving base-row indexes to dst[0:] and returns the count, or the
// window position of the first erring lane as bad (-1 when none), in
// which case the count is meaningless.
func (p *BatchProgram) selectInto(idx []int32, lo, hi int, dst []int32) (count, bad int) {
	idx = windowIdx(idx, lo, hi)
	c := &bctx{rows: idx, lo: lo, n: hi - lo}
	tv := p.pred(c)
	if k := firstBit(tv.errs); k >= 0 {
		return 0, lo + k
	}
	w := 0
	if idx == nil {
		for k := 0; k < c.n; k++ {
			if tv.t[k] == truthT {
				dst[w] = int32(lo + k)
				w++
			}
		}
	} else {
		for k := 0; k < c.n; k++ {
			if tv.t[k] == truthT {
				dst[w] = idx[lo+k]
				w++
			}
		}
	}
	return w, -1
}

// EvalCol evaluates the program over the n lanes of idx (nil = identity),
// in parallel chunks, into a fresh column of size cells: lane k lands at
// cell k when pos is set, else at its base-row index, and every other cell
// is NULL. With widen, INT lanes widen into a FLOAT kind, as a FLOAT
// consumer coerces them. The column is typed in kind when every non-NULL
// lane has that kind, its payloads written straight from the lane vectors
// with nothing boxed. Otherwise, or when kind has no payload family, the
// widened lane values form the column by the values rule
// (relation.ValuesCol): a chunk whose lanes leave kind boxes them, and the
// typed chunks' cells are re-read from the column, not re-evaluated. When
// a lane errs, EvalCol instead returns the interpreter's exact error for
// the first erring lane: each chunk checks errors before kinds and stops
// at its first, and chunks report in order. The column is never nil
// without an error.
func (p *BatchProgram) EvalCol(idx []int32, n, size int, kind value.Kind, pos, widen bool) (*relation.Col, error) {
	col := payloadCol(kind, size)
	var filled []uint8
	if col != nil {
		filled = make([]uint8, size)
	}
	widen = widen && kind == value.KindFloat
	bounds := relation.Chunks(n)
	left := make([][]value.Value, len(bounds)) // the lane values of chunks that left kind
	err := relation.RunChunks(bounds, func(c, lo, hi int) error {
		var bad int
		if bad, left[c] = p.evalWindow(idx, lo, hi, col, filled, pos, widen); bad >= 0 {
			return p.rowError(idx, bad, false)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if col != nil {
		col.Nulls = relation.NullsFromFilled(filled)
		if !slices.ContainsFunc(left, func(vals []value.Value) bool { return vals != nil }) {
			return col, nil
		}
	}
	vals := make([]value.Value, size)
	if col != nil {
		for i := range vals {
			vals[i] = col.Value(i)
		}
	}
	for c, b := range bounds {
		for k, v := range left[c] {
			vals[cellOf(idx, b[0]+k, pos)] = v
		}
	}
	return relation.ValuesCol(vals), nil
}

// payloadCol returns a column of kind with a zeroed payload array of size
// cells, or nil when kind has no payload family.
func payloadCol(kind value.Kind, size int) *relation.Col {
	switch kind {
	case value.KindInt, value.KindBool, value.KindDate:
		return &relation.Col{Kind: kind, Ints: make([]int64, size)}
	case value.KindFloat:
		return &relation.Col{Kind: kind, Floats: make([]float64, size)}
	case value.KindString:
		return &relation.Col{Kind: kind, Strs: make([]string, size)}
	}
	return nil
}

// evalWindow is EvalCol over window [lo,hi) of idx. bad is the window
// position of the first erring lane, or -1; errors are checked before
// kinds. Without an erring lane, each lane's payload is written to out at
// its cell (cellOf), marking the cell in filled, and vals is nil — unless
// out is nil or a non-NULL lane's kind is not out.Kind: vals then holds the
// window's lane values, boxed and widened, and the window's cells of out
// are not to be trusted.
func (p *BatchProgram) evalWindow(idx []int32, lo, hi int, out *relation.Col, filled []uint8, pos, widen bool) (bad int, vals []value.Value) {
	c := &bctx{rows: windowIdx(idx, lo, hi), lo: lo, n: hi - lo}
	v := p.fn(c)
	if k := firstBit(v.errs); k >= 0 {
		return lo + k, nil
	}
	if out != nil && v.writeCol(c, out, filled, pos, widen) {
		return -1, nil
	}
	vals = make([]value.Value, c.n)
	for k := range vals {
		x := v.lane(k)
		if widen && x.Kind() == value.KindInt {
			x = value.NewFloat(float64(x.Int()))
		}
		vals[k] = x
	}
	return -1, vals
}

// writeCol writes the window's lanes into out (see evalWindow) and reports
// whether every non-NULL lane had out's kind (INT lanes count as FLOAT
// under widen).
func (v *bvec) writeCol(c *bctx, out *relation.Col, filled []uint8, pos, widen bool) bool {
	ri := func(k int) int { return cellOf(c.rows, c.lo+k, pos) }
	kind := out.Kind
	switch {
	case v.kind == value.KindNull:
		return true
	case v.kind == kindDynamic:
		for k := 0; k < c.n; k++ {
			val := v.vals[v.pi(k)]
			if val.IsNull() {
				continue
			}
			vk := val.Kind()
			i := ri(k)
			if widen && vk == value.KindInt {
				out.Floats[i] = float64(val.Int())
				filled[i] = 1
				continue
			}
			if vk != kind {
				return false
			}
			switch kind {
			case value.KindInt:
				out.Ints[i] = val.Int()
			case value.KindFloat:
				out.Floats[i] = val.Float()
			case value.KindString:
				out.Strs[i] = val.Str()
			case value.KindBool:
				out.Ints[i] = 0
				if val.Bool() {
					out.Ints[i] = 1
				}
			case value.KindDate:
				out.Ints[i] = val.DateDays()
			}
			filled[i] = 1
		}
		return true
	case widen && (v.kind == value.KindInt || v.kind == kindNumeric):
		for k := 0; k < c.n; k++ {
			if v.null(k) {
				continue
			}
			i := ri(k)
			_, out.Floats[i], _ = v.num(k)
			filled[i] = 1
		}
		return true
	case v.kind != kind:
		for k := 0; k < c.n; k++ {
			if !v.null(k) {
				return false
			}
		}
		return true // every lane NULL: no cell to write
	}
	switch kind {
	case value.KindFloat:
		for k := 0; k < c.n; k++ {
			if v.null(k) {
				continue
			}
			i := ri(k)
			out.Floats[i] = v.floats[v.pi(k)]
			filled[i] = 1
		}
	case value.KindString:
		for k := 0; k < c.n; k++ {
			if v.null(k) {
				continue
			}
			i := ri(k)
			out.Strs[i] = v.strs[v.pi(k)]
			filled[i] = 1
		}
	default: // Int, Bool and Date share the ints lane, exactly like Col
		for k := 0; k < c.n; k++ {
			if v.null(k) {
				continue
			}
			i := ri(k)
			out.Ints[i] = v.ints[v.pi(k)]
			filled[i] = 1
		}
	}
	return true
}

func compileBatch(e Expr, resolve BatchResolver) (batchFn, error) {
	switch n := e.(type) {
	case *Literal:
		vec := scalarVec(n.Val)
		return func(*bctx) *bvec { return vec }, nil
	case *ColumnRef:
		col, ok := resolve(n.Name)
		if !ok {
			return errLanes, nil // Eval's unknown-column error, per row
		}
		return func(c *bctx) *bvec { return gatherCol(col, c) }, nil
	case *Unary:
		if n.Op == OpNeg {
			x, err := compileBatch(n.X, resolve)
			if err != nil {
				return nil, err
			}
			return func(c *bctx) *bvec { return negVec(x(c), c.n) }, nil
		}
		return predAsValue(n, resolve)
	case *Binary:
		return compileBatchBinary(n, resolve)
	case *IsNull, *InList, *Between:
		return predAsValue(e, resolve)
	case *FuncCall:
		if AggregateNames[n.Name] {
			return errLanes, nil // rejected in row context before any argument
		}
		args, err := compileBatchArgs(n.Args, resolve)
		if err != nil {
			return nil, err
		}
		name := n.Name
		if name == "UPPER" || name == "LOWER" {
			if len(args) != 1 {
				return errLanes, nil // CallScalar's arity error, after any argument's
			}
			x, upper := args[0], name == "UPPER"
			return func(c *bctx) *bvec { return caseVec(x(c), upper, c.n) }, nil
		}
		return laneWise(args, func(vs []value.Value) (value.Value, error) { return CallScalar(name, vs) }), nil
	case *WindowCall, *Star:
		return errLanes, nil // rejected in row context
	}
	return nil, ErrNotVectorizable // subqueries
}

// errLanes is the node of an expression Eval rejects on every row.
func errLanes(c *bctx) *bvec { return &bvec{kind: value.KindNull, errs: allBits(c.n)} }

func compileBatchArgs(args []Expr, resolve BatchResolver) ([]batchFn, error) {
	out := make([]batchFn, len(args))
	for i, a := range args {
		fn, err := compileBatch(a, resolve)
		if err != nil {
			return nil, err
		}
		out[i] = fn
	}
	return out, nil
}

// laneWise compiles a scalar function call for boxed lanes: every operand
// is evaluated first, exactly as Eval does, and boxedLanes applies fn.
func laneWise(args []batchFn, fn func([]value.Value) (value.Value, error)) batchFn {
	return func(c *bctx) *bvec {
		vecs := make([]*bvec, len(args))
		for i, a := range args {
			vecs[i] = a(c)
		}
		return boxedLanes(vecs, c.n, fn)
	}
}

// boxedLanes applies fn, the interpreter's own function, to the boxed
// operand lanes one lane at a time: a lane errs iff an operand lane errs or
// fn fails on it.
func boxedLanes(vecs []*bvec, n int, fn func([]value.Value) (value.Value, error)) *bvec {
	errParts := make([][]uint64, len(vecs))
	for i, v := range vecs {
		errParts[i] = v.errs
	}
	out := &bvec{kind: value.KindNull, errs: unionBits(n, errParts...)}
	lane := make([]value.Value, len(vecs))
	for k := 0; k < n; k++ {
		if relation.BitGet(out.errs, k) {
			continue
		}
		for i, v := range vecs {
			lane[i] = v.lane(k)
		}
		r, err := fn(lane)
		if err != nil {
			out.errs = setBit(out.errs, n, k)
			continue
		}
		out.put(k, n, r)
	}
	return out
}

// likeTruth is LIKE straight to truth lanes. String lanes run likeMatch; a
// NULL lane is Unknown; where both sides are non-NULL, statically
// non-string operands err, as like's kind check does; boxed operands go
// lane by lane through like.
func likeTruth(l, r *bvec, n int) *truthVec {
	out := &truthVec{t: make([]uint8, n), errs: unionBits(n, l.errs, r.errs)}
	switch {
	case l.kind == value.KindNull || r.kind == value.KindNull:
		for k := range out.t {
			out.t[k] = truthU
		}
	case l.kind == kindDynamic || r.kind == kindDynamic:
		for k := 0; k < n; k++ {
			if relation.BitGet(out.errs, k) {
				continue
			}
			v, err := like(l.lane(k), r.lane(k))
			switch {
			case err != nil:
				out.errs = setBit(out.errs, n, k)
			case v.IsNull():
				out.t[k] = truthU
			case v.Bool():
				out.t[k] = truthT
			}
		}
	case l.kind == value.KindString && r.kind == value.KindString:
		ls, rs := l.stride(), r.stride()
		for k := range out.t {
			if likeMatch(l.strs[k*ls], r.strs[k*rs]) {
				out.t[k] = truthT
			}
		}
		overlayUnknown(out.t, l.nulls)
		overlayUnknown(out.t, r.nulls)
	default:
		for k := range out.t {
			if l.null(k) || r.null(k) {
				out.t[k] = truthU
			} else if !relation.BitGet(out.errs, k) {
				out.errs = setBit(out.errs, n, k)
			}
		}
	}
	return out
}

// caseVec is UPPER (or LOWER) over one operand vector. String lanes map
// through appendCase into one backing string per window (a one-operand
// concatVec); NULL lanes stay NULL; non-NULL lanes of a statically
// non-string operand err, as CallScalar's kind check does; boxed operands
// go through CallScalar lane by lane.
func caseVec(x *bvec, upper bool, n int) *bvec {
	switch x.kind {
	case value.KindNull:
		return &bvec{kind: value.KindNull, errs: x.errs}
	case kindDynamic:
		name := "LOWER"
		if upper {
			name = "UPPER"
		}
		return boxedLanes([]*bvec{x}, n, func(vs []value.Value) (value.Value, error) { return CallScalar(name, vs) })
	case value.KindString:
		if x.scalar { // a literal: no NULL or erring lane
			return &bvec{kind: value.KindString, scalar: true, strs: []string{string(appendCase(nil, x.strs[0], upper))}}
		}
		return concatVec([]concatOperand{{bvec: x, fold: true, upper: upper}}, n)
	}
	out := &bvec{kind: value.KindNull, errs: unionBits(n, x.errs)}
	errAllNonNull(out, x, n)
	return out
}

// concatOperand is one evaluated operand of a fused || chain. fold marks
// the string lanes of an UPPER (upper) or LOWER argument, which the chain
// case-maps as it writes them, so the mapped strings are never built on
// their own.
type concatOperand struct {
	*bvec
	fold, upper bool
}

// compileConcat compiles a whole || chain as one node. An operand that is
// UPPER or LOWER of one argument compiles as that argument, and the node
// folds its case when the argument's lanes are typed strings; any other
// argument goes through caseVec first.
func compileConcat(n *Binary, resolve BatchResolver) (batchFn, error) {
	exprs := concatParts(n, nil)
	fns := make([]batchFn, len(exprs))
	folds := make([]concatOperand, len(exprs))
	for i, e := range exprs {
		if f, ok := e.(*FuncCall); ok && (f.Name == "UPPER" || f.Name == "LOWER") && len(f.Args) == 1 {
			e, folds[i] = f.Args[0], concatOperand{fold: true, upper: f.Name == "UPPER"}
		}
		fn, err := compileBatch(e, resolve)
		if err != nil {
			return nil, err
		}
		fns[i] = fn
	}
	return func(c *bctx) *bvec {
		ops := make([]concatOperand, len(fns))
		for i, fn := range fns {
			ops[i] = folds[i]
			ops[i].bvec = fn(c)
			if ops[i].fold && (ops[i].kind != value.KindString || ops[i].scalar) {
				ops[i] = concatOperand{bvec: caseVec(ops[i].bvec, ops[i].upper, c.n)}
			}
		}
		return concatVec(ops, c.n)
	}, nil
}

// concatVec is a fused a || b || … chain over its operand vectors in
// evaluation order. A lane errs iff an operand lane errs and is NULL iff an
// operand lane is NULL, as chained Concat calls make it; any other lane is
// its operands' Value.String renderings joined (a string lane renders as
// itself, case-mapped by appendCase when folded), written into one backing
// string per window with no intermediate a || b.
func concatVec(parts []concatOperand, n int) *bvec {
	errParts := make([][]uint64, len(parts))
	nullParts := make([][]uint64, len(parts))
	for i, p := range parts {
		errParts[i], nullParts[i] = p.errs, p.nulls
	}
	errs := unionBits(n, errParts...)
	nulls := unionBits(n, nullParts...)
	for _, p := range parts {
		switch p.kind {
		case value.KindNull:
			return &bvec{kind: value.KindNull, errs: errs}
		case kindDynamic:
			for k := 0; k < n; k++ {
				if p.vals[p.pi(k)].IsNull() {
					nulls = setBit(nulls, n, k)
				}
			}
		}
	}
	live := func(k int) bool { return !relation.BitGet(errs, k) && !relation.BitGet(nulls, k) }
	size := 0
	for k := 0; k < n; k++ {
		if live(k) {
			for _, p := range parts {
				if p.kind == value.KindString {
					size += len(p.strs[p.pi(k)])
				}
			}
		}
	}
	out := &bvec{kind: value.KindString, strs: make([]string, n), nulls: nulls, errs: errs}
	// size is exact for ASCII strings. A longer rendering grows b; the
	// lanes already written keep the old buffer, which b never writes again.
	var b strings.Builder
	b.Grow(size)
	var lane []byte // one lane's operands, joined before one write to b
	for k := 0; k < n; k++ {
		if !live(k) {
			continue
		}
		lane = lane[:0]
		for _, p := range parts {
			switch {
			case p.kind != value.KindString:
				lane = append(lane, p.lane(k).String()...)
			case p.fold:
				lane = appendCase(lane, p.strs[p.pi(k)], p.upper)
			default:
				lane = append(lane, p.strs[p.pi(k)]...)
			}
		}
		start := b.Len()
		b.Write(lane)
		out.strs[k] = b.String()[start:]
	}
	return out
}

// concatParts flattens a || chain into its operands in evaluation order
// (left to right, however the chain is parenthesised).
func concatParts(e Expr, parts []Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == OpConcat {
		return concatParts(b.R, concatParts(b.L, parts))
	}
	return append(parts, e)
}

// put stores x in lane k of a vector being filled in lane order: a typed
// payload while every non-NULL lane shares one kind, boxed lanes once kinds
// mix. The vector starts as KindNull, and erring lanes are never put.
func (v *bvec) put(k, n int, x value.Value) {
	if x.IsNull() {
		if v.kind == kindDynamic {
			v.vals[k] = x
		} else {
			v.nulls = setBit(v.nulls, n, k)
		}
		return
	}
	switch {
	case v.kind == value.KindNull:
		v.kind = x.Kind()
		switch v.kind {
		case value.KindFloat:
			v.floats = make([]float64, n)
		case value.KindString:
			v.strs = make([]string, n)
		default:
			v.ints = make([]int64, n)
		}
	case v.kind != kindDynamic && x.Kind() != v.kind:
		vals := make([]value.Value, n)
		for j := 0; j < k; j++ {
			if !relation.BitGet(v.errs, j) {
				vals[j] = v.lane(j)
			}
		}
		*v = bvec{kind: kindDynamic, vals: vals, errs: v.errs}
	}
	switch v.kind {
	case kindDynamic:
		v.vals[k] = x
	case value.KindFloat:
		v.floats[k] = x.Float()
	case value.KindString:
		v.strs[k] = x.Str()
	case value.KindBool:
		if x.Bool() {
			v.ints[k] = 1
		}
	case value.KindDate:
		v.ints[k] = x.DateDays()
	default:
		v.ints[k] = x.Int()
	}
}

// predAsValue compiles a predicate-shaped node used in value position: the
// native truth-lane form plus one conversion to a boolean value vector.
func predAsValue(e Expr, resolve BatchResolver) (batchFn, error) {
	p, err := compileBatchPred(e, resolve)
	if err != nil {
		return nil, err
	}
	return func(c *bctx) *bvec { return fromTruth(p(c), c.n) }, nil
}

func compileBatchBinary(n *Binary, resolve BatchResolver) (batchFn, error) {
	switch n.Op {
	case OpAnd, OpOr, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpLike:
		return predAsValue(n, resolve)
	case OpConcat:
		return compileConcat(n, resolve)
	}
	args, err := compileBatchArgs([]Expr{n.L, n.R}, resolve)
	if err != nil {
		return nil, err
	}
	l, r := args[0], args[1]
	switch n.Op {
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		op := n.Op[0] // the operator's one character, as value.IntArith takes it
		return func(c *bctx) *bvec { return arithVec(l(c), r(c), op, c.n) }, nil
	}
	return errLanes, nil // Eval's unknown-operator error
}

// compileBatchPred compiles a predicate to native truth lanes. Non-predicate
// nodes compile as values and convert with toTruth, exactly as the row
// path's TruthOf does.
func compileBatchPred(e Expr, resolve BatchResolver) (batchPredFn, error) {
	switch n := e.(type) {
	case *Unary:
		if n.Op == OpNot {
			x, err := compileBatchPred(n.X, resolve)
			if err != nil {
				return nil, err
			}
			return func(c *bctx) *truthVec {
				tv := x(c)
				out := &truthVec{t: make([]uint8, c.n), errs: tv.errs}
				for k, t := range tv.t {
					out.t[k] = truthNot(t)
				}
				return out
			}, nil
		}
	case *Binary:
		switch n.Op {
		case OpAnd, OpOr:
			l, err := compileBatchPred(n.L, resolve)
			if err != nil {
				return nil, err
			}
			r, err := compileBatchPred(n.R, resolve)
			if err != nil {
				return nil, err
			}
			isAnd := n.Op == OpAnd
			return func(c *bctx) *truthVec { return andOrTruth(l(c), r(c), isAnd, c.n) }, nil
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			l, err := compileBatch(n.L, resolve)
			if err != nil {
				return nil, err
			}
			r, err := compileBatch(n.R, resolve)
			if err != nil {
				return nil, err
			}
			op := n.Op
			return func(c *bctx) *truthVec { return cmpTruth(l(c), r(c), op, c.n) }, nil
		case OpLike:
			args, err := compileBatchArgs([]Expr{n.L, n.R}, resolve)
			if err != nil {
				return nil, err
			}
			return func(c *bctx) *truthVec { return likeTruth(args[0](c), args[1](c), c.n) }, nil
		}
	case *IsNull:
		x, err := compileBatch(n.X, resolve)
		if err != nil {
			return nil, err
		}
		negate := n.Negate
		return func(c *bctx) *truthVec {
			xv := x(c)
			out := &truthVec{t: make([]uint8, c.n), errs: xv.errs}
			for k := 0; k < c.n; k++ {
				if xv.null(k) != negate {
					out.t[k] = truthT
				}
			}
			return out
		}, nil
	case *InList:
		return compileBatchIn(n, resolve)
	case *Between:
		x, err := compileBatch(n.X, resolve)
		if err != nil {
			return nil, err
		}
		lo, err := compileBatch(n.Lo, resolve)
		if err != nil {
			return nil, err
		}
		hi, err := compileBatch(n.Hi, resolve)
		if err != nil {
			return nil, err
		}
		negate := n.Negate
		return func(c *bctx) *truthVec {
			xv := x(c)
			// The interpreter computes both bounds before combining (no short
			// circuit), so both compares' errors count unconditionally.
			ge := cmpTruth(xv, lo(c), OpGe, c.n)
			le := cmpTruth(xv, hi(c), OpLe, c.n)
			out := &truthVec{t: make([]uint8, c.n), errs: unionBits(c.n, ge.errs, le.errs)}
			for k := 0; k < c.n; k++ {
				t := truthAnd(ge.t[k], le.t[k])
				if negate {
					t = truthNot(t)
				}
				out.t[k] = t
			}
			return out
		}, nil
	}
	fn, err := compileBatch(e, resolve)
	if err != nil {
		return nil, err
	}
	return func(c *bctx) *truthVec { return toTruth(fn(c), c.n) }, nil
}

func compileBatchIn(n *InList, resolve BatchResolver) (batchPredFn, error) {
	x, err := compileBatch(n.X, resolve)
	if err != nil {
		return nil, err
	}
	items := make([]batchFn, len(n.Items))
	for i, it := range n.Items {
		items[i], err = compileBatch(it, resolve)
		if err != nil {
			return nil, err
		}
	}
	negate := n.Negate
	return func(c *bctx) *truthVec {
		nn := c.n
		xv := x(c)
		if tv := fusedIn(xv, items, c, negate); tv != nil {
			return tv
		}
		found := make([]bool, nn)
		sawNull := make([]bool, nn)
		errs := unionBits(nn, xv.errs)
		if xv.kind == value.KindNull || xv.kind == kindDynamic || xv.nulls != nil {
			for k := 0; k < nn; k++ {
				if !relation.BitGet(errs, k) && xv.null(k) {
					sawNull[k] = true
				}
			}
		}
		// Items run in list order; a lane already found (or erred) skips the
		// remaining items, exactly like the interpreter loop's break —
		// including the suppression of later items' errors.
		for _, itf := range items {
			iv := itf(c)
			cmp := cmpTruth(xv, iv, OpEq, nn)
			for k := 0; k < nn; k++ {
				if found[k] || relation.BitGet(errs, k) {
					continue
				}
				if relation.BitGet(cmp.errs, k) {
					errs = setBit(errs, nn, k)
					continue
				}
				// An Unknown lane means x or the item was NULL (the row
				// loop's sawNull arm); a True lane is a match.
				switch cmp.t[k] {
				case truthT:
					found[k] = true
				case truthU:
					sawNull[k] = true
				}
			}
		}
		out := &truthVec{t: make([]uint8, nn), errs: errs}
		for k := 0; k < nn; k++ {
			var t uint8
			switch {
			case found[k]:
				t = truthT
			case sawNull[k]:
				t = truthU
			}
			if negate {
				t = truthNot(t)
			}
			out.t[k] = t
		}
		return out
	}, nil
}

// fusedIn handles the dominant IN shape — a typed, error-free column probed
// against same-kind non-NULL scalar items — in one pass over the payload,
// with no per-item vectors or merge state. Returns nil when the shape does
// not apply and the general merge must run. Semantics are exactly the
// general path's: items cannot err or be NULL here, so a lane is True on
// the first match, Unknown when x is NULL, False otherwise.
func fusedIn(xv *bvec, items []batchFn, c *bctx, negate bool) *truthVec {
	if xv.scalar || xv.errs != nil {
		return nil
	}
	switch xv.kind {
	case value.KindInt, value.KindString, value.KindBool, value.KindDate:
	default:
		return nil
	}
	nn := c.n
	var intLits []int64
	var strLits []string
	for _, itf := range items {
		iv := itf(c)
		if !iv.scalar || iv.kind != xv.kind || iv.nulls != nil || iv.errs != nil {
			return nil
		}
		if xv.kind == value.KindString {
			strLits = append(strLits, iv.strs[0])
		} else {
			intLits = append(intLits, iv.ints[0])
		}
	}
	out := &truthVec{t: make([]uint8, nn)}
	if xv.kind == value.KindString {
		for k, a := range xv.strs[:nn] {
			for _, b := range strLits {
				if a == b {
					out.t[k] = truthT
					break
				}
			}
		}
	} else {
		for k, a := range xv.ints[:nn] {
			for _, b := range intLits {
				if a == b {
					out.t[k] = truthT
					break
				}
			}
		}
	}
	overlayUnknown(out.t, xv.nulls)
	if negate {
		for k, t := range out.t {
			out.t[k] = truthNot(t)
		}
	}
	return out
}

// scalarVec builds the broadcast vector of one literal.
func scalarVec(v value.Value) *bvec {
	switch v.Kind() {
	case value.KindNull:
		return &bvec{kind: value.KindNull, scalar: true}
	case value.KindInt:
		return &bvec{kind: value.KindInt, scalar: true, ints: []int64{v.Int()}}
	case value.KindFloat:
		return &bvec{kind: value.KindFloat, scalar: true, floats: []float64{v.Float()}}
	case value.KindString:
		return &bvec{kind: value.KindString, scalar: true, strs: []string{v.Str()}}
	case value.KindBool:
		var b int64
		if v.Bool() {
			b = 1
		}
		return &bvec{kind: value.KindBool, scalar: true, ints: []int64{b}}
	case value.KindDate:
		return &bvec{kind: value.KindDate, scalar: true, ints: []int64{v.DateDays()}}
	}
	return &bvec{kind: kindDynamic, scalar: true, vals: []value.Value{v}}
}

// gatherCol materialises a column reference over the window's lanes. With an
// identity window and a typed column, payloads alias the column's arrays —
// zero copies; only null bits translate to lane space.
func gatherCol(col *relation.Col, c *bctx) *bvec {
	n := c.n
	if col.Boxed != nil {
		if c.rows == nil {
			return &bvec{kind: kindDynamic, vals: col.Boxed[c.lo : c.lo+n]}
		}
		vals := make([]value.Value, n)
		for k := 0; k < n; k++ {
			vals[k] = col.Boxed[c.rows[c.lo+k]]
		}
		return &bvec{kind: kindDynamic, vals: vals}
	}
	if col.Kind == value.KindNull {
		return &bvec{kind: value.KindNull}
	}
	out := &bvec{kind: col.Kind}
	if c.rows == nil {
		lo := c.lo
		switch col.Kind {
		case value.KindFloat:
			out.floats = col.Floats[lo : lo+n]
		case value.KindString:
			out.strs = col.Strs[lo : lo+n]
		default:
			out.ints = col.Ints[lo : lo+n]
		}
		if col.Nulls != nil {
			for k := 0; k < n; k++ {
				if relation.BitGet(col.Nulls, lo+k) {
					out.nulls = setBit(out.nulls, n, k)
				}
			}
		}
		return out
	}
	rows := c.rows[c.lo : c.lo+n]
	switch col.Kind {
	case value.KindFloat:
		fs := make([]float64, n)
		for k, ri := range rows {
			fs[k] = col.Floats[ri]
		}
		out.floats = fs
	case value.KindString:
		ss := make([]string, n)
		for k, ri := range rows {
			ss[k] = col.Strs[ri]
		}
		out.strs = ss
	default:
		is := make([]int64, n)
		for k, ri := range rows {
			is[k] = col.Ints[ri]
		}
		out.ints = is
	}
	if col.Nulls != nil {
		for k, ri := range rows {
			if relation.BitGet(col.Nulls, int(ri)) {
				out.nulls = setBit(out.nulls, n, k)
			}
		}
	}
	return out
}

// Three-valued truth lanes, encoded to match value.Truth's semantics.
const (
	truthF uint8 = 0
	truthT uint8 = 1
	truthU uint8 = 2
)

func truthAnd(a, b uint8) uint8 {
	if a == truthF || b == truthF {
		return truthF
	}
	if a == truthU || b == truthU {
		return truthU
	}
	return truthT
}

func truthOr(a, b uint8) uint8 {
	if a == truthT || b == truthT {
		return truthT
	}
	if a == truthU || b == truthU {
		return truthU
	}
	return truthF
}

func truthNot(a uint8) uint8 {
	switch a {
	case truthT:
		return truthF
	case truthF:
		return truthT
	}
	return truthU
}

// truthVec is a predicate vector: one truth lane each, plus error bits.
type truthVec struct {
	t    []uint8
	errs []uint64
}

// toTruth converts a value vector to truth lanes under value.TruthOf:
// booleans map directly, NULL is Unknown, any other kind errors — lanes that
// would error get their bit set.
func toTruth(v *bvec, n int) *truthVec {
	tv := &truthVec{t: make([]uint8, n), errs: unionBits(n, v.errs)}
	switch v.kind {
	case value.KindNull:
		for k := range tv.t {
			tv.t[k] = truthU
		}
	case value.KindBool:
		s := v.stride()
		for k := 0; k < n; k++ {
			if relation.BitGet(v.nulls, k) {
				tv.t[k] = truthU
			} else if v.ints[k*s] != 0 {
				tv.t[k] = truthT
			}
		}
	case kindDynamic:
		for k := 0; k < n; k++ {
			if relation.BitGet(tv.errs, k) {
				continue
			}
			t, err := value.TruthOf(v.vals[v.pi(k)])
			if err != nil {
				tv.errs = setBit(tv.errs, n, k)
				continue
			}
			switch t {
			case value.True:
				tv.t[k] = truthT
			case value.Unknown:
				tv.t[k] = truthU
			}
		}
	default:
		// A statically non-boolean vector: NULL lanes are Unknown, the rest
		// would fail TruthOf in the interpreter.
		for k := 0; k < n; k++ {
			if relation.BitGet(tv.errs, k) {
				continue
			}
			if v.null(k) {
				tv.t[k] = truthU
			} else {
				tv.errs = setBit(tv.errs, n, k)
			}
		}
	}
	return tv
}

// fromTruth converts truth lanes back to a boolean value vector (Unknown
// becomes NULL, as Truth.Value does).
func fromTruth(tv *truthVec, n int) *bvec {
	out := &bvec{kind: value.KindBool, ints: make([]int64, n), errs: tv.errs}
	for k := 0; k < n; k++ {
		switch tv.t[k] {
		case truthT:
			out.ints[k] = 1
		case truthU:
			out.nulls = setBit(out.nulls, n, k)
		}
	}
	return out
}

// andOrTruth combines two truth vectors with the interpreter's exact
// short-circuit discipline: a left lane that decides the result suppresses
// the right side's value and error on that lane.
func andOrTruth(lt, rt *truthVec, isAnd bool, n int) *truthVec {
	out := &truthVec{t: make([]uint8, n)}
	if lt.errs == nil && rt.errs == nil {
		// No errors anywhere: pure lane algebra.
		if isAnd {
			for k, a := range lt.t[:n] {
				out.t[k] = truthAnd(a, rt.t[k])
			}
		} else {
			for k, a := range lt.t[:n] {
				out.t[k] = truthOr(a, rt.t[k])
			}
		}
		return out
	}
	for k := 0; k < n; k++ {
		if relation.BitGet(lt.errs, k) {
			out.errs = setBit(out.errs, n, k)
			continue
		}
		a := lt.t[k]
		if isAnd && a == truthF {
			out.t[k] = truthF
			continue
		}
		if !isAnd && a == truthT {
			out.t[k] = truthT
			continue
		}
		if relation.BitGet(rt.errs, k) {
			out.errs = setBit(out.errs, n, k)
			continue
		}
		if isAnd {
			out.t[k] = truthAnd(a, rt.t[k])
		} else {
			out.t[k] = truthOr(a, rt.t[k])
		}
	}
	return out
}

// cmpWant returns which comparison outcomes (-1, 0, +1) the operator
// accepts.
func cmpWant(op BinaryOp) (lt, eq, gt bool) {
	switch op {
	case OpEq:
		return false, true, false
	case OpNe:
		return true, false, true
	case OpLt:
		return true, false, false
	case OpLe:
		return true, true, false
	case OpGt:
		return false, false, true
	case OpGe:
		return false, true, true
	}
	return false, false, false
}

// cmpTruth compares two vectors lane-wise under the interpreter's compare(),
// straight to truth lanes: NULL lanes yield Unknown; comparable static kinds
// run typed loops; statically incomparable kinds err on every
// double-non-NULL lane; dynamic and numeric operands compare boxed.
func cmpTruth(l, r *bvec, op BinaryOp, n int) *truthVec {
	if l.kind == value.KindNull || r.kind == value.KindNull {
		out := &truthVec{t: make([]uint8, n), errs: unionBits(n, l.errs, r.errs)}
		for k := range out.t {
			out.t[k] = truthU
		}
		return out
	}
	out := &truthVec{t: make([]uint8, n), errs: unionBits(n, l.errs, r.errs)}
	if l.kind == kindDynamic || r.kind == kindDynamic || l.kind == kindNumeric || r.kind == kindNumeric {
		for k := 0; k < n; k++ {
			if relation.BitGet(out.errs, k) {
				continue
			}
			t, err := compare(l.lane(k), r.lane(k), op)
			if err != nil {
				out.errs = setBit(out.errs, n, k)
				continue
			}
			switch t {
			case value.True:
				out.t[k] = truthT
			case value.Unknown:
				out.t[k] = truthU
			}
		}
		return out
	}
	nulls := unionBits(n, l.nulls, r.nulls)
	wlt, weq, wgt := cmpWant(op)
	lk, rk := l.kind, r.kind
	intKinds := func(a, b value.Kind) bool { return a == b && (a == value.KindBool || a == value.KindDate) }
	switch {
	case lk == value.KindInt && rk == value.KindInt, intKinds(lk, rk):
		// Exact integer comparison; BOOL and DATE share the payload rule.
		cmpOrdLanes(out.t, l.ints, r.ints, l.scalar, r.scalar, wlt, weq, wgt)
	case (lk == value.KindInt || lk == value.KindFloat) && (rk == value.KindInt || rk == value.KindFloat):
		// Mixed numeric: both sides widen to float64, as Compare does.
		xs, xsc := floatLanes(l, n)
		ys, ysc := floatLanes(r, n)
		cmpFloatLanes(out.t, xs, ys, xsc, ysc, wlt, weq, wgt)
	case lk == value.KindString && rk == value.KindString:
		cmpOrdLanes(out.t, l.strs, r.strs, l.scalar, r.scalar, wlt, weq, wgt)
	default:
		// Statically incomparable kinds: every lane where both sides are
		// non-NULL would error in Compare; NULL lanes are Unknown.
		for k := 0; k < n; k++ {
			if relation.BitGet(nulls, k) {
				out.t[k] = truthU
			} else {
				out.errs = setBit(out.errs, n, k)
			}
		}
		return out
	}
	overlayUnknown(out.t, nulls)
	return out
}

// overlayUnknown marks every NULL lane Unknown, overriding whatever the
// payload loop computed from that lane's zero-valued slot.
func overlayUnknown(t []uint8, nulls []uint64) {
	if nulls == nil {
		return
	}
	for wi, w := range nulls {
		for ; w != 0; w &= w - 1 {
			t[wi*64+bits.TrailingZeros64(w)] = truthU
		}
	}
}

// cmpOrdLanes fills dst with 1 where the selected orderings hold, testing
// the want flags before comparing so only the needed comparisons run (for
// strings that is the difference between one equality probe and three full
// collations per lane). Scalar operands hoist out of the loop.
func cmpOrdLanes[T int64 | string](dst []uint8, xs, ys []T, xsc, ysc bool, wlt, weq, wgt bool) {
	n := len(dst)
	switch {
	case xsc && ysc:
		a, b := xs[0], ys[0]
		if (wlt && a < b) || (weq && a == b) || (wgt && a > b) {
			for k := range dst {
				dst[k] = 1
			}
		}
	case ysc:
		b := ys[0]
		for k, a := range xs[:n] {
			if (wlt && a < b) || (weq && a == b) || (wgt && a > b) {
				dst[k] = 1
			}
		}
	case xsc:
		a := xs[0]
		for k, b := range ys[:n] {
			if (wlt && a < b) || (weq && a == b) || (wgt && a > b) {
				dst[k] = 1
			}
		}
	default:
		ys = ys[:n]
		for k, a := range xs[:n] {
			b := ys[k]
			if (wlt && a < b) || (weq && a == b) || (wgt && a > b) {
				dst[k] = 1
			}
		}
	}
}

// floatLanes returns v's payload widened to float64 lanes (scalars stay
// one-slot). Only called for numeric vectors.
func floatLanes(v *bvec, n int) ([]float64, bool) {
	if v.kind == value.KindFloat {
		return v.floats, v.scalar
	}
	if v.scalar {
		return []float64{float64(v.ints[0])}, true
	}
	fs := make([]float64, n)
	for k, a := range v.ints[:n] {
		fs[k] = float64(a)
	}
	return fs, false
}

// cmpFloatLanes is cmpOrdLanes under Compare's float ordering: equality is
// "neither less nor greater", so -0 equals +0 and NaN compares equal to
// everything (unordered), exactly as the boxed comparator behaves.
func cmpFloatLanes(dst []uint8, xs, ys []float64, xsc, ysc bool, wlt, weq, wgt bool) {
	n := len(dst)
	hit := func(a, b float64) bool {
		return (wlt && a < b) || (wgt && a > b) || (weq && !(a < b) && !(a > b))
	}
	switch {
	case xsc && ysc:
		if hit(xs[0], ys[0]) {
			for k := range dst {
				dst[k] = 1
			}
		}
	case ysc:
		b := ys[0]
		for k, a := range xs[:n] {
			if (wlt && a < b) || (wgt && a > b) || (weq && !(a < b) && !(a > b)) {
				dst[k] = 1
			}
		}
	case xsc:
		a := xs[0]
		for k, b := range ys[:n] {
			if (wlt && a < b) || (wgt && a > b) || (weq && !(a < b) && !(a > b)) {
				dst[k] = 1
			}
		}
	default:
		ys = ys[:n]
		for k, a := range xs[:n] {
			b := ys[k]
			if (wlt && a < b) || (wgt && a > b) || (weq && !(a < b) && !(a > b)) {
				dst[k] = 1
			}
		}
	}
}

// negVec negates a vector under value.Neg: NULL passes through, INT and
// FLOAT lanes negate their payloads, anything else errors per non-NULL
// lane.
func negVec(x *bvec, n int) *bvec {
	switch x.kind {
	case value.KindNull:
		return x
	case value.KindInt:
		out := &bvec{kind: value.KindInt, ints: make([]int64, n), nulls: x.nulls, errs: x.errs}
		s := x.stride()
		for k := 0; k < n; k++ {
			out.ints[k] = -x.ints[k*s]
		}
		return out
	case value.KindFloat:
		out := &bvec{kind: value.KindFloat, floats: make([]float64, n), nulls: x.nulls, errs: x.errs}
		s := x.stride()
		for k := 0; k < n; k++ {
			out.floats[k] = -x.floats[k*s]
		}
		return out
	case kindNumeric:
		out := &bvec{kind: kindNumeric, ints: make([]int64, n), isFloat: x.isFloat, nulls: x.nulls, errs: x.errs}
		for k := 0; k < n; k++ {
			if i, f, isFloat := x.num(k); isFloat {
				out.ints[k] = int64(math.Float64bits(-f))
			} else {
				out.ints[k] = -i
			}
		}
		return out
	case kindDynamic:
		out := &bvec{kind: kindDynamic, vals: make([]value.Value, n), errs: unionBits(n, x.errs)}
		for k := 0; k < n; k++ {
			if relation.BitGet(out.errs, k) {
				continue
			}
			v, err := value.Neg(x.vals[x.pi(k)])
			if err != nil {
				out.errs = setBit(out.errs, n, k)
				continue
			}
			out.vals[k] = v
		}
		return out
	}
	// String/Bool/Date: NULL lanes stay NULL, the rest error.
	out := &bvec{kind: value.KindNull, errs: unionBits(n, x.errs)}
	errAllNonNull(out, x, n)
	return out
}

// errAllNonNull marks every non-NULL, non-erring lane of x as an error in
// out — the vector image of a per-row kind error that NULL inputs bypass.
func errAllNonNull(out *bvec, x *bvec, n int) {
	for k := 0; k < n; k++ {
		if relation.BitGet(out.errs, k) {
			continue
		}
		if !x.null(k) {
			out.errs = setBit(out.errs, n, k)
		}
	}
}

// arithLanes runs one +, -, or * over every lane — exact over integers,
// IEEE over floats, the bare Go operator either way — with scalar operands
// hoisted out of the loop.
func arithLanes[T int64 | float64](dst []T, xs, ys []T, xsc, ysc bool, op byte) {
	n := len(dst)
	switch {
	case xsc && ysc:
		var v T
		switch op {
		case '+':
			v = xs[0] + ys[0]
		case '-':
			v = xs[0] - ys[0]
		default:
			v = xs[0] * ys[0]
		}
		for k := range dst {
			dst[k] = v
		}
	case ysc:
		b := ys[0]
		switch op {
		case '+':
			for k, a := range xs[:n] {
				dst[k] = a + b
			}
		case '-':
			for k, a := range xs[:n] {
				dst[k] = a - b
			}
		default:
			for k, a := range xs[:n] {
				dst[k] = a * b
			}
		}
	case xsc:
		a := xs[0]
		switch op {
		case '+':
			for k, b := range ys[:n] {
				dst[k] = a + b
			}
		case '-':
			for k, b := range ys[:n] {
				dst[k] = a - b
			}
		default:
			for k, b := range ys[:n] {
				dst[k] = a * b
			}
		}
	default:
		ys = ys[:n]
		switch op {
		case '+':
			for k, a := range xs[:n] {
				dst[k] = a + ys[k]
			}
		case '-':
			for k, a := range xs[:n] {
				dst[k] = a - ys[k]
			}
		default:
			for k, a := range xs[:n] {
				dst[k] = a * ys[k]
			}
		}
	}
}

// arithVec applies +,-,*,/,% (op is the operator's character) lane-wise
// under value's arith: NULL operands yield NULL before any kind or zero
// checks; DATE shifts by integer days and differences to days; INT pairs
// run value.IntArith, so division promotes remainders to FLOAT per lane;
// any FLOAT lane widens both sides through value.FloatArith; everything
// else errors per double-non-NULL lane. + - * over INT and FLOAT vectors,
// whose per-lane rule is the bare Go operator, run as tight loops.
func arithVec(l, r *bvec, op byte, n int) *bvec {
	if l.kind == value.KindNull || r.kind == value.KindNull {
		return &bvec{kind: value.KindNull, errs: unionBits(n, l.errs, r.errs)}
	}
	if l.kind == kindDynamic || r.kind == kindDynamic {
		var fn func(a, b value.Value) (value.Value, error)
		switch op {
		case '+':
			fn = value.Add
		case '-':
			fn = value.Sub
		case '*':
			fn = value.Mul
		case '/':
			fn = value.Div
		default:
			fn = value.Mod
		}
		out := &bvec{kind: kindDynamic, vals: make([]value.Value, n), errs: unionBits(n, l.errs, r.errs)}
		for k := 0; k < n; k++ {
			if relation.BitGet(out.errs, k) {
				continue
			}
			v, err := fn(l.lane(k), r.lane(k))
			if err != nil {
				out.errs = setBit(out.errs, n, k)
				continue
			}
			out.vals[k] = v
		}
		return out
	}
	lk, rk := l.kind, r.kind
	ls, rs := l.stride(), r.stride()
	nulls := unionBits(n, l.nulls, r.nulls)
	errs := unionBits(n, l.errs, r.errs)
	// DATE arithmetic: date ± int shifts days, date - date counts days.
	if lk == value.KindDate && rk == value.KindInt && (op == '+' || op == '-') {
		out := &bvec{kind: value.KindDate, ints: make([]int64, n), nulls: nulls, errs: errs}
		for k := 0; k < n; k++ {
			if op == '+' {
				out.ints[k] = l.ints[k*ls] + r.ints[k*rs]
			} else {
				out.ints[k] = l.ints[k*ls] - r.ints[k*rs]
			}
		}
		return out
	}
	if lk == value.KindDate && rk == value.KindDate && op == '-' {
		out := &bvec{kind: value.KindInt, ints: make([]int64, n), nulls: nulls, errs: errs}
		for k := 0; k < n; k++ {
			out.ints[k] = l.ints[k*ls] - r.ints[k*rs]
		}
		return out
	}
	numeric := func(k value.Kind) bool { return k == value.KindInt || k == value.KindFloat || k == kindNumeric }
	if !numeric(lk) || !numeric(rk) {
		out := &bvec{kind: value.KindNull, errs: errs}
		// NULL lanes bypass the kind error (arith checks NULL first).
		for k := 0; k < n; k++ {
			if relation.BitGet(out.errs, k) {
				continue
			}
			if !relation.BitGet(nulls, k) {
				out.errs = setBit(out.errs, n, k)
			}
		}
		return out
	}
	bare := op == '+' || op == '-' || op == '*'
	if lk == value.KindInt && rk == value.KindInt && bare {
		out := &bvec{kind: value.KindInt, ints: make([]int64, n), nulls: nulls, errs: errs}
		arithLanes(out.ints, l.ints, r.ints, l.scalar, r.scalar, op)
		return out
	}
	live := func(k int) bool { return !relation.BitGet(errs, k) && !relation.BitGet(nulls, k) }
	if lk == value.KindFloat || rk == value.KindFloat {
		// Every lane is FLOAT.
		out := &bvec{kind: value.KindFloat, floats: make([]float64, n), nulls: nulls, errs: errs}
		if bare && lk != kindNumeric && rk != kindNumeric {
			xs, xsc := floatLanes(l, n)
			ys, ysc := floatLanes(r, n)
			arithLanes(out.floats, xs, ys, xsc, ysc, op)
			return out
		}
		for k := 0; k < n; k++ {
			if !live(k) {
				continue
			}
			_, x, _ := l.num(k)
			_, y, _ := r.num(k)
			f, err := value.FloatArith(op, x, y)
			if err != nil {
				out.errs = setBit(out.errs, n, k)
				continue
			}
			out.floats[k] = f
		}
		return out
	}
	// INT and numeric operands: each lane's kinds pick the rule.
	ints, isFloat := make([]int64, n), relation.NewBitmap(n)
	anyFloat := false
	for k := 0; k < n; k++ {
		if !live(k) {
			continue
		}
		xi, xf, xFloat := l.num(k)
		yi, yf, yFloat := r.num(k)
		var (
			i         int64
			f         float64
			laneFloat = true
			err       error
		)
		if xFloat || yFloat {
			f, err = value.FloatArith(op, xf, yf)
		} else {
			i, f, laneFloat, err = value.IntArith(op, xi, yi)
		}
		switch {
		case err != nil:
			errs = setBit(errs, n, k)
		case laneFloat:
			ints[k] = int64(math.Float64bits(f))
			relation.BitSet(isFloat, k)
			anyFloat = true
		default:
			ints[k] = i
		}
	}
	if !anyFloat {
		return &bvec{kind: value.KindInt, ints: ints, nulls: nulls, errs: errs}
	}
	return &bvec{kind: kindNumeric, ints: ints, isFloat: isFloat, nulls: nulls, errs: errs}
}
