package relation

import (
	"fmt"
	"math"
	"strings"

	"sheetmusiq/internal/value"
)

// AggFunc names a SQL-style aggregate function.
type AggFunc string

// The supported aggregate functions. Count counts tuples in the group (the
// paper's Sec. III-B rule: tuples, never sub-groups); CountDistinct counts
// distinct non-NULL inputs; the remainder ignore NULL inputs as in SQL.
const (
	AggSum           AggFunc = "SUM"
	AggAvg           AggFunc = "AVG"
	AggMin           AggFunc = "MIN"
	AggMax           AggFunc = "MAX"
	AggCount         AggFunc = "COUNT"
	AggCountDistinct AggFunc = "COUNT_DISTINCT"
	AggStdDev        AggFunc = "STDDEV"
)

// ParseAggFunc resolves a case-insensitive aggregate name.
func ParseAggFunc(name string) (AggFunc, error) {
	switch strings.ToUpper(name) {
	case "SUM":
		return AggSum, nil
	case "AVG", "MEAN":
		return AggAvg, nil
	case "MIN":
		return AggMin, nil
	case "MAX":
		return AggMax, nil
	case "COUNT":
		return AggCount, nil
	case "COUNT_DISTINCT":
		return AggCountDistinct, nil
	case "STDDEV", "STDEV":
		return AggStdDev, nil
	}
	return "", fmt.Errorf("relation: unknown aggregate function %q", name)
}

// ResultKind returns the kind an aggregate over an input kind produces.
func (f AggFunc) ResultKind(input value.Kind) value.Kind {
	switch f {
	case AggCount, AggCountDistinct:
		return value.KindInt
	case AggAvg, AggStdDev:
		return value.KindFloat
	case AggSum:
		if input == value.KindInt {
			return value.KindInt
		}
		return value.KindFloat
	default: // MIN, MAX preserve input kind
		return input
	}
}

// valueSet is a small open-addressing set of values under value.Equal —
// COUNT_DISTINCT's backing store, with no per-value string key.
type valueSet struct {
	slots  []int32 // index+1 into vals; 0 marks an empty slot
	mask   uint64
	vals   []value.Value
	hashes []uint64
}

func newValueSet() *valueSet {
	return &valueSet{slots: make([]int32, 16), mask: 15}
}

// Len returns the number of distinct values added.
func (s *valueSet) Len() int { return len(s.vals) }

// Add inserts v unless an equal value is already present.
func (s *valueSet) Add(v value.Value) { s.addHashed(v, value.Hash(v)) }

func (s *valueSet) addHashed(v value.Value, h uint64) {
	i := h & s.mask
	for {
		sl := s.slots[i]
		if sl == 0 {
			break
		}
		if j := sl - 1; s.hashes[j] == h && value.Equal(s.vals[j], v) {
			return
		}
		i = (i + 1) & s.mask
	}
	s.vals = append(s.vals, v)
	s.hashes = append(s.hashes, h)
	s.slots[i] = int32(len(s.vals))
	if 4*len(s.vals) >= 3*len(s.slots) {
		s.grow()
	}
}

func (s *valueSet) grow() {
	slots := make([]int32, 2*len(s.slots))
	mask := uint64(len(slots) - 1)
	for j, h := range s.hashes {
		i := h & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = int32(j) + 1
	}
	s.slots = slots
	s.mask = mask
}

// AddAll folds every value of o into s.
func (s *valueSet) AddAll(o *valueSet) {
	for i, v := range o.vals {
		s.addHashed(v, o.hashes[i])
	}
}

// accumulator incrementally computes one aggregate over boxed values: the
// boxed lane of GroupAggregate (one per group over a Boxed column), every
// window frame's state, and the tests' independent reference. It is used by
// value and reset per group or frame, so a window frame costs no allocation.
type accumulator struct {
	fn       AggFunc
	count    int64 // tuples seen (COUNT semantics)
	nonNull  int64
	sum      float64
	sumSq    float64
	intSum   int64
	intExact bool
	best     value.Value // MIN/MAX: the extreme seen first
	distinct *valueSet
}

// newAccumulator returns an accumulator for fn.
func newAccumulator(fn AggFunc) *accumulator {
	a := &accumulator{}
	a.reset(fn)
	return a
}

// reset empties a for a fresh accumulation of fn.
func (a *accumulator) reset(fn AggFunc) {
	*a = accumulator{fn: fn, intExact: true}
	if fn == AggCountDistinct {
		a.distinct = newValueSet()
	}
}

// improves reports whether a value comparing c against the best so far
// replaces it: a strict compare only, so the first-seen value wins ties and
// NaN, which compares 0 with everything, never replaces.
func (a *accumulator) improves(c int) bool {
	return (a.fn == AggMin && c < 0) || (a.fn == AggMax && c > 0)
}

// Add feeds one input value. COUNT counts every tuple including NULLs
// (matching COUNT(*)); all other functions skip NULL inputs.
func (a *accumulator) Add(v value.Value) error {
	a.count++
	if v.IsNull() {
		return nil
	}
	a.nonNull++
	switch a.fn {
	case AggCount:
		return nil
	case AggCountDistinct:
		a.distinct.Add(v)
		return nil
	case AggMin, AggMax:
		if a.best.IsNull() || a.improves(value.MustCompare(v, a.best)) {
			a.best = v
		}
		return nil
	}
	f, ok := v.AsFloat()
	if !ok {
		return fmt.Errorf("relation: %s over non-numeric %s", a.fn, v.Kind())
	}
	if v.Kind() == value.KindInt {
		a.intSum += v.Int()
	} else {
		a.intExact = false
	}
	a.sum += f
	a.sumSq += f * f
	return nil
}

// addCell feeds cell i of c exactly as Add(c.Value(i)) does. COUNT, MIN and
// MAX over any typed column, and SUM/AVG over INT, FLOAT or all-NULL
// columns, read the payload in place; a Boxed cell, and any other function
// or kind, goes through Add, so the error text and the erring cell stay
// Add's.
func (a *accumulator) addCell(c *Col, i int) error {
	if c.Boxed != nil {
		return a.Add(c.Boxed[i])
	}
	if c.Kind == value.KindNull || BitGet(c.Nulls, i) {
		a.count++ // Add(NULL) counts the tuple and nothing else
		return nil
	}
	sums := a.fn == AggSum || a.fn == AggAvg
	switch {
	case a.fn == AggCount:
	case a.fn == AggMin || a.fn == AggMax:
		if a.best.IsNull() || a.improves(cellCompareValue(c, i, a.best)) {
			a.best = c.Value(i)
		}
	case sums && c.Kind == value.KindInt:
		a.intSum += c.Ints[i]
		a.sum += float64(c.Ints[i])
	case sums && c.Kind == value.KindFloat:
		a.intExact = false
		a.sum += c.Floats[i]
	default:
		return a.Add(c.Value(i))
	}
	a.count++
	a.nonNull++
	return nil
}

// cellCompareValue is value.MustCompare(c.Value(i), v) for a non-NULL cell
// of the typed column c, read from the payload when v has c's kind.
func cellCompareValue(c *Col, i int, v value.Value) int {
	if v.Kind() == c.Kind {
		switch c.Kind {
		case value.KindInt:
			return order(c.Ints[i], v.Int())
		case value.KindFloat:
			return order(c.Floats[i], v.Float())
		case value.KindString:
			return strings.Compare(c.Strs[i], v.Str())
		case value.KindDate:
			return order(c.Ints[i], v.DateDays())
		case value.KindBool:
			b := int64(0)
			if v.Bool() {
				b = 1
			}
			return order(c.Ints[i], b)
		}
	}
	return value.MustCompare(c.Value(i), v)
}

// order compares x and y three-way; a NaN compares 0 with everything, as in
// value.Compare.
func order[T int64 | float64](x, y T) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// mergeExact reports whether chunked accumulation merged via Merge is
// bit-identical to the sequential scan for fn over the given input kind.
// COUNT and COUNT_DISTINCT are order-insensitive for any input. SUM
// re-associates addition, which is exact for integer inputs (the wrapping
// int64 sum) but not for float streams. AVG and STDDEV sum in float64
// whatever the input, and integers past 2^53 round there, so they never
// merge. MIN and MAX merge exactly over totally ordered cells, which FLOAT
// cells are not: NaN compares equal to everything, so a chunk whose first
// cell is NaN keeps it and ignores the rest of the chunk, and the merge then
// drops that partial. GroupAggregate keeps those passes sequential so every
// parallel result stays deterministic and identical to the sequential one;
// it asks about a Boxed column as about a FLOAT one, since its cells may be
// floats whatever kind was declared for it (and ints past 2^53 beside floats
// break MustCompare's transitivity the same way NaN does).
func mergeExact(fn AggFunc, input value.Kind) bool {
	switch fn {
	case AggSum, AggMin, AggMax:
		return input != value.KindFloat
	case AggAvg, AggStdDev:
		return false
	}
	return true
}

// Merge folds o — an accumulator for the same function fed a later chunk
// of the group's rows — into a. The parallel aggregation path accumulates
// per-chunk partials and merges them in chunk order, so first-seen
// tie-breaks (MIN/MAX over compare-equal values) match the sequential
// scan. SUM, COUNT, MIN and MAX merge directly; AVG and STDDEV merge
// through their sum/sum-of-squares/count decomposition.
func (a *accumulator) Merge(o *accumulator) {
	a.count += o.count
	a.nonNull += o.nonNull
	a.sum += o.sum
	a.sumSq += o.sumSq
	a.intSum += o.intSum
	a.intExact = a.intExact && o.intExact
	if !o.best.IsNull() && (a.best.IsNull() || a.improves(value.MustCompare(o.best, a.best))) {
		a.best = o.best
	}
	if o.distinct != nil {
		a.distinct.AddAll(o.distinct)
	}
}

// Result returns the final aggregate value. Empty groups yield NULL for
// every function except COUNT variants, which yield 0.
func (a *accumulator) Result() value.Value {
	switch a.fn {
	case AggCount:
		return value.NewInt(a.count)
	case AggCountDistinct:
		return value.NewInt(int64(a.distinct.Len()))
	}
	if a.nonNull == 0 {
		return value.Null
	}
	switch a.fn {
	case AggSum:
		if a.intExact {
			return value.NewInt(a.intSum)
		}
		return value.NewFloat(a.sum)
	case AggAvg:
		return value.NewFloat(a.sum / float64(a.nonNull))
	case AggMin, AggMax:
		return a.best
	case AggStdDev:
		n := float64(a.nonNull)
		mean := a.sum / n
		varc := a.sumSq/n - mean*mean
		if varc < 0 {
			varc = 0
		}
		// Population standard deviation; documented in DESIGN.md.
		return value.NewFloat(math.Sqrt(varc))
	}
	return value.Null
}

// Aggregate computes fn over the named column for every group defined by
// groupCols, returning one row per group in first-appearance order: the
// group key columns followed by the aggregate result. Empty groupCols
// aggregates the whole relation, which yields one row even when it is
// empty. Grouping, accumulation and key extraction run over the typed
// columns (GroupCols, GroupAggregate), and the result is column-built.
func (r *Relation) Aggregate(groupCols []string, fn AggFunc, col string) (*Relation, error) {
	var ci = -1
	if col != "" {
		ci = r.ColumnIndex(col)
		if ci < 0 {
			return nil, fmt.Errorf("aggregate: no column %q in %s", col, r.Name)
		}
	} else if fn != AggCount {
		return nil, fmt.Errorf("aggregate: %s requires a column", fn)
	}
	gidx, err := r.ColumnIndexes(groupCols)
	if err != nil {
		return nil, err
	}
	cols, n := r.Columns(), r.n
	keyCols := make([]*Col, len(gidx))
	for i, j := range gidx {
		keyCols[i] = cols[j]
	}
	gr := GroupCols(keyCols, nil, n)
	if len(gidx) == 0 && n == 0 {
		gr.First = []int32{0} // the empty relation's single group
	}
	ng := gr.NumGroups()

	inKind := value.KindFloat
	if ci >= 0 {
		inKind = r.Schema[ci].Kind
	}
	schema := make(Schema, 0, len(gidx)+1)
	for _, j := range gidx {
		schema = append(schema, r.Schema[j])
	}
	outName := string(fn) + "_" + col
	if col == "" {
		outName = string(fn)
	}
	schema = append(schema, Column{Name: outName, Kind: fn.ResultKind(inKind)})

	var in *Col
	if ci >= 0 {
		in = cols[ci]
	}
	res, _, err := GroupAggregate(fn, in, gr.IDs, nil, n, ng)
	if err != nil {
		return nil, err
	}
	// Over a Boxed input the values rule may settle on a kind other than
	// the declared one; such a column is Boxed, as ColOf would build it.
	if k := schema[len(gidx)].Kind; res.Boxed == nil && res.Kind != value.KindNull && res.Kind != k {
		res = boxedCells(ng, res.Value)
	}
	out := append(GatherCols(keyCols, gr.First), res)
	return FromColumns(r.Name, schema, out, ng), nil
}
