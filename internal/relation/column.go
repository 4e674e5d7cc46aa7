package relation

import (
	"fmt"
	"slices"
	"strings"

	"sheetmusiq/internal/value"
)

// Columnar substrate. A relation is stored as typed column vectors —
// int64/float64/string payload arrays plus a null bitmap per column — and
// nothing else: producers append into them (Relation.Append), every
// operator reads them, and rows are boxed only at the edges (TupleRange,
// TupleRows), per call, never cached.
//
// Layout: Int, Bool and Date columns share the Ints payload array (Bool as
// 0/1, Date as days since epoch — exactly the value.Value payload), Float
// uses Floats, String uses Strs. A column whose cells are not all of one
// kind (computed columns, mixed fixtures) is a Boxed column of whole
// values, which the vectorized kernels treat as dynamically typed. NULLs
// are a per-column bitmap; payload slots of NULL cells are zero and must
// not be read, and no bit at or beyond the column's cell count is ever set.

// Col is one typed column vector. Exactly one payload family is populated:
// Ints (Int/Bool/Date), Floats (Float), Strs (String), or Boxed (cells of
// arbitrary kind, the escape hatch for computed columns and mixed fixtures).
// Nulls is a little-endian bitmap with bit i set when cell i is NULL; a nil
// bitmap means no NULLs.
type Col struct {
	Kind   value.Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Boxed  []value.Value
	Nulls  []uint64
}

// BitGet reports whether bit i of the bitmap is set. A nil bitmap reads as
// all-clear.
func BitGet(bm []uint64, i int) bool {
	return bm != nil && bm[uint(i)>>6]&(1<<(uint(i)&63)) != 0
}

// BitSet sets bit i of the bitmap.
func BitSet(bm []uint64, i int) { bm[uint(i)>>6] |= 1 << (uint(i) & 63) }

// NewBitmap returns an all-clear bitmap covering n bits.
func NewBitmap(n int) []uint64 { return make([]uint64, (n+63)/64) }

// IsNull reports whether cell i is NULL.
func (c *Col) IsNull(i int) bool {
	if c.Boxed != nil {
		return c.Boxed[i].IsNull()
	}
	if c.Kind == value.KindNull {
		return true
	}
	return BitGet(c.Nulls, i)
}

// Value reconstructs cell i as a boxed value.
func (c *Col) Value(i int) value.Value {
	if c.Boxed != nil {
		return c.Boxed[i]
	}
	if c.Kind == value.KindNull || BitGet(c.Nulls, i) {
		return value.Null
	}
	switch c.Kind {
	case value.KindInt:
		return value.NewInt(c.Ints[i])
	case value.KindFloat:
		return value.NewFloat(c.Floats[i])
	case value.KindString:
		return value.NewString(c.Strs[i])
	case value.KindBool:
		return value.NewBool(c.Ints[i] != 0)
	case value.KindDate:
		return value.NewDateDays(c.Ints[i])
	}
	return value.Null
}

// CellEqual reports whether cells i and j compare equal under value.Equal,
// without boxing either cell. It is the grouping kernels' collision check.
func (c *Col) CellEqual(i, j int) bool {
	if c.Boxed != nil {
		return value.Equal(c.Boxed[i], c.Boxed[j])
	}
	if c.Nulls == nil && c.Kind != value.KindNull {
		switch c.Kind {
		case value.KindFloat:
			a, b := c.Floats[i], c.Floats[j]
			return !(a < b) && !(a > b)
		case value.KindString:
			return c.Strs[i] == c.Strs[j]
		default:
			return c.Ints[i] == c.Ints[j]
		}
	}
	ni, nj := c.IsNull(i), c.IsNull(j)
	if ni || nj {
		return ni == nj // NULL equals NULL (multiset identity)
	}
	switch c.Kind {
	case value.KindFloat:
		// Matches Compare's float ordering: -0 == +0, NaN compares "equal"
		// to everything it is not <or> than — including itself — exactly as
		// MustCompare's default-0 arm behaves.
		a, b := c.Floats[i], c.Floats[j]
		return !(a < b) && !(a > b)
	case value.KindString:
		return c.Strs[i] == c.Strs[j]
	default:
		return c.Ints[i] == c.Ints[j]
	}
}

// HashInto folds cell hashes into the running row hashes hs[lo:hi]:
// hs[k] = mix64(hs[k] ^ Hash(cell at rows[k])) — the value.HashCombine
// discipline, so a typed column and a Boxed column of the same cells hash
// alike. rows maps the hash lane to the cell index; nil means identity.
func (c *Col) HashInto(hs []uint64, rows []int32, lo, hi int) {
	row := func(k int) int {
		if rows == nil {
			return k
		}
		return int(rows[k])
	}
	if c.Boxed != nil {
		for k := lo; k < hi; k++ {
			hs[k] = value.HashCombine(hs[k], c.Boxed[row(k)])
		}
		return
	}
	if c.Kind == value.KindNull {
		for k := lo; k < hi; k++ {
			hs[k] = value.Mix64(hs[k] ^ value.HashNull())
		}
		return
	}
	// The no-null loops below are the hot grouping path: the branch on the
	// null bitmap and the lane→cell indirection are hoisted out of the
	// per-lane loop so each iteration is a load, a payload hash, and the
	// combine mix.
	switch c.Kind {
	case value.KindInt:
		if c.Nulls == nil {
			if rows == nil {
				for k := lo; k < hi; k++ {
					hs[k] = value.Mix64(hs[k] ^ value.HashInt(c.Ints[k]))
				}
			} else {
				for k := lo; k < hi; k++ {
					hs[k] = value.Mix64(hs[k] ^ value.HashInt(c.Ints[rows[k]]))
				}
			}
			return
		}
		for k := lo; k < hi; k++ {
			i := row(k)
			if BitGet(c.Nulls, i) {
				hs[k] = value.Mix64(hs[k] ^ value.HashNull())
			} else {
				hs[k] = value.Mix64(hs[k] ^ value.HashInt(c.Ints[i]))
			}
		}
	case value.KindFloat:
		if c.Nulls == nil {
			if rows == nil {
				for k := lo; k < hi; k++ {
					hs[k] = value.Mix64(hs[k] ^ value.HashFloat(c.Floats[k]))
				}
			} else {
				for k := lo; k < hi; k++ {
					hs[k] = value.Mix64(hs[k] ^ value.HashFloat(c.Floats[rows[k]]))
				}
			}
			return
		}
		for k := lo; k < hi; k++ {
			i := row(k)
			if BitGet(c.Nulls, i) {
				hs[k] = value.Mix64(hs[k] ^ value.HashNull())
			} else {
				hs[k] = value.Mix64(hs[k] ^ value.HashFloat(c.Floats[i]))
			}
		}
	case value.KindString:
		if c.Nulls == nil {
			if rows == nil {
				for k := lo; k < hi; k++ {
					hs[k] = value.Mix64(hs[k] ^ value.HashString(c.Strs[k]))
				}
			} else {
				for k := lo; k < hi; k++ {
					hs[k] = value.Mix64(hs[k] ^ value.HashString(c.Strs[rows[k]]))
				}
			}
			return
		}
		for k := lo; k < hi; k++ {
			i := row(k)
			if BitGet(c.Nulls, i) {
				hs[k] = value.Mix64(hs[k] ^ value.HashNull())
			} else {
				hs[k] = value.Mix64(hs[k] ^ value.HashString(c.Strs[i]))
			}
		}
	case value.KindBool:
		for k := lo; k < hi; k++ {
			i := row(k)
			if BitGet(c.Nulls, i) {
				hs[k] = value.Mix64(hs[k] ^ value.HashNull())
			} else {
				hs[k] = value.Mix64(hs[k] ^ value.HashBool(c.Ints[i] != 0))
			}
		}
	case value.KindDate:
		for k := lo; k < hi; k++ {
			i := row(k)
			if BitGet(c.Nulls, i) {
				hs[k] = value.Mix64(hs[k] ^ value.HashNull())
			} else {
				hs[k] = value.Mix64(hs[k] ^ value.HashDate(c.Ints[i]))
			}
		}
	}
}

// Gather builds a new column holding cells rows[0..n) of c, in order — the
// columnar materialisation primitive. Payloads copy as raw typed slots; no
// cell is boxed.
func (c *Col) Gather(rows []int32) *Col {
	n := len(rows)
	if c.Boxed != nil {
		vals := make([]value.Value, n)
		for i, ri := range rows {
			vals[i] = c.Boxed[ri]
		}
		return &Col{Boxed: vals}
	}
	if c.Kind == value.KindNull {
		return AllNullCol()
	}
	out := &Col{Kind: c.Kind}
	if c.Nulls != nil {
		for i, ri := range rows {
			if BitGet(c.Nulls, int(ri)) {
				if out.Nulls == nil {
					out.Nulls = NewBitmap(n)
				}
				BitSet(out.Nulls, i)
			}
		}
	}
	switch c.Kind {
	case value.KindFloat:
		out.Floats = make([]float64, n)
		for i, ri := range rows {
			out.Floats[i] = c.Floats[ri]
		}
	case value.KindString:
		out.Strs = make([]string, n)
		for i, ri := range rows {
			out.Strs[i] = c.Strs[ri]
		}
	default: // Int, Bool, Date share the Ints payload
		out.Ints = make([]int64, n)
		for i, ri := range rows {
			out.Ints[i] = c.Ints[ri]
		}
	}
	return out
}

// GatherCols gathers every column at rows (Col.Gather), chunked across
// columns.
func GatherCols(cols []*Col, rows []int32) []*Col {
	out := make([]*Col, len(cols))
	_ = ForChunks(len(cols), func(_, lo, hi int) error {
		for j := lo; j < hi; j++ {
			out[j] = cols[j].Gather(rows)
		}
		return nil
	})
	return out
}

// AllNullCol returns a column whose every cell is NULL.
func AllNullCol() *Col { return &Col{Kind: value.KindNull} }

// NullsFromFilled folds a per-cell filled byte array (non-zero = cell has a
// value) into a null bitmap, or nil when every cell is filled. The byte
// array exists so parallel producers can mark disjoint cells without racing
// on shared bitmap words; the fold chunks on word boundaries, so each word
// is written by exactly one goroutine.
func NullsFromFilled(filled []uint8) []uint64 {
	n := len(filled)
	nulls := NewBitmap(n)
	_ = ForChunks(len(nulls), func(_, lo, hi int) error {
		for w := lo; w < hi; w++ {
			var word uint64
			base := w << 6
			end := base + 64
			if end > n {
				end = n
			}
			for i := base; i < end; i++ {
				if filled[i] == 0 {
					word |= 1 << (uint(i) & 63)
				}
			}
			if word != 0 {
				nulls[w] = word
			}
		}
		return nil
	})
	for _, w := range nulls {
		if w != 0 {
			return nulls
		}
	}
	return nil
}

// MemBytes approximates the column's resident payload size, for cache
// accounting.
func (c *Col) MemBytes() int64 {
	var b int64
	b += int64(8 * len(c.Ints))
	b += int64(8 * len(c.Floats))
	b += int64(16 * len(c.Strs))
	b += int64(40 * len(c.Boxed))
	b += int64(8 * len(c.Nulls))
	return b
}

// BoxedCol wraps a full-value vector as a dynamically typed column. The
// evaluation pipeline uses it to expose computed-column vectors to the
// vectorized expression kernels.
func BoxedCol(vals []value.Value) *Col { return &Col{Boxed: vals} }

// run gathers every source column through the index vector.
func (g *gatherSrc) run() []*Col {
	cols := make([]*Col, len(g.cols))
	for j, src := range g.cols {
		cols[j] = src.Gather(g.idx)
	}
	return cols
}

// Columns returns the relation's typed column vectors, running the deferred
// gather of a lazily assembled relation on first call. The columns are
// shared and must be treated as read-only; r's next Append copies them
// first.
func (r *Relation) Columns() []*Col {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gather != nil {
		r.cols = r.gather.run()
		r.gather = nil
	}
	r.shared = true
	return r.cols
}

// TupleRows boxes every row. It caches nothing: each call allocates the
// whole table, so a reader that needs a page uses TupleRange.
func (r *Relation) TupleRows() []Tuple { return r.TupleRange(0, r.n) }

// TupleRange boxes rows [lo, hi) into one flat backing array, reading the
// columns or, while the gather is deferred, its source columns through the
// index vector, so a page of a lazily assembled relation builds no columns.
// It panics if the range is out of bounds, as slicing does. The rows are
// the caller's.
func (r *Relation) TupleRange(lo, hi int) []Tuple {
	if lo < 0 || hi < lo || hi > r.n {
		panic(fmt.Sprintf("relation: TupleRange [%d:%d] out of range with length %d", lo, hi, r.n))
	}
	r.mu.Lock()
	cols, idx := r.cols, []int32(nil)
	if g := r.gather; g != nil {
		cols, idx = g.cols, g.idx
	}
	r.mu.Unlock()
	w := len(r.Schema)
	flat := make([]value.Value, (hi-lo)*w)
	rows := make([]Tuple, hi-lo)
	for i := range rows {
		ri := lo + i
		if idx != nil {
			ri = int(idx[ri])
		}
		row := flat[i*w : (i+1)*w : (i+1)*w]
		for ci, col := range cols {
			row[ci] = col.Value(ri)
		}
		rows[i] = row
	}
	return rows
}

// clone deep-copies the column.
func (c *Col) clone() *Col {
	out := &Col{Kind: c.Kind}
	if c.Ints != nil {
		out.Ints = append([]int64(nil), c.Ints...)
	}
	if c.Floats != nil {
		out.Floats = append([]float64(nil), c.Floats...)
	}
	if c.Strs != nil {
		out.Strs = append([]string(nil), c.Strs...)
	}
	if c.Boxed != nil {
		out.Boxed = append([]value.Value(nil), c.Boxed...)
	}
	if c.Nulls != nil {
		out.Nulls = append([]uint64(nil), c.Nulls...)
	}
	return out
}

// appendCell appends v as cell i, the column's current length. v is NULL
// or of the schema kind (or an INT for a FLOAT column, which widens). The
// common case, a typed column of that kind, appends the payload and, for a
// NULL, sets its bit; appendOther takes the rest.
func (c *Col) appendCell(i int, kind value.Kind, v *value.Value) {
	k := v.Kind()
	if c.Boxed != nil || c.Kind == value.KindNull ||
		(k != c.Kind && k != value.KindNull && (k != value.KindInt || c.Kind != value.KindFloat)) {
		c.appendOther(i, kind, *v)
		return
	}
	if c.Nulls != nil && i>>6 == len(c.Nulls) {
		c.Nulls = push(c.Nulls, 0)
	}
	switch c.Kind {
	case value.KindFloat:
		var f float64
		switch k {
		case value.KindFloat:
			f = v.Float()
		case value.KindInt:
			f = float64(v.Int())
		}
		c.Floats = push(c.Floats, f)
	case value.KindString:
		var s string
		if k == value.KindString {
			s = v.Str()
		}
		c.Strs = push(c.Strs, s)
	default: // Int, Bool and Date share the Ints payload
		var x int64
		switch k {
		case value.KindInt:
			x = v.Int()
		case value.KindDate:
			x = v.DateDays()
		case value.KindBool:
			if v.Bool() {
				x = 1
			}
		}
		c.Ints = push(c.Ints, x)
	}
	if k == value.KindNull {
		if c.Nulls == nil {
			c.Nulls = NewBitmap(i + 1)
		}
		BitSet(c.Nulls, i)
	}
}

// appendOther is appendCell's uncommon case: a Boxed column appends the
// (widened) value, an all-NULL column takes a NULL as is and turns typed at
// its first value, and a typed column meeting a value of another kind
// (possible only in hand-built columns) turns Boxed.
func (c *Col) appendOther(i int, kind value.Kind, v value.Value) {
	if kind == value.KindFloat && v.Kind() == value.KindInt {
		v = value.NewFloat(float64(v.Int()))
	}
	switch {
	case c.Boxed != nil:
	case c.Kind == value.KindNull && v.IsNull():
		return
	case c.Kind == value.KindNull && v.Kind() == kind:
		*c = *buildCol(i, kind, func(int) value.Value { return value.Null })
		c.appendCell(i, kind, &v)
		return
	default:
		*c = *boxedCells(i, c.Value)
	}
	c.Boxed = push(c.Boxed, v)
}

// push appends x to s, doubling the capacity when s is full: append's own
// policy grows a large slice by about a quarter, so a long run of appends
// allocates about five times the final size, where doubling allocates two.
func push[T any](s []T, x T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, len(s)+8)
	}
	return append(s, x)
}

// concatCols returns a's n cells followed by b's m cells as a new column.
// Two typed columns of one kind concatenate their payloads and bitmaps; any
// other pairing (a Boxed or all-NULL side, or kinds that differ) rebuilds
// the cells under the schema kind as ColOf does, so the result holds exactly
// the cells of the concatenated rows.
func concatCols(a *Col, n int, b *Col, m int, kind value.Kind) *Col {
	if a.Boxed != nil || b.Boxed != nil || a.Kind != b.Kind {
		return buildCol(n+m, kind, func(i int) value.Value {
			if i < n {
				return a.Value(i)
			}
			return b.Value(i - n)
		})
	}
	out := &Col{Kind: a.Kind}
	switch a.Kind {
	case value.KindNull:
		return out
	case value.KindFloat:
		out.Floats = append(append(make([]float64, 0, n+m), a.Floats[:n]...), b.Floats[:m]...)
	case value.KindString:
		out.Strs = append(append(make([]string, 0, n+m), a.Strs[:n]...), b.Strs[:m]...)
	default:
		out.Ints = append(append(make([]int64, 0, n+m), a.Ints[:n]...), b.Ints[:m]...)
	}
	if a.Nulls != nil || b.Nulls != nil {
		out.Nulls = NewBitmap(n + m)
		copy(out.Nulls, a.Nulls)
		for i := 0; i < m; i++ {
			if BitGet(b.Nulls, i) {
				BitSet(out.Nulls, n+i)
			}
		}
	}
	return out
}

// ColOf builds a column of the given kind from a value vector; a non-NULL
// value of another kind demotes it to Boxed.
func ColOf(kind value.Kind, vals []value.Value) *Col {
	return buildCol(len(vals), kind, func(i int) value.Value { return vals[i] })
}

// ValuesCol builds a column from values whose kind is not declared — the
// values rule: typed in the first non-NULL value's kind when every non-NULL
// value has that kind, Boxed over vals itself when the kinds mix, and
// AllNullCol when every value is NULL.
func ValuesCol(vals []value.Value) *Col {
	kind := value.KindNull
	for _, v := range vals {
		switch {
		case v.IsNull():
		case kind == value.KindNull:
			kind = v.Kind()
		case v.Kind() != kind:
			return BoxedCol(vals)
		}
	}
	if kind == value.KindNull {
		return AllNullCol()
	}
	return ColOf(kind, vals)
}

// Place writes a kernel column at base rows: lane k of the len(to) lanes
// reads cell from[k] of c (nil from = cell k) and lands at cell to[k] of a
// fresh column of size cells; every other cell is NULL. η places a
// GroupAggregate column through its group IDs, ω a WindowEval column lane by
// lane. A declared FLOAT kind widens c's INT cells first; the form then
// follows the values rule over c's cells (AllNullCol when none is non-NULL).
// Typed cells copy as raw payloads in parallel chunks, each marking a filled
// byte per cell that folds into the null bitmap afterwards, so no cell is
// boxed and no chunk writes a bitmap word another chunk writes.
func Place(c *Col, from, to []int32, size int, kind value.Kind) *Col {
	if c.Boxed != nil {
		vals := c.Boxed
		if kind == value.KindFloat {
			vals = make([]value.Value, len(c.Boxed))
			for i, v := range c.Boxed {
				if v.Kind() == value.KindInt {
					v = value.NewFloat(float64(v.Int()))
				}
				vals[i] = v
			}
		}
		if c = ValuesCol(vals); c.Boxed != nil {
			out := make([]value.Value, size)
			_ = ForChunks(len(to), func(_, lo, hi int) error {
				for k := lo; k < hi; k++ {
					out[to[k]] = c.Boxed[laneCell(from, k)]
				}
				return nil
			})
			return BoxedCol(out)
		}
	}
	if c.Kind == value.KindNull || c.allNull() {
		return AllNullCol()
	}
	if kind == value.KindFloat && c.Kind == value.KindInt {
		fs := make([]float64, len(c.Ints))
		for i, x := range c.Ints {
			fs[i] = float64(x)
		}
		c = &Col{Kind: value.KindFloat, Floats: fs, Nulls: c.Nulls}
	}
	out := &Col{Kind: c.Kind}
	filled := make([]uint8, size)
	switch c.Kind {
	case value.KindFloat:
		out.Floats = make([]float64, size)
		placeLanes(out.Floats, c.Floats, c.Nulls, from, to, filled)
	case value.KindString:
		out.Strs = make([]string, size)
		placeLanes(out.Strs, c.Strs, c.Nulls, from, to, filled)
	default: // Int, Bool and Date share the Ints payload
		out.Ints = make([]int64, size)
		placeLanes(out.Ints, c.Ints, c.Nulls, from, to, filled)
	}
	out.Nulls = NullsFromFilled(filled)
	return out
}

// laneCell maps lane k to its cell through a lane→cell vector (nil =
// identity), the indirection every kernel reads its input through.
func laneCell(rows []int32, k int) int {
	if rows == nil {
		return k
	}
	return int(rows[k])
}

// placeLanes is Place's typed copy: dst[to[k]] = src[from[k]] for every lane
// whose source cell is not NULL, marking the cell filled. The null-free
// identity and indirect loops are hoisted out, as in HashInto.
func placeLanes[T int64 | float64 | string](dst, src []T, nulls []uint64, from, to []int32, filled []uint8) {
	_ = ForChunks(len(to), func(_, lo, hi int) error {
		switch {
		case nulls == nil && from == nil:
			for k := lo; k < hi; k++ {
				ri := to[k]
				dst[ri] = src[k]
				filled[ri] = 1
			}
		case nulls == nil:
			for k := lo; k < hi; k++ {
				ri := to[k]
				dst[ri] = src[from[k]]
				filled[ri] = 1
			}
		default:
			for k := lo; k < hi; k++ {
				i := laneCell(from, k)
				if BitGet(nulls, i) {
					continue
				}
				ri := to[k]
				dst[ri] = src[i]
				filled[ri] = 1
			}
		}
		return nil
	})
}

// allNull reports whether every cell of the typed column c is NULL: its null
// bitmap sets a bit for each payload slot (and no bit beyond them is set).
func (c *Col) allNull() bool {
	m := len(c.Ints) + len(c.Floats) + len(c.Strs)
	if m > 0 && c.Nulls == nil {
		return false
	}
	for w := 0; w < m>>6; w++ {
		if c.Nulls[w] != ^uint64(0) {
			return false
		}
	}
	if r := m & 63; r != 0 {
		return c.Nulls[m>>6] == 1<<r-1
	}
	return true
}

// setNull marks cell i of an n-cell column NULL, allocating the bitmap on
// first use.
func (c *Col) setNull(i, n int) {
	if c.Nulls == nil {
		c.Nulls = NewBitmap(n)
	}
	BitSet(c.Nulls, i)
}

// buildCol builds an n-cell column of the given kind from cell(i), or a
// Boxed column of the cells when some non-NULL cell is of another kind.
func buildCol(n int, kind value.Kind, cell func(i int) value.Value) *Col {
	c := &Col{Kind: kind}
	switch kind {
	case value.KindInt, value.KindBool, value.KindDate:
		c.Ints = make([]int64, n)
	case value.KindFloat:
		c.Floats = make([]float64, n)
	case value.KindString:
		c.Strs = make([]string, n)
	default:
		return boxedCells(n, cell)
	}
	for i := 0; i < n; i++ {
		v := cell(i)
		if v.IsNull() {
			c.setNull(i, n)
			continue
		}
		if v.Kind() != kind {
			return boxedCells(n, cell)
		}
		switch kind {
		case value.KindInt:
			c.Ints[i] = v.Int()
		case value.KindFloat:
			c.Floats[i] = v.Float()
		case value.KindString:
			c.Strs[i] = v.Str()
		case value.KindBool:
			if v.Bool() {
				c.Ints[i] = 1
			}
		case value.KindDate:
			c.Ints[i] = v.DateDays()
		}
	}
	return c
}

func boxedCells(n int, cell func(i int) value.Value) *Col {
	vals := make([]value.Value, n)
	for i := range vals {
		vals[i] = cell(i)
	}
	return &Col{Boxed: vals}
}

// NameIndex is a cached name→position map over a schema, replacing the
// linear case-insensitive scan of Schema.IndexOf on hot paths. exact maps
// each column's spelled name to the position the linear scan would return
// (first case-insensitive match wins, preserving IndexOf's tie-break);
// folded maps the lowercased name for lookups spelled differently.
type NameIndex struct {
	exact  map[string]int
	folded map[string]int
}

// Index builds a NameIndex for the schema. Callers cache it for as long as
// the schema is unchanged (a relation's never changes; evaluation contexts
// rebuild per evaluation).
func (s Schema) Index() *NameIndex {
	ix := &NameIndex{
		exact:  make(map[string]int, len(s)),
		folded: make(map[string]int, len(s)),
	}
	for i, c := range s {
		low := strings.ToLower(c.Name)
		if _, ok := ix.folded[low]; !ok {
			ix.folded[low] = i
		}
		if _, ok := ix.exact[c.Name]; !ok {
			// The spelled name resolves to the first case-insensitive match,
			// exactly as the linear scan does.
			ix.exact[c.Name] = ix.folded[low]
		}
	}
	return ix
}

// IndexOf returns the position of the named column (case-insensitive), or
// -1 — Schema.IndexOf through the map.
func (ix *NameIndex) IndexOf(name string) int {
	if i, ok := ix.exact[name]; ok {
		return i
	}
	if i, ok := ix.folded[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// nameIndex returns the relation's cached NameIndex, building it on first
// use. A relation's schema never changes, so neither does its index.
func (r *Relation) nameIndex() *NameIndex {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ix == nil {
		r.ix = r.Schema.Index()
	}
	return r.ix
}

// ColumnIndex resolves a column name through the cached NameIndex.
func (r *Relation) ColumnIndex(name string) int {
	return r.nameIndex().IndexOf(name)
}
