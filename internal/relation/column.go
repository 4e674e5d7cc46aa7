package relation

import (
	"fmt"
	"strings"
	"sync"

	"sheetmusiq/internal/obs"
	"sheetmusiq/internal/value"
)

// Columnar substrate. The primary large-relation representation is a set of
// typed column vectors — int64/float64/string payload arrays plus a null
// bitmap per column — attached to the Relation behind its existing row API.
// Row-built relations columnarize lazily (and cache the result) the first
// time a vectorized kernel asks; column-built relations (FromColumns)
// materialize tuple rows lazily the first time a row consumer asks. Both
// conversions happen at most once per relation and are counted by
// relation.column.materialize (the row→column direction, the one that walks
// every boxed cell).
//
// Layout: Int, Bool and Date columns share the Ints payload array (Bool as
// 0/1, Date as days since epoch — exactly the value.Value payload), Float
// uses Floats, String uses Strs. Cells whose runtime kind does not match the
// schema kind (possible only through hand-built fixtures) fall back to a
// Boxed column of whole values, which the vectorized kernels treat as
// dynamically typed. NULLs are a per-column bitmap; payload slots of NULL
// cells are zero and must not be read.

var columnMaterialize = obs.Default.Counter("relation.column.materialize")

// autoColumnarThreshold is the row count at or above which Aggregate and
// SortedClone columnarize a row-built relation on first use rather than
// scanning boxed tuples. Below it the one-off conversion would cost more
// than it saves. Kernels always use columns that already exist regardless
// of size.
const autoColumnarThreshold = 256

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
// discipline, so typed grouping lands in the same buckets (and therefore the
// same first-occurrence numbering) as the boxed hashRow path. rows maps the
// hash lane to the cell index; nil means identity.
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

// colState is the Relation's lazily attached columnar cache. colBuilt marks
// relations constructed from columns (FromColumns): their columns are the
// source of truth and Rows materializes lazily; for row-built relations the
// inverse holds. Both flags and conversions are guarded by mu; colBuilt and
// nrows are written once at construction and safe to read unlocked.
type colState struct {
	mu        sync.Mutex
	colBuilt  bool // constructed columnar; Rows is derived
	nrows     int  // row count for colBuilt relations
	cols      []*Col
	colsReady bool       // cols valid
	rowsReady bool       // Rows valid for a colBuilt relation
	gather    *gatherSrc // deferred column assembly (FromColumnsLazy)
	ix        *NameIndex
}

// gatherSrc is the deferred gather of a lazily assembled relation, kept as
// data: column j is cols[j] read through the index vector idx. It is
// dropped once the columns are built.
type gatherSrc struct {
	cols []*Col
	idx  []int32
}

// colStateMu guards lazy creation of the per-relation colState pointer, so
// concurrent kernels may columnarize a shared relation safely.
var colStateMu sync.Mutex

func (r *Relation) colState() *colState {
	colStateMu.Lock()
	c := r.col
	if c == nil {
		c = &colState{}
		r.col = c
	}
	colStateMu.Unlock()
	return c
}

// FromColumns constructs a relation directly from typed column vectors; rows
// materialize lazily on first TupleRows call. cols must align with schema
// and every column must cover n cells.
func FromColumns(name string, schema Schema, cols []*Col, n int) *Relation {
	r := &Relation{Name: name, Schema: schema}
	r.col = &colState{colBuilt: true, nrows: n, cols: cols, colsReady: true}
	return r
}

// FromColumnsLazy constructs a column-built relation whose column j is
// src[j] read through the index vector idx, one row per entry. Nothing is
// copied up front: the columns gather at most once, the first time a
// consumer asks for Columns, and row reads (TupleRows, TupleRange) box
// straight from src through idx. The evaluation pipeline uses it for final
// assembly (late materialisation): a replay whose result is only paged pays
// for the page, not an n×w gather. src and idx must stay unmodified.
func FromColumnsLazy(name string, schema Schema, src []*Col, idx []int32) *Relation {
	r := &Relation{Name: name, Schema: schema}
	r.col = &colState{colBuilt: true, nrows: len(idx), gather: &gatherSrc{cols: src, idx: idx}}
	return r
}

// ensureColsLocked makes c.cols valid; the caller holds c.mu. The deferred
// gather runs here for lazily assembled relations; row-built relations
// columnarize from r.Rows.
func (r *Relation) ensureColsLocked(c *colState) {
	if c.colsReady {
		return
	}
	if g := c.gather; g != nil {
		c.cols = make([]*Col, len(g.cols))
		for j, src := range g.cols {
			c.cols[j] = src.Gather(g.idx)
		}
		c.gather = nil
	} else {
		c.cols = columnarize(r.Rows, r.Schema)
		columnMaterialize.Inc()
	}
	c.colsReady = true
}

// Columns returns the relation's typed column vectors, building and caching
// them from the rows (or running the deferred assembly) on first call. The
// returned columns are shared and must be treated as read-only.
func (r *Relation) Columns() []*Col {
	c := r.colState()
	c.mu.Lock()
	defer c.mu.Unlock()
	r.ensureColsLocked(c)
	return c.cols
}

// CachedColumns returns the column vectors if they are already built, nil
// otherwise; it never triggers a conversion. Kernels use it together with
// autoColumnarThreshold to decide whether columnarizing pays off.
func (r *Relation) CachedColumns() []*Col {
	if r.col == nil {
		return nil
	}
	c := r.col
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.colsReady {
		return c.cols
	}
	return nil
}

// TupleRows returns the relation's rows, materializing them from the column
// vectors on first call for column-built relations. Row-built relations
// return Rows directly. All relation operators read rows through this
// accessor so columnar relations flow through the whole API unchanged.
func (r *Relation) TupleRows() []Tuple {
	if r.col == nil || !r.col.colBuilt {
		return r.Rows
	}
	c := r.col
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.rowsReady {
		r.Rows = c.boxRowsLocked(0, c.nrows, len(r.Schema))
		c.rowsReady = true
	}
	return r.Rows
}

// TupleRange returns rows [lo, hi) — TupleRows()[lo:hi] — without
// materialising the rest, so a page of a column-built relation costs the
// page, not the table. Row-built relations, and column-built ones whose
// rows already exist, return the shared rows; otherwise the range is boxed
// from the columns, or from a lazily assembled relation's gather source
// through its index vector, building neither columns nor rows. It panics
// if the range is out of bounds, as slicing does. The rows must be treated
// as read-only.
func (r *Relation) TupleRange(lo, hi int) []Tuple {
	if r.col == nil || !r.col.colBuilt {
		return r.Rows[lo:hi:hi]
	}
	c := r.col
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rowsReady {
		return r.Rows[lo:hi:hi]
	}
	if lo < 0 || hi < lo || hi > c.nrows {
		panic(fmt.Sprintf("relation: TupleRange [%d:%d] out of range with length %d", lo, hi, c.nrows))
	}
	return c.boxRowsLocked(lo, hi, len(r.Schema))
}

// boxRowsLocked boxes rows [lo, hi) of a column-built relation into one
// flat backing array, reading the columns or, while the gather is
// deferred, its source columns through the index vector; the caller holds
// c.mu.
func (c *colState) boxRowsLocked(lo, hi, w int) []Tuple {
	cols, idx := c.cols, []int32(nil)
	if g := c.gather; g != nil {
		cols, idx = g.cols, g.idx
	}
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

// invalidateColumns drops the columnar cache after a row mutation (Append,
// Sort). For column-built relations the caller must have materialized rows
// first; ownership then flips to the row representation.
func (r *Relation) invalidateColumns() {
	if r.col == nil {
		return
	}
	c := r.col
	c.mu.Lock()
	c.colBuilt = false
	c.cols = nil
	c.colsReady = false
	c.rowsReady = false
	c.gather = nil
	c.ix = nil
	c.mu.Unlock()
}

// columnarize builds typed column vectors from materialized rows. A cell
// whose kind disagrees with the schema (hand-built fixtures) demotes its
// column to Boxed.
func columnarize(rows []Tuple, schema Schema) []*Col {
	cols := make([]*Col, len(schema))
	for ci, sc := range schema {
		cols[ci] = buildCol(len(rows), sc.Kind, func(i int) value.Value { return rows[i][ci] })
	}
	return cols
}

// ColOf builds a column of the given kind from a value vector; a value of
// another kind demotes it to Boxed, exactly as columnarize treats a
// row-built relation's cells.
func ColOf(kind value.Kind, vals []value.Value) *Col {
	return buildCol(len(vals), kind, func(i int) value.Value { return vals[i] })
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
			if c.Nulls == nil {
				c.Nulls = NewBitmap(n)
			}
			BitSet(c.Nulls, i)
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
// the schema is unchanged (relations invalidate theirs on Append/Sort along
// with the columnar cache; evaluation contexts rebuild per evaluation).
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
// use; Append and Sort invalidate it together with the columnar cache.
func (r *Relation) nameIndex() *NameIndex {
	c := r.colState()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ix == nil {
		c.ix = r.Schema.Index()
	}
	return c.ix
}

// ColumnIndex resolves a column name through the cached NameIndex.
func (r *Relation) ColumnIndex(name string) int {
	return r.nameIndex().IndexOf(name)
}
