package relation

import (
	"sort"
	"strings"

	"sheetmusiq/internal/value"
)

// Index-vector views. The incremental evaluation pipeline (internal/core)
// represents each stage's output as a surviving-row index vector over the
// base relation plus computed-column vectors, instead of materialised tuple
// slices — snapshots then share backing storage, and a stage that is reused
// from cache costs nothing. The kernels here (grouping, sorting,
// materialisation) read rows through that row-index indirection without ever
// building the full working tuples; when the backing relation's typed column
// vectors are attached (Cols), they hash, compare and gather raw payloads
// without boxing a single cell.

// IndexView is a read-only view of surviving rows over a backing relation
// of Base rows: view row i is backing row Idx[i]. Column positions below
// Split read the backing relation's typed column vectors Cols; position
// Split+j reads the computed-column vector Over[j], a typed column indexed
// by the backing-row index. A nil Over column reads as NULL — the column
// exists in the working schema but has not been filled by any upstream
// stage, exactly the zero-Value cell of a freshly materialised working row.
type IndexView struct {
	Cols  []*Col
	Base  int
	Idx   []int32
	Over  []*Col
	Split int
}

// Len returns the number of surviving rows in the view.
func (v *IndexView) Len() int { return len(v.Idx) }

// At returns the cell at view row i, working-schema position col.
func (v *IndexView) At(i, col int) value.Value {
	return v.ColAt(col).Value(int(v.Idx[i]))
}

// GatherRow fills out (length Split+len(Over)) with view row i's full
// working row: the backing cells followed by every computed-column cell.
func (v *IndexView) GatherRow(i int, out []value.Value) {
	for j := range out {
		out[j] = v.At(i, j)
	}
}

// ColAt returns working position col as a typed column indexed by
// backing-row index. Computed columns are typed columns already — the
// backing-row indexing lines up because Over vectors are indexed the same
// way.
func (v *IndexView) ColAt(col int) *Col {
	if col < v.Split {
		return v.Cols[col]
	}
	vec := v.Over[col-v.Split]
	if vec == nil {
		return AllNullCol()
	}
	return vec
}

// keyCols resolves every working position to its typed column.
func (v *IndexView) keyCols(cols []int) []*Col {
	out := make([]*Col, len(cols))
	for i, c := range cols {
		out[i] = v.ColAt(c)
	}
	return out
}

// GroupView partitions the view's rows by the key columns (working-schema
// positions), assigning dense group IDs in first-occurrence view order —
// GroupRowsOn through the index indirection, hashing the typed payload
// arrays directly. An empty column set yields one group holding every row
// (level-1 aggregation).
func GroupView(v *IndexView, cols []int) *Grouping {
	n := v.Len()
	if n == 0 {
		return &Grouping{}
	}
	if len(cols) == 0 {
		return &Grouping{IDs: make([]int32, n), First: []int32{0}}
	}
	return GroupCols(v.keyCols(cols), v.Idx, n)
}

// SortView stably orders the view's rows by the key columns and returns the
// reordered index vector as a new slice; the view is not modified. With no
// keys the result is a copy of Idx. The typed comparator runs on raw
// payloads.
func SortView(v *IndexView, cols []int, desc []bool) []int32 {
	n := v.Len()
	out := make([]int32, n)
	if len(cols) == 0 || n < 2 {
		copy(out, v.Idx)
		return out
	}
	perm := SortPermCols(v.keyCols(cols), v.Idx, n, desc)
	_ = ForChunks(n, func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			out[i] = v.Idx[perm[i]]
		}
		return nil
	})
	return out
}

// CountingSortable reports whether a key column is eligible for the
// grouping-rank counting sort: a typed column whose compare-equal relation
// coincides exactly with the grouping kernels' cell equality. Float columns
// are excluded (MustCompare leaves NaN unordered — it compares 0 against
// values the grouping keeps distinct), as are Boxed columns (cross-kind
// numeric coincidences: Int 3 compares 0 against Float 3.0 but groups
// apart). For Int/Bool/Date/String/all-NULL columns, compare(a,b)==0 holds
// iff the cells land in the same group, which is what makes sorting by
// group rank equivalent to sorting by the keys.
func CountingSortable(c *Col) bool {
	return c != nil && c.Boxed == nil && c.Kind != value.KindFloat
}

// cellCompare three-way compares cells i and j of a non-Boxed typed column
// under value.MustCompare semantics: NULLs first, payload order otherwise.
func cellCompare(c *Col, i, j int) int {
	ni, nj := c.IsNull(i), c.IsNull(j)
	if ni || nj {
		switch {
		case ni && nj:
			return 0
		case ni:
			return -1
		}
		return 1
	}
	switch c.Kind {
	case value.KindString:
		return strings.Compare(c.Strs[i], c.Strs[j])
	case value.KindFloat:
		a, b := c.Floats[i], c.Floats[j]
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	default:
		a, b := c.Ints[i], c.Ints[j]
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
}

// SortViewByGrouping stably orders the view's rows by the key columns using
// a dense grouping computed over exactly those columns: the ng group
// representatives sort by their key cells (ng·log ng boxless compares), and
// one stable counting pass places every row by its group's rank —
// O(n + ng·log ng) against the comparison sort's O(n·log n). Every key
// column must satisfy CountingSortable, which guarantees the result is
// bit-identical to SortView: compare-equal keys always share a group, so
// within a rank bucket the counting pass preserves view order exactly as
// the stable merge does. The spreadsheet pipeline hits this constantly —
// the presentation order after grouping is the grouping basis itself, whose
// dense IDs the aggregate stages have already computed.
func SortViewByGrouping(v *IndexView, keyCols []*Col, desc []bool, gr *Grouping) []int32 {
	n := v.Len()
	out := make([]int32, n)
	if n == 0 {
		return out
	}
	ng := gr.NumGroups()
	order := make([]int32, ng)
	for g := range order {
		order[g] = int32(g)
	}
	sort.SliceStable(order, func(x, y int) bool {
		ra := int(v.Idx[gr.First[order[x]]])
		rb := int(v.Idx[gr.First[order[y]]])
		for k, c := range keyCols {
			cmp := cellCompare(c, ra, rb)
			if desc[k] {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	// Stable counting pass: rows fill their group's slice of out in view
	// order, buckets laid out in key-rank order.
	counts := make([]int32, ng)
	for _, g := range gr.IDs {
		counts[g]++
	}
	starts := make([]int32, ng)
	var total int32
	for _, g := range order {
		starts[g] = total
		total += counts[g]
	}
	for i, g := range gr.IDs {
		out[starts[g]] = v.Idx[i]
		starts[g]++
	}
	return out
}

// identityIdx reports whether idx is the identity over all n backing rows.
func identityIdx(idx []int32, n int) bool {
	if len(idx) != n {
		return false
	}
	for i, ri := range idx {
		if int(ri) != i {
			return false
		}
	}
	return true
}

// MaterializeView assembles the given working positions of every view row
// into a fresh column-built relation with the given schema. This is the
// pipeline's final assembly. Column vectors are immutable throughout the
// system, so assembly shares storage instead of copying: an identity index
// vector shares the columns themselves; anything else keeps the column
// vectors and the index vector as its deferred gather source
// (FromColumnsLazy), so a page boxes only its own rows and the full gather
// runs only if a consumer asks for the columns.
func MaterializeView(v *IndexView, cols []int, name string, schema Schema) *Relation {
	src := v.keyCols(cols)
	if identityIdx(v.Idx, v.Base) {
		return FromColumns(name, schema, src, v.Len())
	}
	return FromColumnsLazy(name, schema, src, v.Idx)
}
