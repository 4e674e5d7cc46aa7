// Package relation implements the in-memory relational substrate beneath the
// spreadsheet algebra: schemas, tuples, and multiset relations, together with
// textbook relational-algebra primitives (selection, projection, product,
// multiset union/difference, join, sorting, grouping with aggregation).
//
// The spreadsheet algebra of internal/core is defined over relations from
// this package; the SQL engine of internal/sql executes against them; and the
// relational operators here double as the independent baseline that property
// tests compare the higher layers against.
package relation

import (
	"fmt"
	"strings"

	"sheetmusiq/internal/value"
)

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Kind value.Kind
}

// Schema is an ordered list of columns.
type Schema []Column

// IndexOf returns the position of the named column (case-insensitive), or -1.
func (s Schema) IndexOf(name string) int {
	for i, c := range s {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Has reports whether the schema contains the named column.
func (s Schema) Has(name string) bool { return s.IndexOf(name) >= 0 }

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// Clone returns a copy of the schema.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// Equal reports whether two schemas have the same columns in the same order
// (names compared case-insensitively).
func (s Schema) Equal(o Schema) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if !strings.EqualFold(s[i].Name, o[i].Name) || s[i].Kind != o[i].Kind {
			return false
		}
	}
	return true
}

// String renders the schema as "name TYPE, ...".
func (s Schema) String() string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = c.Name + " " + c.Kind.String()
	}
	return strings.Join(parts, ", ")
}

// Tuple is one row of values, positionally aligned with a schema.
type Tuple []value.Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Key returns a string identifying the tuple's values for multiset
// bookkeeping; equal tuples share a key.
func (t Tuple) Key() string {
	var b strings.Builder
	for _, v := range t {
		b.WriteString(v.Key())
		b.WriteByte('\x1f')
	}
	return b.String()
}

// KeyOn returns the key restricted to the given column positions.
func (t Tuple) KeyOn(cols []int) string {
	var b strings.Builder
	for _, c := range cols {
		b.WriteString(t[c].Key())
		b.WriteByte('\x1f')
	}
	return b.String()
}

// Relation is a named multiset of tuples over a schema. Large relations
// additionally carry typed column vectors (column.go): row-built relations
// grow them lazily on first kernel use, column-built relations (FromColumns)
// materialize Rows lazily instead. Code outside this package must read rows
// through TupleRows(), never the Rows field, so both representations flow
// through the same API.
type Relation struct {
	Name   string
	Schema Schema
	Rows   []Tuple
	col    *colState // lazily attached columnar cache; nil until first use
}

// New creates an empty relation with the given name and schema.
func New(name string, schema Schema) *Relation {
	return &Relation{Name: name, Schema: schema.Clone()}
}

// Append adds a row after checking arity and kinds (NULL matches any kind).
// Columnar relations materialize their rows first; the (now stale) column
// cache is dropped and rebuilds lazily on next kernel use.
func (r *Relation) Append(t Tuple) error {
	if len(t) != len(r.Schema) {
		return fmt.Errorf("relation %s: row arity %d != schema arity %d", r.Name, len(t), len(r.Schema))
	}
	for i, v := range t {
		if v.IsNull() {
			continue
		}
		if v.Kind() != r.Schema[i].Kind {
			// Permit int into float columns; everything else is an error.
			if r.Schema[i].Kind == value.KindFloat && v.Kind() == value.KindInt {
				t[i] = value.NewFloat(float64(v.Int()))
				continue
			}
			return fmt.Errorf("relation %s: column %s expects %s, got %s",
				r.Name, r.Schema[i].Name, r.Schema[i].Kind, v.Kind())
		}
	}
	rows := r.TupleRows()
	r.invalidateColumns()
	r.Rows = append(rows, t)
	return nil
}

// MustAppend appends and panics on schema mismatch; for test fixtures.
func (r *Relation) MustAppend(vals ...value.Value) {
	if err := r.Append(Tuple(vals)); err != nil {
		panic(err)
	}
}

// Len returns the number of rows.
func (r *Relation) Len() int {
	if r.col != nil && r.col.colBuilt {
		return r.col.nrows
	}
	return len(r.Rows)
}

// Clone deep-copies the relation. Column-built relations clone their column
// vectors (rows stay lazy; a deferred gather runs first); row-built
// relations deep-copy the rows.
func (r *Relation) Clone() *Relation {
	if r.col != nil && r.col.colBuilt {
		c := r.col
		c.mu.Lock()
		r.ensureColsLocked(c)
		cols := make([]*Col, len(c.cols))
		for i, src := range c.cols {
			cc := &Col{Kind: src.Kind}
			if src.Ints != nil {
				cc.Ints = append([]int64(nil), src.Ints...)
			}
			if src.Floats != nil {
				cc.Floats = append([]float64(nil), src.Floats...)
			}
			if src.Strs != nil {
				cc.Strs = append([]string(nil), src.Strs...)
			}
			if src.Boxed != nil {
				cc.Boxed = append([]value.Value(nil), src.Boxed...)
			}
			if src.Nulls != nil {
				cc.Nulls = append([]uint64(nil), src.Nulls...)
			}
			cols[i] = cc
		}
		n := c.nrows
		c.mu.Unlock()
		return FromColumns(r.Name, r.Schema.Clone(), cols, n)
	}
	out := New(r.Name, r.Schema)
	out.Rows = make([]Tuple, len(r.Rows))
	for i, t := range r.Rows {
		out.Rows[i] = t.Clone()
	}
	return out
}

// ColumnIndexes resolves names to positions, erroring on the first miss.
func (r *Relation) ColumnIndexes(names []string) ([]int, error) {
	// The result is non-nil even for zero names: GroupRowsOn distinguishes
	// an empty column set (one group) from nil (whole-tuple keys).
	ix := r.nameIndex()
	idx := make([]int, len(names))
	for i, n := range names {
		j := ix.IndexOf(n)
		if j < 0 {
			return nil, fmt.Errorf("relation %s: no column %q", r.Name, n)
		}
		idx[i] = j
	}
	return idx, nil
}

// Select returns the rows for which pred returns true. Errors from pred
// abort the scan.
func (r *Relation) Select(pred func(Tuple) (bool, error)) (*Relation, error) {
	out := New(r.Name, r.Schema)
	for _, t := range r.TupleRows() {
		ok, err := pred(t)
		if err != nil {
			return nil, err
		}
		if ok {
			out.Rows = append(out.Rows, t.Clone())
		}
	}
	return out, nil
}

// Project keeps exactly the named columns, in the given order, without
// duplicate elimination (multiset semantics). A column-built relation
// projects its columns — shared, not copied, and still deferred when its
// gather is — so projection boxes nothing; a row-built one projects its
// tuples.
func (r *Relation) Project(names []string) (*Relation, error) {
	idx, err := r.ColumnIndexes(names)
	if err != nil {
		return nil, err
	}
	schema := make(Schema, len(idx))
	for i, j := range idx {
		schema[i] = r.Schema[j]
	}
	if c := r.col; c != nil && c.colBuilt {
		c.mu.Lock()
		defer c.mu.Unlock()
		src := c.cols
		if c.gather != nil {
			src = c.gather.cols
		}
		cols := make([]*Col, len(idx))
		for i, j := range idx {
			cols[i] = src[j]
		}
		if c.gather != nil {
			return FromColumnsLazy(r.Name, schema, cols, c.gather.idx), nil
		}
		return FromColumns(r.Name, schema, cols, c.nrows), nil
	}
	out := New(r.Name, schema)
	// One flat backing array for the projected rows instead of one
	// allocation per row; large projections dominate evaluation output.
	rows := r.TupleRows()
	w := len(idx)
	flat := make([]value.Value, len(rows)*w)
	out.Rows = make([]Tuple, len(rows))
	for ri, t := range rows {
		row := flat[ri*w : (ri+1)*w : (ri+1)*w]
		for i, j := range idx {
			row[i] = t[j]
		}
		out.Rows[ri] = row
	}
	return out, nil
}

// Pick returns the relation of r's rows at positions pos, in order: a typed
// gather of the columns when r has them, the shared tuples otherwise.
func (r *Relation) Pick(pos []int32) *Relation {
	if cols := r.CachedColumns(); cols != nil {
		return FromColumns(r.Name, r.Schema, GatherCols(cols, pos), len(pos))
	}
	rows := r.TupleRows()
	out := New(r.Name, r.Schema)
	out.Rows = make([]Tuple, len(pos))
	for i, p := range pos {
		out.Rows[i] = rows[p]
	}
	return out
}

// productSchema is the concatenated schema of r × s. Columns whose names
// collide are disambiguated with the relation-name prefix of the right
// operand, joined with an underscore so result names stay plain identifiers.
func productSchema(r, s *Relation) Schema {
	schema := r.Schema.Clone()
	for _, c := range s.Schema {
		name := c.Name
		if schema.Has(name) {
			name = s.Name + "_" + name
			if schema.Has(name) {
				for k := 2; ; k++ {
					cand := fmt.Sprintf("%s_%d", name, k)
					if !schema.Has(cand) {
						name = cand
						break
					}
				}
			}
		}
		schema = append(schema, Column{Name: name, Kind: c.Kind})
	}
	return schema
}

// Union returns the multiset union r ⊎ s. Schemas must be equal.
func (r *Relation) Union(s *Relation) (*Relation, error) {
	if !r.Schema.Equal(s.Schema) {
		return nil, fmt.Errorf("union: incompatible schemas [%s] vs [%s]", r.Schema, s.Schema)
	}
	srows := s.TupleRows()
	out := New(r.Name, r.Schema)
	rrows := r.TupleRows()
	out.Rows = make([]Tuple, 0, len(rrows)+len(srows))
	for _, t := range rrows {
		out.Rows = append(out.Rows, t.Clone())
	}
	for _, t := range srows {
		out.Rows = append(out.Rows, t.Clone())
	}
	return out, nil
}

// Difference returns the multiset difference r − s: each tuple's
// multiplicity is max(0, count_r − count_s). Schemas must be equal.
func (r *Relation) Difference(s *Relation) (*Relation, error) {
	if !r.Schema.Equal(s.Schema) {
		return nil, fmt.Errorf("difference: incompatible schemas [%s] vs [%s]", r.Schema, s.Schema)
	}
	srows := s.TupleRows()
	g := NewGrouper(nil, len(srows))
	counts := make([]int, 0, len(srows))
	for _, t := range srows {
		gid, fresh := g.Add(t)
		if fresh {
			counts = append(counts, 0)
		}
		counts[gid]++
	}
	out := New(r.Name, r.Schema)
	for _, t := range r.TupleRows() {
		if gid := g.Find(t); gid >= 0 && counts[gid] > 0 {
			counts[gid]--
			continue
		}
		out.Rows = append(out.Rows, t.Clone())
	}
	return out, nil
}

// Distinct removes duplicate tuples, keeping first occurrences in order.
func (r *Relation) Distinct() *Relation {
	return r.distinctKept(GroupRowsOn(r.TupleRows(), nil))
}

// DistinctOn removes rows that duplicate an earlier row on the given
// columns, keeping first occurrences.
func (r *Relation) DistinctOn(cols []int) *Relation {
	return r.distinctKept(GroupRowsOn(r.TupleRows(), cols))
}

// distinctKept materialises each group's first-occurrence row, in order,
// into one flat backing array.
func (r *Relation) distinctKept(gr *Grouping) *Relation {
	out := New(r.Name, r.Schema)
	n, w := gr.NumGroups(), len(r.Schema)
	if n == 0 {
		return out
	}
	rows := r.TupleRows()
	flat := make([]value.Value, n*w)
	out.Rows = make([]Tuple, n)
	for g, ri := range gr.First {
		row := flat[g*w : (g+1)*w : (g+1)*w]
		copy(row, rows[ri])
		out.Rows[g] = row
	}
	return out
}

// String renders the relation as an aligned text table (for debugging and
// golden tests).
func (r *Relation) String() string {
	widths := make([]int, len(r.Schema))
	for i, c := range r.Schema {
		widths[i] = len(c.Name)
	}
	rows := r.TupleRows()
	cells := make([][]string, len(rows))
	for ri, t := range rows {
		cells[ri] = make([]string, len(t))
		for ci, v := range t {
			s := v.String()
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, c := range r.Schema {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c.Name)
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, s := range row {
			if i > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], s)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
