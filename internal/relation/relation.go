// Package relation implements the in-memory relational substrate beneath the
// spreadsheet algebra: schemas, tuples, and multiset relations, together with
// textbook relational-algebra primitives (selection, projection, product,
// multiset union/difference, join, sorting, grouping with aggregation).
//
// A relation is stored only as typed column vectors (column.go), and every
// operator runs over them through one grouping kernel (GroupCols) and one
// sort kernel (SortPermCols). Tuples are the edge format: they are boxed on
// demand for rendering, export and tests, and never stored.
//
// The spreadsheet algebra of internal/core is defined over relations from
// this package; the SQL engine of internal/sql executes against them; and the
// relational operators here double as the independent baseline that property
// tests compare the higher layers against.
package relation

import (
	"fmt"
	"strings"
	"sync"

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

// Relation is a named multiset of tuples over a schema, stored as one typed
// column vector per attribute (column.go). Tuples are only an edge format:
// TupleRange and TupleRows box rows on demand for rendering, export and
// tests, and nothing stores them.
//
// A relation is built by appending rows (New, Append) or from columns
// (FromColumns, FromColumnsLazy). It may be read by many goroutines at
// once; Append and Sort mutate it and must not race with any other use.
type Relation struct {
	Name   string
	Schema Schema

	n      int        // row count
	mu     sync.Mutex // guards the lazily built state below against concurrent first reads
	cols   []*Col     // nil while the gather is deferred
	gather *gatherSrc // deferred column assembly (FromColumnsLazy)
	ix     *NameIndex // built on first name lookup
	// shared marks columns another relation may read (handed out by
	// Columns, Project or WithSchema, or received by FromColumns): the next
	// Append copies them before writing.
	shared bool
}

// gatherSrc is the deferred gather of a lazily assembled relation, kept as
// data: column j is cols[j] read through the index vector idx. It is
// dropped once the columns are built.
type gatherSrc struct {
	cols []*Col
	idx  []int32
}

// New creates an empty relation with the given name and schema.
func New(name string, schema Schema) *Relation {
	schema = schema.Clone()
	cols := make([]*Col, len(schema))
	for i, c := range schema {
		cols[i] = &Col{Kind: c.Kind}
	}
	return &Relation{Name: name, Schema: schema, cols: cols}
}

// FromColumns constructs a relation directly from typed column vectors.
// cols must align with schema and every column must cover n cells. The
// columns are shared, not copied; a later Append copies them first.
func FromColumns(name string, schema Schema, cols []*Col, n int) *Relation {
	return &Relation{Name: name, Schema: schema, n: n, cols: cols, shared: true}
}

// FromColumnsLazy constructs a relation whose column j is src[j] read
// through the index vector idx, one row per entry. Nothing is copied up
// front: the columns gather at most once, the first time a consumer asks
// for Columns, and row reads (TupleRows, TupleRange) box straight from src
// through idx. The evaluation pipeline uses it for final assembly (late
// materialisation): a replay whose result is only paged pays for the page,
// not an n×w gather. src and idx must stay unmodified.
func FromColumnsLazy(name string, schema Schema, src []*Col, idx []int32) *Relation {
	return &Relation{Name: name, Schema: schema, n: len(idx), gather: &gatherSrc{cols: src, idx: idx}}
}

// Append adds a row after checking arity and kinds: NULL fits any column,
// an INT widens into a FLOAT column, and any other mismatch is an error
// that leaves the relation unchanged. The row's cells are copied into the
// column builders; t itself is neither kept nor modified.
func (r *Relation) Append(t Tuple) error {
	if len(t) != len(r.Schema) {
		return fmt.Errorf("relation %s: row arity %d != schema arity %d", r.Name, len(t), len(r.Schema))
	}
	for i, v := range t {
		k := r.Schema[i].Kind
		if v.IsNull() || v.Kind() == k || (k == value.KindFloat && v.Kind() == value.KindInt) {
			continue
		}
		return fmt.Errorf("relation %s: column %s expects %s, got %s",
			r.Name, r.Schema[i].Name, k, v.Kind())
	}
	r.own()
	for i := range t {
		r.cols[i].appendCell(r.n, r.Schema[i].Kind, &t[i])
	}
	r.n++
	return nil
}

// own makes the columns private to r before Append writes into them: a
// deferred gather runs into fresh columns, and columns another relation may
// read are copied, so Append never writes storage anyone else can see.
func (r *Relation) own() {
	switch {
	case r.gather != nil:
		r.cols = r.gather.run()
		r.gather = nil
	case r.shared:
		cols := make([]*Col, len(r.cols)) // the handed-out slice is shared too
		for i, c := range r.cols {
			cols[i] = c.clone()
		}
		r.cols = cols
	}
	r.shared = false
}

// MustAppend appends and panics on schema mismatch; for fixtures and
// generators.
func (r *Relation) MustAppend(vals ...value.Value) {
	if err := r.Append(Tuple(vals)); err != nil {
		panic(err)
	}
}

// Len returns the number of rows.
func (r *Relation) Len() int { return r.n }

// Clone deep-copies the relation's columns (running a deferred gather
// first).
func (r *Relation) Clone() *Relation {
	src := r.Columns()
	cols := make([]*Col, len(src))
	for i, c := range src {
		cols[i] = c.clone()
	}
	return &Relation{Name: r.Name, Schema: r.Schema.Clone(), n: r.n, cols: cols}
}

// ColumnIndexes resolves names to positions, erroring on the first miss.
func (r *Relation) ColumnIndexes(names []string) ([]int, error) {
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
	var keep []int32
	for i, t := range r.TupleRows() {
		ok, err := pred(t)
		if err != nil {
			return nil, err
		}
		if ok {
			keep = append(keep, int32(i))
		}
	}
	return r.Pick(keep), nil
}

// Project keeps exactly the named columns, in the given order, without
// duplicate elimination (multiset semantics). The columns are shared, not
// copied, and stay deferred when r's gather is.
func (r *Relation) Project(names []string) (*Relation, error) {
	idx, err := r.ColumnIndexes(names)
	if err != nil {
		return nil, err
	}
	schema := make(Schema, len(idx))
	for i, j := range idx {
		schema[i] = r.Schema[j]
	}
	return r.share(idx, schema), nil
}

// WithSchema returns r's rows under another schema of the same arity and
// kinds — a rename — sharing r's columns, or its deferred gather.
func (r *Relation) WithSchema(schema Schema) *Relation {
	pos := make([]int, len(schema))
	for i := range pos {
		pos[i] = i
	}
	return r.share(pos, schema)
}

// share returns the relation of r's columns at positions pos under schema,
// sharing the columns, or composing with r's deferred gather.
func (r *Relation) share(pos []int, schema Schema) *Relation {
	r.mu.Lock()
	defer r.mu.Unlock()
	src := r.cols
	if r.gather != nil {
		src = r.gather.cols
	} else {
		r.shared = true
	}
	cols := make([]*Col, len(pos))
	for i, j := range pos {
		cols[i] = src[j]
	}
	if r.gather != nil {
		return FromColumnsLazy(r.Name, schema, cols, r.gather.idx)
	}
	return FromColumns(r.Name, schema, cols, r.n)
}

// Pick returns the relation of r's rows at positions pos, in order, as a
// typed gather of the columns. A deferred gather composes with pos and
// stays deferred.
func (r *Relation) Pick(pos []int32) *Relation {
	schema := r.Schema.Clone()
	r.mu.Lock()
	g := r.gather
	r.mu.Unlock()
	if g != nil {
		idx := make([]int32, len(pos))
		for i, p := range pos {
			idx[i] = g.idx[p]
		}
		return FromColumnsLazy(r.Name, schema, g.cols, idx)
	}
	return &Relation{Name: r.Name, Schema: schema, n: len(pos), cols: GatherCols(r.Columns(), pos)}
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

// Union returns the multiset union r ⊎ s: r's rows, then s's. Schemas must
// be equal.
func (r *Relation) Union(s *Relation) (*Relation, error) {
	if !r.Schema.Equal(s.Schema) {
		return nil, fmt.Errorf("union: incompatible schemas [%s] vs [%s]", r.Schema, s.Schema)
	}
	rc, sc := r.Columns(), s.Columns()
	cols := make([]*Col, len(rc))
	for j := range cols {
		cols[j] = concatCols(rc[j], r.n, sc[j], s.n, r.Schema[j].Kind)
	}
	return &Relation{Name: r.Name, Schema: r.Schema.Clone(), n: r.n + s.n, cols: cols}, nil
}

// Difference returns the multiset difference r − s: each tuple's
// multiplicity is max(0, count_r − count_s) — r's rows in order, less the
// first count_s occurrences of each tuple. Schemas must be equal. Tuples
// group as GroupCols groups them, so NULL equals NULL (multiset identity).
func (r *Relation) Difference(s *Relation) (*Relation, error) {
	if !r.Schema.Equal(s.Schema) {
		return nil, fmt.Errorf("difference: incompatible schemas [%s] vs [%s]", r.Schema, s.Schema)
	}
	u, _ := r.Union(s)
	gr := GroupCols(u.cols, nil, u.n)
	counts := make([]int, gr.NumGroups())
	for _, g := range gr.IDs[r.n:] {
		counts[g]++
	}
	keep := make([]int32, 0, r.n)
	for i, g := range gr.IDs[:r.n] {
		if counts[g] > 0 {
			counts[g]--
			continue
		}
		keep = append(keep, int32(i))
	}
	return r.Pick(keep), nil
}

// Distinct removes duplicate tuples, keeping first occurrences in order.
func (r *Relation) Distinct() *Relation {
	return r.Pick(GroupCols(r.Columns(), nil, r.n).First)
}

// DistinctOn removes rows that duplicate an earlier row on the given
// columns, keeping first occurrences.
func (r *Relation) DistinctOn(cols []int) *Relation {
	all := r.Columns()
	keys := make([]*Col, len(cols))
	for i, j := range cols {
		keys[i] = all[j]
	}
	return r.Pick(GroupCols(keys, nil, r.n).First)
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
