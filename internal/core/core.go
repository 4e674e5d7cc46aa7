// Package core implements the spreadsheet algebra of Liu & Jagadish
// (ICDE 2009): a query algebra over recursively grouped, ordered multi-sets
// of tuples, designed for direct-manipulation query interfaces.
//
// A Spreadsheet corresponds to the paper's quadruple S = (R, C, G, O):
//
//   - R, the base relation (internal/relation), frozen except at binary
//     operators, which create a new base (a "point of non-commutativity");
//   - C, the visible columns: the base columns minus those projected out,
//     plus computed columns created by aggregation (η) and formula
//     computation (θ);
//   - G, the recursive grouping specification (τ);
//   - O, the per-level ordering specification (λ).
//
// Unlike a conventional algebra, operators do not eagerly transform rows.
// Each unary operator edits the spreadsheet's query state — the unordered
// collection of selection predicates, computed-column definitions, hidden
// columns, the duplicate-elimination marker, and the grouping/ordering
// lists (the paper's Sec. V "query state"). Evaluate replays the state
// deterministically, which is what makes the paper's Theorem 2
// (commutativity of the unary data-manipulation operators, subject to
// precedence) and Theorem 3 (query modification ≡ history rewriting) hold
// by construction.
package core

import (
	"fmt"
	"strings"

	"sheetmusiq/internal/expr"
	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

// Dir is a sort direction.
type Dir bool

// Sort directions.
const (
	Asc  Dir = false
	Desc Dir = true
)

// String renders the direction as SQL.
func (d Dir) String() string {
	if d == Desc {
		return "DESC"
	}
	return "ASC"
}

// ParseDir reads "ASC"/"DESC" case-insensitively.
func ParseDir(s string) (Dir, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "ASC", "":
		return Asc, nil
	case "DESC":
		return Desc, nil
	}
	return Asc, fmt.Errorf("core: bad direction %q (want ASC or DESC)", s)
}

// GroupLevel is one level of the recursive grouping below the root. Rel
// holds the relative grouping basis (the attributes added at this level);
// the paper's cumulative basis g_i is the union of Rel over levels ≤ i.
// Dir orders sibling groups at this level.
type GroupLevel struct {
	Rel []string
	Dir Dir
	// By optionally orders this level's groups by a column that is
	// constant within each group (an aggregate at this level, or a basis
	// attribute) instead of by the relative basis — the OrderGroupsBy
	// extension. Empty means the paper's default basis ordering.
	By string
}

// SortKey orders one attribute at the finest grouping level.
type SortKey struct {
	Column string
	Dir    Dir
}

// ComputedKind distinguishes aggregation columns from formula columns.
type ComputedKind uint8

// Computed column kinds.
const (
	// KindAggregate marks a column created by η (Def. 11).
	KindAggregate ComputedKind = iota
	// KindFormula marks a column created by θ (Def. 12).
	KindFormula
	// KindWindow marks a column created by the window operator ω — an
	// ordered, optionally partitioned computation (rank, running aggregate)
	// over the rows surviving the shallower stages.
	KindWindow
)

// ComputedColumn is the definition of one computed column. The paper's
// essential property — "once a user has defined such a column, the user
// expects it to reflect the value correctly even as the database or
// spreadsheet is updated" — is realised by re-deriving every computed
// column from its definition on each Evaluate.
type ComputedColumn struct {
	Name string
	Kind ComputedKind

	// Aggregate definition (KindAggregate).
	Agg   relation.AggFunc
	Input string // column aggregated over
	Level int    // 1-based grouping level; 1 aggregates the whole sheet

	// Formula definition (KindFormula), or the window call (KindWindow):
	// an *expr.WindowCall whose argument and keys are plain column
	// references. Both are expression trees, so they print, check, clone,
	// fingerprint and rename through internal/expr alike.
	Formula expr.Expr

	// ResultKind caches the inferred kind of the column.
	ResultKind value.Kind
}

// dependsOn reports whether the definition references the named column.
func (c *ComputedColumn) dependsOn(col string) bool {
	if c.Kind == KindAggregate {
		return strings.EqualFold(c.Input, col)
	}
	return expr.References(c.Formula, col)
}

// Selection is one σ instance retained in the query state. The ID is stable
// for the life of the spreadsheet so the interface can name predicates when
// offering modification (Sec. V-B).
type Selection struct {
	ID   int
	Pred expr.Expr
}

// Columns returns the columns the predicate references.
func (s Selection) Columns() []string { return expr.Columns(s.Pred) }

// queryState is the unordered operator collection of Sec. V-A.
type queryState struct {
	selections []Selection
	computed   []*ComputedColumn
	hidden     []string // projected-out base columns, π (Def. 6)
	distinctOn []string // nil: no DE; else the recorded dedup column set
	grouping   []GroupLevel
	finest     []SortKey
	nextSelID  int
}

// cloneExpr deep-copies an expression tree. Rename rewrites ColumnRef nodes
// in place, so shared trees between the live state and undo snapshots would
// corrupt history; round-tripping through the SQL rendering is a simple,
// always-correct deep copy.
func cloneExpr(e expr.Expr) expr.Expr {
	c, err := expr.Parse(e.SQL())
	if err != nil {
		panic(fmt.Sprintf("core: expression %q did not round-trip: %v", e.SQL(), err))
	}
	return c
}

func (q *queryState) clone() *queryState {
	out := &queryState{nextSelID: q.nextSelID}
	for _, sel := range q.selections {
		out.selections = append(out.selections, Selection{ID: sel.ID, Pred: cloneExpr(sel.Pred)})
	}
	for _, c := range q.computed {
		cc := *c
		if cc.Formula != nil {
			cc.Formula = cloneExpr(cc.Formula)
		}
		out.computed = append(out.computed, &cc)
	}
	out.hidden = append([]string(nil), q.hidden...)
	out.distinctOn = append([]string(nil), q.distinctOn...)
	for _, g := range q.grouping {
		out.grouping = append(out.grouping, GroupLevel{
			Rel: append([]string(nil), g.Rel...), Dir: g.Dir, By: g.By})
	}
	out.finest = append([]SortKey(nil), q.finest...)
	return out
}

// Spreadsheet is the unit of manipulation of the algebra.
type Spreadsheet struct {
	name    string
	base    *relation.Relation // treated as immutable between binary ops
	state   *queryState
	version int // the paper's superscript j, bumped by every operator

	log  []string // human-readable operation history
	undo []snapshot
	redo []snapshot

	// cache memoises the last Evaluate — result or error — for the current
	// version; direct manipulation re-renders constantly, and an unchanged
	// state need not recompute (nor re-fail). Invalidation is by version
	// comparison.
	cacheVersion int
	cacheResult  *Result
	cacheErr     error

	// Incremental-evaluation state (plan.go / snapcache.go): the
	// fingerprint-keyed stage-snapshot cache, the base-identity generation
	// that fences snapshots to one base relation (baseSeen is the pointer
	// the generation was issued for), and the stage plan of the most
	// recent evaluation for the explain surface.
	snapCache *snapCache
	baseSeen  *relation.Relation
	baseGen   uint64
	lastPlan  *EvalPlan
	// orderMemo is the base-order key of the last λ recompute under base
	// column keys that sorted its survivors; the next such recompute under
	// the same key builds that order (stage.go, baseOrder). Clone starts
	// without it.
	orderMemo uint64
}

type snapshot struct {
	base  *relation.Relation
	state *queryState
	entry string
}

// New creates the base spreadsheet S⁰ for a relation (Def. 2): the columns
// of R, with empty grouping and ordering.
func New(base *relation.Relation) *Spreadsheet {
	return &Spreadsheet{
		name:  base.Name,
		base:  base,
		state: &queryState{},
	}
}

// Name returns the spreadsheet's name (initially its base relation's name).
func (s *Spreadsheet) Name() string { return s.name }

// SetName renames the spreadsheet (used by Save).
func (s *Spreadsheet) SetName(n string) { s.name = n }

// Version returns the paper's version superscript: how many operators have
// been applied since the base spreadsheet.
func (s *Spreadsheet) Version() int { return s.version }

// Base returns the current base relation (read-only by convention).
func (s *Spreadsheet) Base() *relation.Relation { return s.base }

// History returns the human-readable operation log.
func (s *Spreadsheet) History() []string { return append([]string(nil), s.log...) }

// begin snapshots the state before a mutating operator so Undo can restore
// it; commit finalises the operator.
func (s *Spreadsheet) begin() snapshot {
	return snapshot{base: s.base, state: s.state.clone()}
}

func (s *Spreadsheet) commit(before snapshot, entry string) {
	before.entry = entry
	s.undo = append(s.undo, before)
	s.redo = nil
	s.log = append(s.log, entry)
	s.version++
}

// Undo reverts the most recent operator. It returns the undone history
// entry, or an error when there is nothing to undo.
func (s *Spreadsheet) Undo() (string, error) {
	if len(s.undo) == 0 {
		return "", fmt.Errorf("core: nothing to undo")
	}
	top := s.undo[len(s.undo)-1]
	s.undo = s.undo[:len(s.undo)-1]
	s.redo = append(s.redo, snapshot{base: s.base, state: s.state, entry: top.entry})
	s.base = top.base
	s.state = top.state
	if len(s.log) > 0 {
		s.log = s.log[:len(s.log)-1]
	}
	s.version++
	return top.entry, nil
}

// Redo re-applies the most recently undone operator.
func (s *Spreadsheet) Redo() (string, error) {
	if len(s.redo) == 0 {
		return "", fmt.Errorf("core: nothing to redo")
	}
	top := s.redo[len(s.redo)-1]
	s.redo = s.redo[:len(s.redo)-1]
	s.undo = append(s.undo, snapshot{base: s.base, state: s.state, entry: top.entry})
	s.base = top.base
	s.state = top.state
	s.log = append(s.log, top.entry)
	s.version++
	return top.entry, nil
}

// UndoDepth returns how many operators can currently be undone.
func (s *Spreadsheet) UndoDepth() int { return len(s.undo) }

// RedoDepth returns how many undone operators can currently be re-applied.
func (s *Spreadsheet) RedoDepth() int { return len(s.redo) }

// SetVersion overrides the operator counter. RestoreState derives the
// version from the persisted history log, but undo/redo advance the counter
// past len(log); recovery paths that know the true counter (the WAL
// checkpoint records it) use this to restore it exactly.
func (s *Spreadsheet) SetVersion(v int) { s.version = v }

// Clone deep-copies the spreadsheet (sharing the immutable base relation).
func (s *Spreadsheet) Clone() *Spreadsheet {
	return &Spreadsheet{
		name:    s.name,
		base:    s.base,
		state:   s.state.clone(),
		version: s.version,
		log:     append([]string(nil), s.log...),
	}
}

// isHidden reports whether the base column is projected out.
func (q *queryState) isHidden(col string) bool {
	for _, h := range q.hidden {
		if strings.EqualFold(h, col) {
			return true
		}
	}
	return false
}

// findComputed returns the computed column definition by name, or nil.
func (q *queryState) findComputed(name string) *ComputedColumn {
	for _, c := range q.computed {
		if strings.EqualFold(c.Name, name) {
			return c
		}
	}
	return nil
}

// cumulativeBasis returns the paper's g_{level} (1-based; level 1 is the
// root, whose basis is empty — the paper's {NULL}).
func (q *queryState) cumulativeBasis(level int) []string {
	var out []string
	for i := 0; i < level-1 && i < len(q.grouping); i++ {
		out = append(out, q.grouping[i].Rel...)
	}
	return out
}

// levelCount returns |G|: the number of grouping levels including the root.
func (q *queryState) levelCount() int { return len(q.grouping) + 1 }

// inAnyBasis reports whether col appears in any grouping basis.
func (q *queryState) inAnyBasis(col string) bool {
	for _, g := range q.grouping {
		for _, a := range g.Rel {
			if strings.EqualFold(a, col) {
				return true
			}
		}
	}
	return false
}

// VisibleSchema returns the schema the user sees: base columns that are not
// hidden, in base order, followed by computed columns in creation order.
func (s *Spreadsheet) VisibleSchema() relation.Schema {
	var out relation.Schema
	for _, c := range s.base.Schema {
		if !s.state.isHidden(c.Name) {
			out = append(out, c)
		}
	}
	for _, c := range s.state.computed {
		out = append(out, relation.Column{Name: c.Name, Kind: c.ResultKind})
	}
	return out
}

// columnKind resolves the kind of any referencable column: base columns
// (hidden ones included — predicates attached to a column survive its
// projection, Sec. V-A) and computed columns.
func (s *Spreadsheet) columnKind(name string) (value.Kind, bool) {
	if i := s.base.Schema.IndexOf(name); i >= 0 {
		return s.base.Schema[i].Kind, true
	}
	if c := s.state.findComputed(name); c != nil {
		return c.ResultKind, true
	}
	return value.KindNull, false
}

// hasColumn reports whether name resolves to a base or computed column.
func (s *Spreadsheet) hasColumn(name string) bool {
	_, ok := s.columnKind(name)
	return ok
}

// visible reports whether the column is currently displayed.
func (s *Spreadsheet) visible(name string) bool {
	if s.state.findComputed(name) != nil {
		return true
	}
	return s.base.Schema.Has(name) && !s.state.isHidden(name)
}

// aggDepth computes the paper-motivated evaluation depth of a column: base
// columns are depth 0, a formula column has the max depth of its inputs,
// and an aggregate or window column is one deeper than its (deepest) input.
// Selections evaluate at the max depth of their referenced columns; see
// Evaluate.
func (s *Spreadsheet) aggDepth(col string, seen map[string]bool) (int, error) {
	if s.base.Schema.Has(col) {
		return 0, nil
	}
	c := s.state.findComputed(col)
	if c == nil {
		return 0, fmt.Errorf("core: unknown column %q", col)
	}
	key := strings.ToLower(col)
	if seen[key] {
		return 0, fmt.Errorf("core: computed column cycle through %q", col)
	}
	if seen == nil {
		seen = map[string]bool{}
	}
	seen[key] = true
	defer delete(seen, key)
	if c.Kind == KindAggregate {
		d, err := s.aggDepth(c.Input, seen)
		if err != nil {
			return 0, err
		}
		return d + 1, nil
	}
	max := 0
	for _, ref := range expr.Columns(c.Formula) {
		d, err := s.aggDepth(ref, seen)
		if err != nil {
			return 0, err
		}
		if d > max {
			max = d
		}
	}
	if c.Kind == KindWindow {
		// A window column is one deeper than its deepest reference: it is
		// computed over the rows surviving the shallower stages, like an
		// aggregate, and formulas over it evaluate later.
		max++
	}
	return max, nil
}

// ColumnDepth is the evaluation stratum of a base or computed column
// (aggDepth); SQL generation stages its subqueries by it.
func (s *Spreadsheet) ColumnDepth(col string) (int, error) { return s.aggDepth(col, nil) }

// ExprDepth is the stratum an expression evaluates at: the deepest column
// it references. A selection runs at its predicate's depth.
func (s *Spreadsheet) ExprDepth(e expr.Expr) (int, error) {
	max := 0
	for _, col := range expr.Columns(e) {
		d, err := s.aggDepth(col, map[string]bool{})
		if err != nil {
			return 0, err
		}
		if d > max {
			max = d
		}
	}
	return max, nil
}

// Grouping returns a copy of the grouping levels below the root.
func (s *Spreadsheet) Grouping() []GroupLevel {
	out := make([]GroupLevel, len(s.state.grouping))
	for i, g := range s.state.grouping {
		out[i] = GroupLevel{Rel: append([]string(nil), g.Rel...), Dir: g.Dir, By: g.By}
	}
	return out
}

// FinestOrder returns a copy of the finest-level ordering keys.
func (s *Spreadsheet) FinestOrder() []SortKey {
	return append([]SortKey(nil), s.state.finest...)
}

// Selections returns the live σ instances, optionally filtered to those
// referencing the given column (empty column returns all). This is the
// Sec. V-B hook: "the user is given a list of selection predicates
// currently applied to that column".
func (s *Spreadsheet) Selections(column string) []Selection {
	var out []Selection
	for _, sel := range s.state.selections {
		if column == "" || expr.References(sel.Pred, column) {
			out = append(out, sel)
		}
	}
	return out
}

// ComputedColumns returns copies of the computed-column definitions.
func (s *Spreadsheet) ComputedColumns() []ComputedColumn {
	out := make([]ComputedColumn, len(s.state.computed))
	for i, c := range s.state.computed {
		out[i] = *c
	}
	return out
}

// HiddenColumns returns the projected-out base columns.
func (s *Spreadsheet) HiddenColumns() []string {
	return append([]string(nil), s.state.hidden...)
}

// DistinctColumns returns the recorded DE column set (nil when DE is not
// active).
func (s *Spreadsheet) DistinctColumns() []string {
	return append([]string(nil), s.state.distinctOn...)
}
