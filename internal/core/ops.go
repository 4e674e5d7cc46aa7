package core

import (
	"fmt"
	"strings"

	"sheetmusiq/internal/expr"
	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

// Select applies σ_F (Def. 5): the predicate joins the query state and rows
// failing it disappear from every subsequent Evaluate. The predicate text
// uses the expression language of internal/expr and may reference computed
// columns (enabling HAVING-style group selection per Theorem 1, step 5).
func (s *Spreadsheet) Select(predicate string) (int, error) {
	e, err := expr.Parse(predicate)
	if err != nil {
		return 0, err
	}
	return s.SelectExpr(e)
}

// SelectExpr is Select over a pre-parsed predicate. It returns the stable
// selection ID used by the query-modification API.
func (s *Spreadsheet) SelectExpr(e expr.Expr) (int, error) {
	kind, err := expr.Check(e, s.columnKind)
	if err != nil {
		return 0, err
	}
	if kind != value.KindBool && kind != value.KindNull {
		return 0, fmt.Errorf("core: selection predicate must be boolean, got %s", kind)
	}
	if expr.ContainsAggregate(e) {
		return 0, fmt.Errorf("core: aggregates are created with Aggregate, not inline in predicates")
	}
	if expr.ContainsWindow(e) {
		return 0, fmt.Errorf("core: window functions are created with Window, not inline in predicates")
	}
	if _, err := s.ExprDepth(e); err != nil {
		return 0, err
	}
	before := s.begin()
	s.state.nextSelID++
	id := s.state.nextSelID
	s.state.selections = append(s.state.selections, Selection{ID: id, Pred: e})
	s.commit(before, "σ "+e.SQL())
	return id, nil
}

// GroupBy applies τ (Def. 3): it appends a new, finest grouping level whose
// relative basis is attrs, ordering the new sibling groups by dir. Finest-
// level sort keys naming attrs are subtracted (the paper's list
// subtraction o_L = L − grouping-basis).
func (s *Spreadsheet) GroupBy(dir Dir, attrs ...string) error {
	if len(attrs) == 0 {
		return fmt.Errorf("core: grouping needs at least one attribute")
	}
	seen := map[string]bool{}
	for _, a := range attrs {
		if !s.hasColumn(a) {
			return fmt.Errorf("core: unknown column %q", a)
		}
		d, err := s.aggDepth(a, map[string]bool{})
		if err != nil {
			return err
		}
		if d > 0 {
			return fmt.Errorf("core: cannot group by aggregate-derived column %q", a)
		}
		if s.state.inAnyBasis(a) {
			return fmt.Errorf("core: column %q is already in a grouping basis", a)
		}
		k := strings.ToLower(a)
		if seen[k] {
			return fmt.Errorf("core: duplicate grouping attribute %q", a)
		}
		seen[k] = true
	}
	before := s.begin()
	s.state.grouping = append(s.state.grouping, GroupLevel{
		Rel: append([]string(nil), attrs...), Dir: dir})
	// o_L = L − grouping-basis: drop finest sort keys that became grouped.
	var kept []SortKey
	for _, k := range s.state.finest {
		if !seen[strings.ToLower(k.Column)] {
			kept = append(kept, k)
		}
	}
	s.state.finest = kept
	s.commit(before, fmt.Sprintf("τ {%s} %s", strings.Join(attrs, ","), dir))
	return nil
}

// OrderBy applies λ (Def. 4) at a 1-based grouping level. Level n (the
// finest, = len(Grouping())+1) orders tuples inside the finest groups by
// attr; ordering on an attribute that is in some grouping basis is the
// paper's case-3 no-op. An intermediate level l whose child relative basis
// contains attr merely flips that level's direction (case 2). Any other
// intermediate-level ordering destroys the grouping below l (case 1), which
// is refused while aggregates depend on the destroyed levels (the paper's
// implementation rule in Sec. III-A).
func (s *Spreadsheet) OrderBy(attr string, dir Dir, level int) error {
	n := s.state.levelCount()
	if level < 1 || level > n {
		return fmt.Errorf("core: level %d out of range 1..%d", level, n)
	}
	if !s.hasColumn(attr) {
		return fmt.Errorf("core: unknown column %q", attr)
	}
	if level == n {
		if s.state.inAnyBasis(attr) {
			// Case 3 with attribute ∈ g_i: ordering unchanged.
			before := s.begin()
			s.commit(before, fmt.Sprintf("λ %s %s level %d (no-op: grouped)", attr, dir, level))
			return nil
		}
		before := s.begin()
		replaced := false
		for i, k := range s.state.finest {
			if strings.EqualFold(k.Column, attr) {
				s.state.finest[i].Dir = dir
				replaced = true
				break
			}
		}
		if !replaced {
			s.state.finest = append(s.state.finest, SortKey{Column: attr, Dir: dir})
		}
		s.commit(before, fmt.Sprintf("λ %s %s level %d", attr, dir, level))
		return nil
	}
	// Intermediate level: the children's relative basis dictates the
	// ordering attributes (g_{l+1} − g_l).
	child := s.state.grouping[level-1] // level l's children are grouping[l-1]
	inChild := false
	for _, a := range child.Rel {
		if strings.EqualFold(a, attr) {
			inChild = true
			break
		}
	}
	if inChild {
		before := s.begin()
		s.state.grouping[level-1].Dir = dir
		s.commit(before, fmt.Sprintf("λ %s %s level %d", attr, dir, level))
		return nil
	}
	// Case 1: destroy grouping below level l.
	for _, c := range s.state.computed {
		if c.Kind == KindAggregate && c.Level > level {
			return fmt.Errorf("core: ordering by %q at level %d would destroy grouping that aggregate %q depends on; remove it first",
				attr, level, c.Name)
		}
	}
	before := s.begin()
	s.state.grouping = s.state.grouping[:level-1]
	s.state.finest = []SortKey{{Column: attr, Dir: dir}}
	s.commit(before, fmt.Sprintf("λ %s %s level %d (grouping below destroyed)", attr, dir, level))
	return nil
}

// Sort is the interface's header-click convenience: order by attr at the
// finest level.
func (s *Spreadsheet) Sort(attr string, dir Dir) error {
	return s.OrderBy(attr, dir, s.state.levelCount())
}

// Hide applies π (Def. 6) to a base column: the column leaves C but stays
// in R, so predicates attached to it remain active (Sec. V-A). Hiding a
// computed column instead removes its definition, which is what the paper
// means by "the aggregates have to be projected out" — use RemoveComputed
// for that, or Hide which delegates.
func (s *Spreadsheet) Hide(column string) error {
	if c := s.state.findComputed(column); c != nil {
		return s.RemoveComputed(column)
	}
	if !s.base.Schema.Has(column) {
		return fmt.Errorf("core: unknown column %q", column)
	}
	if s.state.isHidden(column) {
		return fmt.Errorf("core: column %q is already projected out", column)
	}
	if vis := s.VisibleSchema(); len(vis) == 1 {
		return fmt.Errorf("core: cannot project out the last visible column")
	}
	before := s.begin()
	s.state.hidden = append(s.state.hidden, column)
	s.commit(before, "π "+column)
	return nil
}

// Reinstate is the inverse projection Π̄ (Sec. V-B): history is rewritten
// as if the π never happened.
func (s *Spreadsheet) Reinstate(column string) error {
	for i, h := range s.state.hidden {
		if strings.EqualFold(h, column) {
			before := s.begin()
			s.state.hidden = append(s.state.hidden[:i:i], s.state.hidden[i+1:]...)
			s.commit(before, "Π̄ "+column)
			return nil
		}
	}
	return fmt.Errorf("core: column %q is not projected out", column)
}

// Aggregate applies η(f, c, level) (Def. 11): it creates a computed column
// holding f over column col within each level-l group, repeated on every
// row of the group (Table III). Level 1 aggregates across the whole sheet.
// The returned name is auto-generated (e.g. "Avg_Price") and unique.
func (s *Spreadsheet) Aggregate(fn relation.AggFunc, col string, level int) (string, error) {
	return s.AggregateAs("", fn, col, level)
}

// AggregateAs is Aggregate with an explicit result-column name.
func (s *Spreadsheet) AggregateAs(name string, fn relation.AggFunc, col string, level int) (string, error) {
	inKind, ok := s.columnKind(col)
	if !ok {
		return "", fmt.Errorf("core: unknown column %q", col)
	}
	n := s.state.levelCount()
	if level < 1 || level > n {
		return "", fmt.Errorf("core: grouping level %d out of range 1..%d", level, n)
	}
	switch fn {
	case relation.AggSum, relation.AggAvg, relation.AggStdDev:
		if !inKind.Numeric() {
			return "", fmt.Errorf("core: %s requires a numeric column, %q is %s", fn, col, inKind)
		}
	}
	if name == "" {
		base := titleCase(string(fn)) + "_" + col
		name = base
		for i := 2; s.hasColumn(name); i++ {
			name = fmt.Sprintf("%s_%d", base, i)
		}
	} else if s.hasColumn(name) {
		return "", fmt.Errorf("core: column %q already exists", name)
	}
	if _, err := s.aggDepth(col, map[string]bool{}); err != nil {
		return "", err
	}
	before := s.begin()
	s.state.computed = append(s.state.computed, &ComputedColumn{
		Name: name, Kind: KindAggregate, Agg: fn, Input: col, Level: level,
		ResultKind: fn.ResultKind(inKind),
	})
	s.commit(before, fmt.Sprintf("η %s(%s) level %d → %s", fn, col, level, name))
	return name, nil
}

// Formula applies θ(f) (Def. 12): a row-local computed column defined by an
// arithmetic/string expression over existing columns. Pass an empty name to
// auto-generate one.
func (s *Spreadsheet) Formula(name, formula string) (string, error) {
	e, err := expr.Parse(formula)
	if err != nil {
		return "", err
	}
	return s.FormulaExpr(name, e)
}

// FormulaExpr is Formula over a pre-parsed expression.
func (s *Spreadsheet) FormulaExpr(name string, e expr.Expr) (string, error) {
	if expr.ContainsAggregate(e) {
		return "", fmt.Errorf("core: aggregates are created with Aggregate, not inline in formulas")
	}
	if expr.ContainsWindow(e) {
		return "", fmt.Errorf("core: window functions are created with Window, not inline in formulas")
	}
	kind, err := expr.Check(e, s.columnKind)
	if err != nil {
		return "", err
	}
	if name == "" {
		name = "Formula_1"
		for i := 2; s.hasColumn(name); i++ {
			name = fmt.Sprintf("Formula_%d", i)
		}
	} else if s.hasColumn(name) {
		return "", fmt.Errorf("core: column %q already exists", name)
	}
	before := s.begin()
	s.state.computed = append(s.state.computed, &ComputedColumn{
		Name: name, Kind: KindFormula, Formula: e, ResultKind: kind,
	})
	if _, err := s.aggDepth(name, map[string]bool{}); err != nil {
		// Roll back the speculative append (cycle detection).
		s.state.computed = s.state.computed[:len(s.state.computed)-1]
		return "", err
	}
	s.commit(before, "θ "+name+" = "+e.SQL())
	return name, nil
}

// Window applies ω: it creates a computed column holding fn evaluated over
// each row's window — the rows sharing the row's partitionBy key, ordered by
// orderBy, restricted by the optional ROWS frame. Ranking functions (RANK,
// DENSE_RANK, ROW_NUMBER) take no input column and require an ordering;
// SUM/AVG/MIN/MAX aggregate the input column over the frame; COUNT with an
// empty input counts the frame's rows. Like an aggregate, a window column is
// computed over the rows surviving the selections shallower than it, so a
// later predicate on the column selects by rank ("top 3 per group") without
// disturbing the window itself. The returned name is auto-generated when
// empty.
func (s *Spreadsheet) Window(fn relation.WindowFunc, input string, partitionBy []string, orderBy []SortKey, frame *relation.Frame) (string, error) {
	return s.WindowAs("", fn, input, partitionBy, orderBy, frame)
}

// WindowAs is Window with an explicit result-column name. It builds the
// OVER call WindowExprAs stores.
func (s *Spreadsheet) WindowAs(name string, fn relation.WindowFunc, input string, partitionBy []string, orderBy []SortKey, frame *relation.Frame) (string, error) {
	w := &expr.WindowCall{Func: fn}
	if input != "" {
		w.Arg = &expr.ColumnRef{Name: input}
	}
	for _, p := range partitionBy {
		w.PartitionBy = append(w.PartitionBy, &expr.ColumnRef{Name: p})
	}
	for _, k := range orderBy {
		w.OrderBy = append(w.OrderBy, expr.WindowOrder{X: &expr.ColumnRef{Name: k.Column}, Desc: k.Dir == Desc})
	}
	if frame != nil {
		f := *frame
		w.Frame = &f
	}
	return s.WindowExprAs(name, w)
}

// WindowExprAs creates a window column from a parsed OVER expression whose
// argument, partition and order keys are plain column references. The call
// is the stored definition, as a θ column stores its formula. The SQL
// layer and the REPL route through here.
func (s *Spreadsheet) WindowExprAs(name string, w *expr.WindowCall) (string, error) {
	kind, err := s.checkWindow(w)
	if err != nil {
		return "", err
	}
	if name == "" {
		base := titleCase(string(w.Func))
		if arg, ok := w.Arg.(*expr.ColumnRef); ok {
			base += "_" + arg.Name
		}
		name = base
		for i := 2; s.hasColumn(name); i++ {
			name = fmt.Sprintf("%s_%d", base, i)
		}
	} else if s.hasColumn(name) {
		return "", fmt.Errorf("core: column %q already exists", name)
	}
	before := s.begin()
	s.state.computed = append(s.state.computed, &ComputedColumn{
		Name: name, Kind: KindWindow, Formula: w, ResultKind: kind,
	})
	if _, err := s.aggDepth(name, map[string]bool{}); err != nil {
		// Roll back the speculative append (cycle detection).
		s.state.computed = s.state.computed[:len(s.state.computed)-1]
		return "", err
	}
	s.commit(before, "ω "+name+" = "+w.SQL())
	return name, nil
}

// checkWindow validates an ω call against the current schema and returns
// the column's result kind. expr.Check applies the rules of every OVER
// clause; the algebra adds its own: the argument and keys are plain column
// references, a PARTITION BY column appears once, and SUM/AVG read a
// numeric column, as η's do. Shared by the operator and state restoration.
func (s *Spreadsheet) checkWindow(w *expr.WindowCall) (value.Kind, error) {
	plain := func(e expr.Expr, what string) (string, error) {
		if c, ok := e.(*expr.ColumnRef); ok {
			return c.Name, nil
		}
		return "", fmt.Errorf("core: %s must be a plain column, got %s", what, e.SQL())
	}
	var arg string
	if w.Arg != nil {
		var err error
		if arg, err = plain(w.Arg, "window argument"); err != nil {
			return value.KindNull, err
		}
	}
	seen := map[string]bool{}
	for _, p := range w.PartitionBy {
		c, err := plain(p, "PARTITION BY key")
		if err != nil {
			return value.KindNull, err
		}
		lk := strings.ToLower(c)
		if seen[lk] {
			return value.KindNull, fmt.Errorf("core: duplicate PARTITION BY column %q", c)
		}
		seen[lk] = true
	}
	for _, k := range w.OrderBy {
		if _, err := plain(k.X, "window ORDER BY key"); err != nil {
			return value.KindNull, err
		}
	}
	kind, err := expr.Check(w, s.columnKind)
	if err != nil {
		return value.KindNull, err
	}
	if w.Func == relation.WinSum || w.Func == relation.WinAvg {
		if k, _ := s.columnKind(arg); !k.Numeric() {
			return value.KindNull, fmt.Errorf("core: %s requires a numeric column, %q is %s", w.Func, arg, k)
		}
	}
	return kind, nil
}

// Distinct applies δ (Def. 13): duplicates over the currently visible
// non-computed columns are eliminated; the recorded column set is part of
// the query state so re-evaluation is deterministic (DESIGN.md §3.2).
// Computed columns are recomputed over the survivors.
func (s *Spreadsheet) Distinct() error {
	var cols []string
	for _, c := range s.base.Schema {
		if !s.state.isHidden(c.Name) {
			cols = append(cols, c.Name)
		}
	}
	before := s.begin()
	s.state.distinctOn = cols
	s.commit(before, "δ distinct on ("+strings.Join(cols, ",")+")")
	return nil
}

// Rename changes a column's name (the housekeeping operator of Sec. III-C),
// rewriting every reference in predicates, formulas, grouping and ordering.
func (s *Spreadsheet) Rename(old, new string) error {
	if !s.hasColumn(old) {
		return fmt.Errorf("core: unknown column %q", old)
	}
	// A case-only rename targets the same column; otherwise the new name
	// must be free.
	if s.hasColumn(new) && !strings.EqualFold(old, new) {
		return fmt.Errorf("core: column %q already exists", new)
	}
	if new == "" {
		return fmt.Errorf("core: empty column name")
	}
	before := s.begin()
	if i := s.base.Schema.IndexOf(old); i >= 0 {
		// The base relation is shared with stored sheets; rename on a copy
		// of the schema only (its columns are shared).
		schema := s.base.Schema.Clone()
		schema[i].Name = new
		s.base = s.base.WithSchema(schema)
	}
	rewrite := func(e expr.Expr) {
		expr.Walk(e, func(n expr.Expr) {
			if c, ok := n.(*expr.ColumnRef); ok && strings.EqualFold(c.Name, old) {
				c.Name = new
			}
		})
	}
	for _, sel := range s.state.selections {
		rewrite(sel.Pred)
	}
	for _, c := range s.state.computed {
		if strings.EqualFold(c.Name, old) {
			c.Name = new
		}
		if c.Kind != KindAggregate {
			rewrite(c.Formula)
		} else if strings.EqualFold(c.Input, old) {
			c.Input = new
		}
	}
	for gi := range s.state.grouping {
		for ai, a := range s.state.grouping[gi].Rel {
			if strings.EqualFold(a, old) {
				s.state.grouping[gi].Rel[ai] = new
			}
		}
		if strings.EqualFold(s.state.grouping[gi].By, old) {
			s.state.grouping[gi].By = new
		}
	}
	for i, k := range s.state.finest {
		if strings.EqualFold(k.Column, old) {
			s.state.finest[i].Column = new
		}
	}
	for i, h := range s.state.hidden {
		if strings.EqualFold(h, old) {
			s.state.hidden[i] = new
		}
	}
	for i, d := range s.state.distinctOn {
		if strings.EqualFold(d, old) {
			s.state.distinctOn[i] = new
		}
	}
	s.commit(before, fmt.Sprintf("rename %s → %s", old, new))
	return nil
}

func titleCase(s string) string {
	if s == "" {
		return s
	}
	lower := strings.ToLower(s)
	return strings.ToUpper(lower[:1]) + lower[1:]
}
