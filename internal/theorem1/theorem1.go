// Package theorem1 mechanises the constructive proof of the paper's
// Theorem 1: "for every core SQL single-block query expression there exists
// an equivalent expression in the spreadsheet algebra". Compile turns a
// parsed single-block SELECT into the very operator program the proof
// describes — selection for the WHERE clause (step 2), one grouping level
// per GROUP BY item (step 3), one aggregation column per aggregate
// (step 4), a HAVING selection over those columns (step 5), ordering
// (step 6) and projection (step 7) — and applies it to a fresh spreadsheet.
//
// The paper's proof handles the relation-list by taking products (step 1);
// like the user study itself ("we predefined views for queries involving
// many joins so that users always query a single table"), this compiler
// requires a single FROM table and leaves join materialisation to views.
//
// The package's tests close the loop: for every study task and for fuzzed
// queries, the compiled algebra program's collapsed result equals the SQL
// engine's result — Theorem 1, verified mechanically.
package theorem1

import (
	"fmt"
	"sort"
	"strings"

	"sheetmusiq/internal/core"
	"sheetmusiq/internal/expr"
	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/sql"
)

// Program is the compiled algebra program: the populated spreadsheet plus
// bookkeeping for reading its result back in SQL's one-row-per-group form.
type Program struct {
	Sheet *core.Spreadsheet
	// OutputCols names the spreadsheet columns corresponding to the SQL
	// output columns, in order.
	OutputCols []string
	// GroupCols names the grouping columns (empty for ungrouped queries).
	GroupCols []string
	// Log describes each applied operator, mirroring the proof's steps.
	Log []string

	// aggCols maps an aggregate call's SQL rendering to its η column.
	aggCols map[string]string
}

// Compile applies the Theorem 1 construction to stmt against the base
// relation. The statement must be a core single-block query: one FROM
// table, no DISTINCT, no LIMIT, no subqueries, aggregates only in the
// select list / HAVING / ORDER BY.
func Compile(base *relation.Relation, stmt *sql.SelectStmt) (*Program, error) {
	table, ok := stmt.From.(*sql.TableRef)
	if !ok {
		return nil, fmt.Errorf("theorem1: the construction's step 1 (products) is handled by views; FROM must be a single table")
	}
	if !strings.EqualFold(table.Name, base.Name) {
		return nil, fmt.Errorf("theorem1: statement reads %q, base relation is %q", table.Name, base.Name)
	}
	if stmt.Distinct {
		return nil, fmt.Errorf("theorem1: DISTINCT is outside the core single-block form")
	}
	if stmt.Limit >= 0 {
		return nil, fmt.Errorf("theorem1: LIMIT is outside the core single-block form")
	}
	for _, it := range stmt.Items {
		if it.Star {
			return nil, fmt.Errorf("theorem1: * is not supported; name the output columns")
		}
		if expr.ContainsSubquery(it.Expr) {
			return nil, fmt.Errorf("theorem1: nested queries are exactly what the algebra cannot express")
		}
	}
	if stmt.Where != nil && (expr.ContainsAggregate(stmt.Where) || expr.ContainsSubquery(stmt.Where)) {
		return nil, fmt.Errorf("theorem1: WHERE must be aggregate- and subquery-free")
	}
	if stmt.Having != nil && expr.ContainsSubquery(stmt.Having) {
		return nil, fmt.Errorf("theorem1: nested queries are exactly what the algebra cannot express")
	}

	p := &Program{Sheet: core.New(base), aggCols: map[string]string{}}

	// Step 2: the WHERE clause becomes one selection.
	if stmt.Where != nil {
		if _, err := p.Sheet.SelectExpr(stmt.Where); err != nil {
			return nil, fmt.Errorf("theorem1: step 2: %w", err)
		}
		p.Log = append(p.Log, "step 2: σ "+stmt.Where.SQL())
	}

	// Step 3: one grouping level per GROUP BY item. The paper's proof
	// takes the items left to right, but the recursive grouping then
	// dictates presentation order; to honour the ORDER BY clause the
	// grouping levels whose items appear in ORDER BY come first, in ORDER
	// BY sequence (a detail the proof glosses over). Expression items
	// first materialise as formula columns.
	groupItems := orderAlignedGroupItems(stmt)
	for _, g := range groupItems {
		col, err := p.columnFor(g, "")
		if err != nil {
			return nil, fmt.Errorf("theorem1: step 3: %w", err)
		}
		if err := p.Sheet.GroupBy(core.Asc, col); err != nil {
			return nil, fmt.Errorf("theorem1: step 3: %w", err)
		}
		p.GroupCols = append(p.GroupCols, col)
		p.Log = append(p.Log, "step 3: τ "+col)
	}
	finestLevel := len(p.GroupCols) + 1

	// Step 4: one aggregation column per distinct aggregate call, computed
	// at the finest level ("in SQL, aggregation is computed over the
	// finest level").
	aggCols := p.aggCols // aggregate SQL -> computed column name
	collect := func(e expr.Expr) error {
		var fail error
		expr.Walk(e, func(n expr.Expr) {
			f, ok := n.(*expr.FuncCall)
			if !ok || !expr.AggregateNames[f.Name] || fail != nil {
				return
			}
			key := f.SQL()
			if _, done := aggCols[key]; done {
				return
			}
			name, err := p.addAggregate(f, finestLevel)
			if err != nil {
				fail = err
				return
			}
			aggCols[key] = name
			p.Log = append(p.Log, "step 4: η "+key+" → "+name)
		})
		return fail
	}
	for _, it := range stmt.Items {
		if err := collect(it.Expr); err != nil {
			return nil, fmt.Errorf("theorem1: step 4: %w", err)
		}
	}
	if stmt.Having != nil {
		if err := collect(stmt.Having); err != nil {
			return nil, fmt.Errorf("theorem1: step 4: %w", err)
		}
	}
	for _, o := range stmt.OrderBy {
		if err := collect(o.Expr); err != nil {
			return nil, fmt.Errorf("theorem1: step 4: %w", err)
		}
	}

	// Step 5: the HAVING clause becomes a selection over the aggregation
	// columns.
	if stmt.Having != nil {
		having, err := substituteAggregates(stmt.Having, aggCols)
		if err != nil {
			return nil, fmt.Errorf("theorem1: step 5: %w", err)
		}
		if _, err := p.Sheet.SelectExpr(having); err != nil {
			return nil, fmt.Errorf("theorem1: step 5: %w", err)
		}
		p.Log = append(p.Log, "step 5: σ "+having.SQL())
	}

	// Output columns: group columns, aggregate columns, and formula
	// columns for expressions over them, honouring aliases.
	for _, it := range stmt.Items {
		rewritten, err := substituteAggregates(it.Expr, aggCols)
		if err != nil {
			return nil, err
		}
		col, err := p.columnFor(rewritten, it.Alias)
		if err != nil {
			return nil, err
		}
		p.OutputCols = append(p.OutputCols, col)
	}

	// Step 6: ORDER BY. Keys over grouping columns direct their level;
	// aggregate keys order the groups (the OrderGroupsBy extension);
	// remaining keys order tuples at the finest level.
	for _, o := range stmt.OrderBy {
		rewritten, err := substituteAggregates(o.Expr, aggCols)
		if err != nil {
			return nil, err
		}
		col, err := p.columnFor(rewritten, "")
		if err != nil {
			return nil, fmt.Errorf("theorem1: step 6: %w", err)
		}
		dir := core.Asc
		if o.Desc {
			dir = core.Desc
		}
		if lvl := indexOfFold(p.GroupCols, col); lvl >= 0 {
			// Direction of the level whose relative basis is col.
			if err := p.Sheet.OrderBy(col, dir, lvl+1); err != nil {
				return nil, fmt.Errorf("theorem1: step 6: %w", err)
			}
		} else if isAggCol(aggCols, col) {
			if finestLevel == 1 {
				// A whole-sheet aggregate is constant; ordering by it is
				// a no-op.
				continue
			}
			// The aggregate lives at the finest level; order the sibling
			// groups one level up by its value.
			if err := p.Sheet.OrderGroupsBy(finestLevel-1, col, dir); err != nil {
				return nil, fmt.Errorf("theorem1: step 6: %w", err)
			}
		} else {
			if err := p.Sheet.Sort(col, dir); err != nil {
				return nil, fmt.Errorf("theorem1: step 6: %w", err)
			}
		}
		p.Log = append(p.Log, "step 6: λ "+col+" "+dir.String())
	}

	// Step 7: project out base columns not in the projection list, one at
	// a time.
	keep := map[string]bool{}
	for _, c := range p.OutputCols {
		keep[strings.ToLower(c)] = true
	}
	for _, c := range p.GroupCols {
		keep[strings.ToLower(c)] = true
	}
	for _, c := range base.Schema {
		if keep[strings.ToLower(c.Name)] {
			continue
		}
		// Ordering/selection on hidden columns keeps working; hide freely.
		if err := p.Sheet.Hide(c.Name); err != nil {
			return nil, fmt.Errorf("theorem1: step 7: %w", err)
		}
		p.Log = append(p.Log, "step 7: π "+c.Name)
	}
	return p, nil
}

// orderAlignedGroupItems returns the GROUP BY items, stably reordered so
// items named by ORDER BY (directly or through a select alias) come first
// in ORDER BY sequence.
func orderAlignedGroupItems(stmt *sql.SelectStmt) []expr.Expr {
	alias := map[string]expr.Expr{}
	for _, it := range stmt.Items {
		if it.Alias != "" {
			alias[strings.ToLower(it.Alias)] = it.Expr
		}
	}
	rank := func(g expr.Expr) int {
		gSQL := stripQualifiers(g).SQL()
		for i, o := range stmt.OrderBy {
			oe := o.Expr
			if c, ok := oe.(*expr.ColumnRef); ok {
				if a, ok2 := alias[strings.ToLower(c.Name)]; ok2 {
					oe = a
				}
			}
			if stripQualifiers(oe).SQL() == gSQL {
				return i
			}
		}
		return int(^uint(0) >> 1)
	}
	out := append([]expr.Expr(nil), stmt.GroupBy...)
	sort.SliceStable(out, func(i, j int) bool { return rank(out[i]) < rank(out[j]) })
	return out
}

// columnFor resolves an aggregate-free expression to a spreadsheet column,
// creating a formula column when it is not already a bare column and no
// equivalent formula exists. A non-empty alias renames the result.
func (p *Program) columnFor(e expr.Expr, alias string) (string, error) {
	if c, ok := e.(*expr.ColumnRef); ok {
		name := bareName(c.Name)
		if alias != "" && alias != name {
			if err := p.rename(name, alias); err != nil {
				return "", err
			}
			return alias, nil
		}
		return name, nil
	}
	// Reuse an existing formula column with the identical definition
	// (GROUP BY expressions reappear verbatim in the select list).
	want := stripQualifiers(e).SQL()
	for _, cc := range p.Sheet.ComputedColumns() {
		if cc.Kind == core.KindFormula && cc.Formula.SQL() == want {
			if alias != "" && alias != cc.Name {
				if err := p.rename(cc.Name, alias); err != nil {
					return "", err
				}
				return alias, nil
			}
			return cc.Name, nil
		}
	}
	name, err := p.Sheet.FormulaExpr(alias, stripQualifiers(e))
	if err != nil {
		return "", err
	}
	p.Log = append(p.Log, "θ "+name+" = "+e.SQL())
	return name, nil
}

// rename renames a spreadsheet column and keeps the program's bookkeeping
// in sync.
func (p *Program) rename(old, new string) error {
	if err := p.Sheet.Rename(old, new); err != nil {
		return err
	}
	p.Log = append(p.Log, "rename "+old+" → "+new)
	for i, g := range p.GroupCols {
		if strings.EqualFold(g, old) {
			p.GroupCols[i] = new
		}
	}
	for k, v := range p.aggCols {
		if strings.EqualFold(v, old) {
			p.aggCols[k] = new
		}
	}
	return nil
}

// addAggregate creates the η column for one aggregate call. Aggregates over
// expressions first materialise the argument as a formula column.
func (p *Program) addAggregate(f *expr.FuncCall, level int) (string, error) {
	var fn relation.AggFunc
	switch f.Name {
	case "COUNT":
		fn = relation.AggCount
	case "COUNT_DISTINCT":
		fn = relation.AggCountDistinct
	default:
		fn = relation.AggFunc(f.Name)
	}
	var input string
	if len(f.Args) != 1 {
		return "", fmt.Errorf("%s expects one argument", f.Name)
	}
	if _, isStar := f.Args[0].(*expr.Star); isStar {
		if fn != relation.AggCount {
			return "", fmt.Errorf("only COUNT accepts *")
		}
		// COUNT(*) counts tuples; any always-present column works — the
		// algebra's COUNT counts tuples regardless of NULLs.
		input = p.Sheet.Base().Schema[0].Name
	} else if c, ok := f.Args[0].(*expr.ColumnRef); ok {
		input = bareName(c.Name)
	} else {
		name, err := p.Sheet.FormulaExpr("", stripQualifiers(f.Args[0]))
		if err != nil {
			return "", err
		}
		p.Log = append(p.Log, "θ "+name+" = "+f.Args[0].SQL())
		input = name
	}
	return p.Sheet.AggregateAs("", fn, input, level)
}

// substituteAggregates replaces aggregate calls with references to their
// computed columns.
func substituteAggregates(e expr.Expr, aggCols map[string]string) (expr.Expr, error) {
	if !expr.ContainsAggregate(e) {
		return stripQualifiers(e), nil
	}
	// Rewrite via SQL text: replace each aggregate's rendering with its
	// column name. Renderings are parenthesised and unique, so plain text
	// substitution on the canonical form is unambiguous.
	text := e.SQL()
	for call, col := range aggCols {
		text = strings.ReplaceAll(text, call, col)
	}
	out, err := expr.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("aggregate substitution produced %q: %w", text, err)
	}
	if expr.ContainsAggregate(out) {
		return nil, fmt.Errorf("unsubstituted aggregate remains in %q", text)
	}
	return stripQualifiers(out), nil
}

// stripQualifiers drops "table." prefixes from column references (the
// spreadsheet has a single base).
func stripQualifiers(e expr.Expr) expr.Expr {
	clone, err := expr.Parse(e.SQL())
	if err != nil {
		return e
	}
	expr.Walk(clone, func(n expr.Expr) {
		if c, ok := n.(*expr.ColumnRef); ok {
			c.Name = bareName(c.Name)
		}
	})
	return clone
}

func bareName(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}

func indexOfFold(xs []string, s string) int {
	for i, x := range xs {
		if strings.EqualFold(x, s) {
			return i
		}
	}
	return -1
}

func isAggCol(aggCols map[string]string, col string) bool {
	for _, c := range aggCols {
		if strings.EqualFold(c, col) {
			return true
		}
	}
	return false
}

// Collapse reads the evaluated spreadsheet back in SQL's one-row-per-group
// form: the program's output columns, one row per finest group (or per
// tuple for ungrouped queries).
func (p *Program) Collapse() (*relation.Relation, error) {
	res, err := p.Sheet.Evaluate()
	if err != nil {
		return nil, err
	}
	proj, err := res.Table.Project(p.OutputCols)
	if err != nil {
		return nil, err
	}
	if len(p.GroupCols) == 0 && !p.hasAggregates() {
		return proj, nil
	}
	// One row per finest group: the group tree gives the boundaries.
	var firsts []int32
	var walk func(g *core.Group)
	walk = func(g *core.Group) {
		if len(g.Children) == 0 {
			if g.Rows() > 0 {
				firsts = append(firsts, int32(g.Start))
			}
			return
		}
		for _, c := range g.Children {
			walk(c)
		}
	}
	walk(res.Root)
	return proj.Pick(firsts), nil
}

func (p *Program) hasAggregates() bool {
	for _, c := range p.Sheet.ComputedColumns() {
		if c.Kind == core.KindAggregate {
			return true
		}
	}
	return false
}
