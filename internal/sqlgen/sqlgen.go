// Package sqlgen compiles a spreadsheet's query state into SQL text, the
// strategy the paper's SheetMusiq prototype used against PostgreSQL
// (Sec. VI). The generated statement, executed by internal/sql against the
// spreadsheet's base relation, reproduces the algebra's Evaluate output —
// including row order — which the property tests in this package assert.
//
// Generation follows the staged evaluation semantics of internal/core, with
// core's strata (Spreadsheet.ColumnDepth, Spreadsheet.ExprDepth) and expr's
// printer for every name and definition:
//
//	stage 0   SELECT base columns [DISTINCT recorded set]
//	          + one wrapping SELECT per depth-0 formula column
//	          + WHERE with the depth-0 predicates
//	stage d   a GROUP BY subquery per grouping basis joined back to carry
//	          the depth-d aggregate columns, then one wrap per depth-d
//	          window and formula column, and the depth-d predicates
//	final     projection of the visible columns, ORDER BY the grouping
//	          emulation (Sec. II-A) plus the finest-level keys
//
// Known restriction (documented in DESIGN.md): when duplicate elimination is
// active, every other operator must confine itself to the recorded DE
// columns and computed columns, because SQL's DISTINCT cannot express "keep
// the first full row per recorded-key group".
package sqlgen

import (
	"fmt"
	"strings"

	"sheetmusiq/internal/core"
	"sheetmusiq/internal/expr"
	"sheetmusiq/internal/relation"
)

// Plan is the staged translation of one query state.
type Plan struct {
	// SQL is the complete generated statement.
	SQL string
	// Stages lists each intermediate subquery, outermost last, for
	// explanation displays.
	Stages []string
}

// Generate compiles the spreadsheet's current query state to SQL.
func Generate(s *core.Spreadsheet) (string, error) {
	p, err := Compile(s)
	if err != nil {
		return "", err
	}
	return p.SQL, nil
}

// Compile is Generate with the intermediate stages retained.
func Compile(s *core.Spreadsheet) (*Plan, error) {
	g := &generator{sheet: s}
	return g.run()
}

type generator struct {
	sheet *core.Spreadsheet
	plan  Plan
	// cur is the current stage as a FROM-able fragment (a table name or a
	// parenthesised subquery), and cols the real columns it produces.
	cur    string
	isBase bool
	cols   []string
	alias  int
}

func (g *generator) nextAlias() string {
	g.alias++
	return fmt.Sprintf("t%d", g.alias)
}

// from renders cur as a FROM source.
func (g *generator) from() string {
	if g.isBase {
		return quote(g.cur)
	}
	return "(" + g.cur + ") AS " + g.nextAlias()
}

// push replaces the current stage.
func (g *generator) push(sql string) {
	g.cur = sql
	g.isBase = false
	g.plan.Stages = append(g.plan.Stages, sql)
}

// quote prints a name with expr's identifier rule, so every name the
// generator writes reads back through the SQL parser: names with spaces or
// a leading digit, and reserved words such as Date or Order, are quoted. A
// qualified reference is quote(alias + "." + name), which reads back as the
// FROM source's qualified column name.
func quote(name string) string { return (&expr.ColumnRef{Name: name}).SQL() }

// depths holds core's stratification of the computed columns
// (Spreadsheet.ColumnDepth) and the deepest stratum in use.
type depths struct {
	col map[string]int
	max int
}

func (g *generator) computeDepths(computed []core.ComputedColumn, sels []core.Selection) (*depths, []int, error) {
	d := &depths{col: map[string]int{}}
	for _, c := range computed {
		dep, err := g.sheet.ColumnDepth(c.Name)
		if err != nil {
			return nil, nil, err
		}
		d.col[strings.ToLower(c.Name)] = dep
		d.max = max(d.max, dep)
	}
	selDepth := make([]int, len(sels))
	for i, sel := range sels {
		dep, err := g.sheet.ExprDepth(sel.Pred)
		if err != nil {
			return nil, nil, err
		}
		selDepth[i] = dep
		d.max = max(d.max, dep)
	}
	return d, selDepth, nil
}

func (g *generator) run() (*Plan, error) {
	s := g.sheet
	base := s.Base()
	g.cur = base.Name
	g.isBase = true
	g.cols = append(g.cols, base.Schema.Names()...)

	computed := s.ComputedColumns()
	sels := s.Selections("")
	dep, selDepth, err := g.computeDepths(computed, sels)
	if err != nil {
		return nil, err
	}

	distinct := s.DistinctColumns()
	if len(distinct) > 0 {
		if err := g.checkDistinctRestriction(distinct, computed, sels); err != nil {
			return nil, err
		}
		var list []string
		for _, c := range distinct {
			list = append(list, quote(c))
		}
		g.push("SELECT DISTINCT " + strings.Join(list, ", ") + " FROM " + g.from())
		g.cols = append([]string(nil), distinct...)
	}

	for d := 0; d <= dep.max; d++ {
		// Aggregate columns of depth d (d ≥ 1), grouped by shared basis.
		if d > 0 {
			if err := g.emitAggregates(computed, dep, d); err != nil {
				return nil, err
			}
		}
		// Window, then formula columns of depth d, one wrap each: a window
		// may rank by the depth's aggregates, and a formula may reference
		// the windows and earlier formulas.
		for _, kind := range []core.ComputedKind{core.KindWindow, core.KindFormula} {
			for _, c := range computed {
				if c.Kind != kind || dep.col[strings.ToLower(c.Name)] != d {
					continue
				}
				g.push("SELECT *, " + c.Formula.SQL() + " AS " + quote(c.Name) + " FROM " + g.from())
				g.cols = append(g.cols, c.Name)
			}
		}
		// Selections of depth d.
		var preds []string
		for i, sel := range sels {
			if selDepth[i] == d {
				preds = append(preds, sel.Pred.SQL())
			}
		}
		if len(preds) > 0 {
			g.push("SELECT * FROM " + g.from() + " WHERE " + strings.Join(preds, " AND "))
		}
	}

	// Final projection and presentation order.
	visible := s.VisibleSchema()
	var list []string
	for _, c := range visible {
		list = append(list, quote(c.Name))
	}
	var order []string
	for _, lvl := range s.Grouping() {
		if lvl.By != "" {
			key := quote(lvl.By)
			if lvl.Dir == core.Desc {
				key += " DESC"
			}
			order = append(order, key)
			for _, a := range lvl.Rel {
				order = append(order, quote(a))
			}
			continue
		}
		for _, a := range lvl.Rel {
			key := quote(a)
			if lvl.Dir == core.Desc {
				key += " DESC"
			}
			order = append(order, key)
		}
	}
	for _, k := range s.FinestOrder() {
		key := quote(k.Column)
		if k.Dir == core.Desc {
			key += " DESC"
		}
		order = append(order, key)
	}
	final := "SELECT " + strings.Join(list, ", ") + " FROM " + g.from()
	if len(order) > 0 {
		final += " ORDER BY " + strings.Join(order, ", ")
	}
	g.plan.Stages = append(g.plan.Stages, final)
	g.plan.SQL = final
	return &g.plan, nil
}

// emitAggregates joins one GROUP BY subquery per distinct basis carrying
// every depth-d aggregate column.
func (g *generator) emitAggregates(computed []core.ComputedColumn, dep *depths, d int) error {
	type bucket struct {
		basis []string
		cols  []core.ComputedColumn
	}
	var buckets []*bucket
	index := map[string]*bucket{}
	for _, c := range computed {
		if c.Kind != core.KindAggregate || dep.col[strings.ToLower(c.Name)] != d {
			continue
		}
		basis := g.cumulativeBasis(c.Level)
		key := strings.ToLower(strings.Join(basis, "\x1f"))
		b := index[key]
		if b == nil {
			b = &bucket{basis: basis}
			index[key] = b
			buckets = append(buckets, b)
		}
		b.cols = append(b.cols, c)
	}
	for _, b := range buckets {
		inner := g.from()
		var aggList []string
		for _, c := range b.cols {
			aggList = append(aggList, aggCall(c)+" AS "+quote(c.Name))
		}
		var sub string
		if len(b.basis) == 0 {
			sub = "SELECT " + strings.Join(aggList, ", ") + " FROM " + inner
		} else {
			var basisList []string
			for _, a := range b.basis {
				basisList = append(basisList, quote(a))
			}
			sub = "SELECT " + strings.Join(basisList, ", ") + ", " + strings.Join(aggList, ", ") +
				" FROM " + inner + " GROUP BY " + strings.Join(basisList, ", ")
		}
		// Join the aggregate values back onto every row.
		tAlias := g.nextAlias()
		aAlias := g.nextAlias()
		var sel []string
		for _, c := range g.cols {
			sel = append(sel, quote(tAlias+"."+c)+" AS "+quote(c))
		}
		for _, c := range b.cols {
			sel = append(sel, quote(aAlias+"."+c.Name)+" AS "+quote(c.Name))
			g.cols = append(g.cols, c.Name)
		}
		left := g.cur
		if g.isBase {
			left = "SELECT * FROM " + quote(left)
		}
		stmt := "SELECT " + strings.Join(sel, ", ") + " FROM (" + left + ") AS " + tAlias
		if len(b.basis) == 0 {
			stmt += " CROSS JOIN (" + sub + ") AS " + aAlias
		} else {
			var conds []string
			for _, a := range b.basis {
				conds = append(conds, quote(tAlias+"."+a)+" = "+quote(aAlias+"."+a))
			}
			stmt += " JOIN (" + sub + ") AS " + aAlias + " ON " + strings.Join(conds, " AND ")
		}
		g.push(stmt)
	}
	return nil
}

// cumulativeBasis reproduces the paper's g_level from the grouping spec.
func (g *generator) cumulativeBasis(level int) []string {
	var out []string
	grouping := g.sheet.Grouping()
	for i := 0; i < level-1 && i < len(grouping); i++ {
		out = append(out, grouping[i].Rel...)
	}
	return out
}

func aggCall(c core.ComputedColumn) string {
	switch c.Agg {
	case relation.AggCountDistinct:
		return "COUNT(DISTINCT " + quote(c.Input) + ")"
	default:
		return string(c.Agg) + "(" + quote(c.Input) + ")"
	}
}

// checkDistinctRestriction enforces the documented DE limitation.
func (g *generator) checkDistinctRestriction(distinct []string, computed []core.ComputedColumn, sels []core.Selection) error {
	allowed := map[string]bool{}
	for _, c := range distinct {
		allowed[strings.ToLower(c)] = true
	}
	for _, c := range computed {
		allowed[strings.ToLower(c.Name)] = true
	}
	check := func(cols []string, what string) error {
		for _, c := range cols {
			if !allowed[strings.ToLower(c)] {
				return fmt.Errorf("sqlgen: %s references %q, which duplicate elimination dropped; SQL generation cannot express this state", what, c)
			}
		}
		return nil
	}
	for _, sel := range sels {
		if err := check(expr.Columns(sel.Pred), "a selection"); err != nil {
			return err
		}
	}
	for _, c := range computed {
		refs, what := []string{c.Input}, "aggregate "
		if c.Kind != core.KindAggregate {
			refs, what = expr.Columns(c.Formula), "computed column "
		}
		if err := check(refs, what+c.Name); err != nil {
			return err
		}
	}
	for _, lvl := range g.sheet.Grouping() {
		if err := check(lvl.Rel, "the grouping"); err != nil {
			return err
		}
	}
	for _, k := range g.sheet.FinestOrder() {
		if err := check([]string{k.Column}, "the ordering"); err != nil {
			return err
		}
	}
	for _, c := range g.sheet.VisibleSchema() {
		if err := check([]string{c.Name}, "the visible columns"); err != nil {
			return err
		}
	}
	return nil
}
