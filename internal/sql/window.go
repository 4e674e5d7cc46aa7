package sql

import (
	"fmt"

	"sheetmusiq/internal/expr"
	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

// Window-function execution. OVER expressions are computed between WHERE and
// projection, SQL's window stage: every distinct window call in the select
// list or ORDER BY is lifted out and replaced by a placeholder column
// reference, the window vectors are evaluated over the post-WHERE rows
// through the columnar kernel (relation.WindowEval), and the source is
// extended with one "__win_N" column per call. The rewritten statement then
// flows through the ordinary plain-projection paths — DISTINCT, ORDER BY,
// LIMIT all see plain columns.

func winPlaceholder(i int) string { return fmt.Sprintf("__win_%d", i) }

// hasWindows reports whether any select item, HAVING or ORDER BY contains a
// window call.
func hasWindows(stmt *SelectStmt) bool {
	for _, it := range stmt.Items {
		if !it.Star && expr.ContainsWindow(it.Expr) {
			return true
		}
	}
	for _, o := range stmt.OrderBy {
		if expr.ContainsWindow(o.Expr) {
			return true
		}
	}
	return stmt.Having != nil && expr.ContainsWindow(stmt.Having)
}

// liftWindows replaces every window call in items and ORDER BY with a
// placeholder reference and returns the distinct window definitions, keyed
// by their SQL rendering.
func liftWindows(items []SelectItem, orderBy []OrderItem) (wins []*expr.WindowCall, outItems []SelectItem, outOrder []OrderItem, err error) {
	index := map[string]int{}
	var lift func(e expr.Expr) (expr.Expr, error)
	lift = func(e expr.Expr) (expr.Expr, error) {
		if w, ok := e.(*expr.WindowCall); ok {
			key := w.SQL()
			i, ok := index[key]
			if !ok {
				i = len(wins)
				index[key] = i
				wins = append(wins, w)
			}
			return &expr.ColumnRef{Name: winPlaceholder(i)}, nil
		}
		return rebuild(e, lift)
	}
	for _, it := range items {
		ne, err := lift(it.Expr)
		if err != nil {
			return nil, nil, nil, err
		}
		outItems = append(outItems, SelectItem{Expr: ne, Alias: it.Alias})
	}
	for _, o := range orderBy {
		ne, err := lift(o.Expr)
		if err != nil {
			return nil, nil, nil, err
		}
		outOrder = append(outOrder, OrderItem{Expr: ne, Desc: o.Desc})
	}
	return wins, outItems, outOrder, nil
}

// applyWindows lifts the statement's window calls, computes their vectors
// over the surviving rows idx (nil = every source row), and replaces the
// statement's source with an extended one (original columns plus one
// __win_N column per call, indexed by base row like the originals),
// returning the rewritten statement. Output column names keep the original
// spelling: an unaliased window item is named by its OVER-clause SQL.
func (x *stmtCtx) applyWindows(stmt *SelectStmt, idx []int32) (*SelectStmt, error) {
	src := x.src
	// Expand * against the pre-window schema first so the placeholder
	// columns never leak into a star expansion.
	items, err := expandStars(src, stmt.Items)
	if err != nil {
		return nil, err
	}
	// Preserve the user-visible names of unaliased items (Name() of the
	// rewritten placeholder would read "__win_0").
	for i := range items {
		if items[i].Alias == "" && expr.ContainsWindow(items[i].Expr) {
			items[i].Alias = items[i].Name()
		}
	}
	wins, items, orderBy, err := liftWindows(items, stmt.OrderBy)
	if err != nil {
		return nil, err
	}

	nBase := src.rel.Len()
	winSchema := src.rel.Schema.Clone()
	winCols := append([]*relation.Col(nil), src.cols...)
	for wi, w := range wins {
		kind, err := expr.Check(w, src.kind)
		if err != nil {
			return nil, err
		}
		vec, err := x.evalWindow(w, idx)
		if err != nil {
			return nil, err
		}
		vals := make([]value.Value, nBase)
		for i, v := range vec {
			vals[rowAt(idx, i)] = v
		}
		winSchema = append(winSchema, relation.Column{Name: winPlaceholder(wi), Kind: kind})
		winCols = append(winCols, relation.BoxedCol(vals))
	}

	nstmt := *stmt
	nstmt.Items = items
	nstmt.OrderBy = orderBy
	x.src = newSource(relation.FromColumns(src.rel.Name, winSchema, winCols, nBase))
	return &nstmt, nil
}

// evalWindow computes one window call's value per surviving row. Partition
// keys, order keys and the argument are arbitrary expressions, each
// evaluated into a column: from a batch program over the source's typed
// columns when no enclosing scope or subquery is involved (counted by
// expr.batch.window), otherwise row by row through the interpreter.
func (x *stmtCtx) evalWindow(w *expr.WindowCall, idx []int32) ([]value.Value, error) {
	n := x.lanes(idx)
	batched := true
	colOf := func(e expr.Expr) (*relation.Col, error) {
		kind := x.kindOf(e)
		if col, ok := x.lanesOf(e, idx, kind, false); ok {
			return col, nil
		}
		batched = false
		env := x.bind(0, e).env(0)
		vals := make([]value.Value, n)
		for i := range vals {
			env.ri = rowAt(idx, i)
			v, err := expr.Eval(e, env)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return relation.ColOf(kind, vals), nil
	}
	cols := func(es []expr.Expr) ([]*relation.Col, error) {
		out := make([]*relation.Col, len(es))
		for i, e := range es {
			var err error
			if out[i], err = colOf(e); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	in := relation.WindowInput{N: n, K: len(w.OrderBy)}
	if len(w.PartitionBy) > 0 {
		parts, err := cols(w.PartitionBy)
		if err != nil {
			return nil, err
		}
		in.Parts = relation.GroupCols(parts, nil, n)
	}
	keys := make([]expr.Expr, len(w.OrderBy))
	in.Desc = make([]bool, len(w.OrderBy))
	for i, o := range w.OrderBy {
		keys[i], in.Desc[i] = o.X, o.Desc
	}
	var err error
	if in.KeyCols, err = cols(keys); err != nil {
		return nil, err
	}
	if w.Arg != nil {
		if in.ArgCol, err = colOf(w.Arg); err != nil {
			return nil, err
		}
	}
	if batched && n > 0 {
		expr.NoteWindowBatch()
	}
	return relation.WindowEval(relation.WindowSpec{Func: w.Func, Frame: w.Frame}, in)
}
