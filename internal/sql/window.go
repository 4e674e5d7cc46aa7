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
// reference, the window columns are evaluated over the post-WHERE rows
// through the columnar kernel (relation.WindowEval), and the source is
// extended with one typed "__win_N" column per call. The rewritten statement then
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
		col, err := x.evalWindow(w, idx)
		if err != nil {
			return nil, err
		}
		// The kernel's column is lane-aligned; base-row aligned it is the
		// same column when every row survives, else it is placed at the
		// surviving rows. No kind is declared, so no cell widens.
		if idx != nil {
			col = relation.Place(col, nil, idx, nBase, value.KindNull)
		}
		winSchema = append(winSchema, relation.Column{Name: winPlaceholder(wi), Kind: kind})
		winCols = append(winCols, col)
	}

	nstmt := *stmt
	nstmt.Items = items
	nstmt.OrderBy = orderBy
	x.src = newSource(relation.FromColumns(src.rel.Name, winSchema, winCols, nBase))
	return &nstmt, nil
}

// evalWindow computes one window call's column over the surviving rows,
// lane-aligned (relation.WindowEval). Partition
// keys, order keys and the argument are arbitrary expressions, evaluated
// together into lane columns (laneCols: source columns in place, batch
// programs, then one row-major interpreter pass over the rest); a window
// whose inputs all avoided the interpreter is counted by expr.batch.window.
func (x *stmtCtx) evalWindow(w *expr.WindowCall, idx []int32) (*relation.Col, error) {
	n := x.lanes(idx)
	np, nk := len(w.PartitionBy), len(w.OrderBy)
	es := append([]expr.Expr(nil), w.PartitionBy...)
	in := relation.WindowInput{N: n, K: nk, Desc: make([]bool, nk)}
	for i, o := range w.OrderBy {
		es = append(es, o.X)
		in.Desc[i] = o.Desc
	}
	if w.Arg != nil {
		es = append(es, w.Arg)
	}
	cols, rows, batched, err := x.laneCols(es, idx)
	if err != nil {
		return nil, err
	}
	cols, in.Rows = aligned(cols, rows, idx)
	if np > 0 {
		in.Parts = relation.GroupCols(cols[:np], in.Rows, n)
	}
	in.KeyCols = cols[np : np+nk]
	if w.Arg != nil {
		in.ArgCol = cols[np+nk]
	}
	if batched && n > 0 {
		expr.NoteWindowBatch()
	}
	return relation.WindowEval(relation.WindowSpec{Func: w.Func, Frame: w.Frame}, in)
}
