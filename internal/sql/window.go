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
// over rows, and replaces the statement's source with an extended one
// (original columns plus one __win_N column per call), returning its rows
// with the rewritten statement. Output column names keep the original
// spelling: an unaliased window item is named by its OVER-clause SQL.
func (x *stmtCtx) applyWindows(stmt *SelectStmt, rows []relation.Tuple, idx []int32, aligned bool) ([]relation.Tuple, *SelectStmt, error) {
	src := x.src
	// Expand * against the pre-window schema first so the placeholder
	// columns never leak into a star expansion.
	items, err := expandStars(src, stmt.Items)
	if err != nil {
		return nil, nil, err
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
		return nil, nil, err
	}

	resolve := func(name string) (value.Kind, bool) {
		i, err := src.resolve(name)
		if err != nil {
			return value.KindNull, false
		}
		return src.rel.Schema[i].Kind, true
	}
	n := len(rows)
	winSchema := src.rel.Schema.Clone()
	vecs := make([][]value.Value, len(wins))
	for wi, w := range wins {
		kind, err := expr.Check(w, resolve)
		if err != nil {
			return nil, nil, err
		}
		vec, err := x.evalWindow(w, rows, idx, aligned)
		if err != nil {
			return nil, nil, err
		}
		vecs[wi] = vec
		winSchema = append(winSchema, relation.Column{Name: winPlaceholder(wi), Kind: kind})
	}

	ext := relation.New(src.rel.Name, winSchema)
	ext.Rows = make([]relation.Tuple, n)
	w0 := len(src.rel.Schema)
	for i, row := range rows {
		t := make(relation.Tuple, len(winSchema))
		copy(t, row)
		for wi := range wins {
			t[w0+wi] = vecs[wi][i]
		}
		ext.Rows[i] = t
	}

	nstmt := *stmt
	nstmt.Items = items
	nstmt.OrderBy = orderBy
	x.src = &source{rel: ext}
	return ext.Rows, &nstmt, nil
}

// evalWindow computes one window call's value per row. Partition keys, order
// keys and the argument are arbitrary expressions; when the source carries
// typed columns and no enclosing scope or subquery is involved, each input
// fills from a batch program (counted by expr.batch.window), otherwise row
// by row through the interpreter.
func (x *stmtCtx) evalWindow(w *expr.WindowCall, rows []relation.Tuple, idx []int32, aligned bool) ([]value.Value, error) {
	n := len(rows)
	evalVec := func(e expr.Expr) ([]value.Value, bool, error) {
		out := make([]value.Value, n)
		sc := x.bind(0, e)
		env := sc.env(nil)
		if aligned && sc.parallel && n > 0 {
			if bp, cerr := expr.CompileBatch(e, x.src.batchResolve); cerr == nil {
				if bad := bp.EvalPos(idx, 0, n, value.KindNull, out); bad >= 0 {
					env.row = rows[bad]
					return nil, false, bp.RowError(env, false)
				}
				return out, true, nil
			}
		}
		for i, row := range rows {
			env.row = row
			v, err := expr.Eval(e, env)
			if err != nil {
				return nil, false, err
			}
			out[i] = v
		}
		return out, false, nil
	}

	in := relation.WindowInput{N: n, K: len(w.OrderBy)}
	batched := true
	if len(w.PartitionBy) > 0 {
		partRows := make([]relation.Tuple, n)
		for i := range partRows {
			partRows[i] = make(relation.Tuple, len(w.PartitionBy))
		}
		for ki, p := range w.PartitionBy {
			vec, vb, err := evalVec(p)
			if err != nil {
				return nil, err
			}
			batched = batched && vb
			for i := 0; i < n; i++ {
				partRows[i][ki] = vec[i]
			}
		}
		in.Parts = relation.GroupRowsOn(partRows, nil)
	}
	if k := len(w.OrderBy); k > 0 {
		in.Keys = make([]value.Value, n*k)
		in.Desc = make([]bool, k)
		for ki, o := range w.OrderBy {
			in.Desc[ki] = o.Desc
			vec, vb, err := evalVec(o.X)
			if err != nil {
				return nil, err
			}
			batched = batched && vb
			for i := 0; i < n; i++ {
				in.Keys[i*k+ki] = vec[i]
			}
		}
	}
	if w.Arg != nil {
		vec, vb, err := evalVec(w.Arg)
		if err != nil {
			return nil, err
		}
		batched = batched && vb
		in.Arg = vec
	}
	if batched && aligned && n > 0 {
		expr.NoteWindowBatch()
	}
	return relation.WindowEval(relation.WindowSpec{Func: w.Func, Frame: w.Frame}, in)
}
