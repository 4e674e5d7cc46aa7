package sql

import (
	"sheetmusiq/internal/expr"
	"sheetmusiq/internal/obs"
	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

// execMergeFallback counts grouped statements in which some aggregate's
// accumulation stayed sequential because the chunked merge would not be
// bit-identical (relation.GroupAggregate's fallback flag), one increment per
// statement.
var execMergeFallback = obs.Default.Counter("sql.exec.merge_fallback")

// This file holds the executor's row loops, one per shape: WHERE, lane
// columns (GROUP BY keys, aggregate arguments and window inputs: laneCols)
// and output (join ON uses the same scopes). Grouped output is no shape of
// its own: HAVING, the items and the ORDER BY keys run as WHERE and output
// over the group relation (groupCtx), whose rows are the groups. A loop
// walks surviving source rows by
// their base-row index and reads cells lazily from the source's typed
// columns, so it boxes only the cells its expressions read, never a whole
// row. Every loop binds the names of its expressions to column slots once
// (scope) and evaluates rows through the interpreter, expr.Eval, with no
// per-row name search. Where no enclosing row scope or subquery is
// involved, batch programs run over the columns instead (lanesOf, filter),
// and an erring lane they flag sends the work back to the interpreter,
// which yields the exact error.
//
// Loops split into parallel chunks (relation.RunChunks, outputs combined in
// chunk order, so results and the first error match the sequential scan)
// only when that is provably safe: no enclosing row scope, whose names are
// resolved by a caller's Env, and no subquery, whose per-statement cache is
// a shared map.

// stmtCtx is what the row loops of one statement execution share: the
// source they read, the database subqueries run against, the enclosing row
// scope of a correlated subquery, and the statement's subquery cache.
type stmtCtx struct {
	db    *DB
	src   *source
	outer expr.Env
	subs  map[*expr.Subquery]*subState
}

// scope binds the column names of one loop's expressions to the source
// columns of its evaluation row.
type scope struct {
	*stmtCtx
	slots    map[string]int // reference spelling → source column; -1 = enclosing scope
	parallel bool
}

// bind resolves every column reference of es once.
func (x *stmtCtx) bind(es ...expr.Expr) *scope {
	sc := &scope{stmtCtx: x, slots: map[string]int{}, parallel: x.outer == nil}
	for _, e := range es {
		if e == nil {
			continue
		}
		if expr.ContainsSubquery(e) {
			sc.parallel = false
		}
		expr.Walk(e, func(n expr.Expr) {
			if c, ok := n.(*expr.ColumnRef); ok {
				if _, done := sc.slots[c.Name]; !done {
					sc.slots[c.Name] = sc.resolve(c.Name)
				}
			}
		})
	}
	return sc
}

// resolve applies the lookup precedence: the source's unique-suffix rule,
// then -1, which leaves the name to the enclosing scope. Over a group
// relation the lifted-aggregate placeholders ("__agg_3") are source columns
// like any other.
func (sc *scope) resolve(name string) int {
	if i, err := sc.src.resolve(name); err == nil {
		return i
	}
	return -1
}

// chunks splits n rows for the loop: parallel chunks when safe, else one.
func (sc *scope) chunks(n int) [][2]int {
	if sc.parallel || n == 0 {
		return relation.Chunks(n)
	}
	return [][2]int{{0, n}}
}

// env returns an evaluation Env over source row ri. Loops reuse one per
// chunk by resetting its row.
func (sc *scope) env(ri int) *rowEnv { return &rowEnv{sc: sc, ri: ri} }

// rowEnv evaluates expressions over one row of a scope: source row ri, read
// cell by cell from the source's typed columns. It also carries the
// statement's database and subquery cache so nested subqueries can execute
// (correlated names resolve innermost-first, then walk outward).
type rowEnv struct {
	sc *scope
	ri int
}

// Lookup implements expr.Env. Names outside the bound set (a nested
// subquery's correlation variables) resolve on the spot.
func (e *rowEnv) Lookup(name string) (value.Value, bool) {
	i, ok := e.sc.slots[name]
	if !ok {
		i = e.sc.resolve(name)
	}
	if i < 0 {
		if e.sc.outer != nil {
			return e.sc.outer.Lookup(name)
		}
		return value.Null, false
	}
	return e.sc.src.cols[i].Value(e.ri), true
}

// rowAt maps lane i of a surviving-row vector (nil = every source row) to
// its base-row index.
func rowAt(idx []int32, i int) int {
	if idx == nil {
		return i
	}
	return int(idx[i])
}

// lanes counts the surviving rows idx addresses (nil = every source row).
func (x *stmtCtx) lanes(idx []int32) int {
	if idx == nil {
		return x.src.rel.Len()
	}
	return len(idx)
}

// filter returns the base-row indexes of the rows among idx (nil = every
// source row) that pred accepts, in order. A batch program selects straight
// from the column vectors where the scope allows; otherwise the interpreter
// reads each row's cells.
func (x *stmtCtx) filter(pred expr.Expr, idx []int32) ([]int32, error) {
	sc := x.bind(pred)
	n := x.lanes(idx)
	if sc.parallel {
		// Only subqueries decline, and they clear parallel.
		if bp, err := expr.CompileBatch(pred, x.src.batchResolve); err == nil {
			kept, bad := bp.Select(idx, n)
			if bad >= 0 {
				return nil, bp.RowError(sc.env(rowAt(idx, bad)), true)
			}
			return kept, nil
		}
	}
	kept := make([]int32, 0, n)
	env := sc.env(0)
	for i := 0; i < n; i++ {
		env.ri = rowAt(idx, i)
		ok, err := expr.EvalBool(pred, env)
		if err != nil {
			return nil, err
		}
		if ok {
			kept = append(kept, int32(env.ri))
		}
	}
	return kept, nil
}

// kindOf infers e's kind over the source; KindNull when it does not check.
func (x *stmtCtx) kindOf(e expr.Expr) value.Kind {
	k, err := expr.Check(e, x.src.kind)
	if err != nil {
		return value.KindNull
	}
	return k
}

// lanesOf evaluates e over the surviving rows idx (nil = every source row)
// into a positional column of the given kind: a column reference whose
// cells already are that column is shared or gathered, anything else fills
// from a batch program — typed payloads, or boxed values when its lanes'
// kinds disagree with kind (INT lanes widen into a FLOAT column when widen
// is set, as an output column's do). ok is false when e needs the
// interpreter — an enclosing scope or a subquery — or a lane errs; the
// caller's interpreter loop then runs and reports the exact error.
func (x *stmtCtx) lanesOf(e expr.Expr, idx []int32, kind value.Kind, widen bool) (col *relation.Col, ok bool) {
	if x.outer != nil || expr.ContainsSubquery(e) {
		return nil, false
	}
	if col := x.src.plainCol(e, kind); col != nil {
		if idx == nil {
			return col, true
		}
		return col.Gather(idx), true
	}
	bp, err := expr.CompileBatch(e, x.src.batchResolve)
	if err != nil {
		return nil, false
	}
	n := x.lanes(idx)
	col, bad := bp.EvalCol(idx, n, n, kind, true, widen)
	if col != nil || bad >= 0 {
		return col, bad < 0
	}
	// Lanes of another kind than the inferred one: their values, boxed.
	wk := value.KindNull
	if widen {
		wk = kind
	}
	vals := make([]value.Value, n)
	bounds := relation.Chunks(n)
	bads := make([]int, len(bounds))
	_ = relation.RunChunks(bounds, func(c, lo, hi int) error {
		bads[c] = bp.EvalPos(idx, lo, hi, wk, vals)
		return nil
	})
	for _, bad := range bads {
		if bad >= 0 {
			return nil, false
		}
	}
	return relation.ColOf(kind, vals), true
}

// laneCols evaluates es over the surviving rows idx (nil = every source
// row) into one column each, trying per expression, in order: a typed source
// column, read in place (rows[i] = idx); a batch program (lanesOf,
// positional: rows[i] = nil); and one interpreter pass over the expressions
// whose batch program declined or flagged an erring lane, row-major across
// them. Batch-served expressions have no erring lane, so that pass's first
// error is the row-major first error of es. batched reports whether every
// expression was served without the interpreter.
func (x *stmtCtx) laneCols(es []expr.Expr, idx []int32) (cols []*relation.Col, rows [][]int32, batched bool, err error) {
	cols = make([]*relation.Col, len(es))
	rows = make([][]int32, len(es))
	kinds := make([]value.Kind, len(es))
	var declined []expr.Expr
	var at []int // position in es of each expression in declined
	for i, e := range es {
		kinds[i] = x.kindOf(e)
		if cols[i] = x.src.plainCol(e, kinds[i]); cols[i] != nil {
			rows[i] = idx
			continue
		}
		var ok bool
		if cols[i], ok = x.lanesOf(e, idx, kinds[i], false); !ok {
			declined, at = append(declined, e), append(at, i)
		}
	}
	if len(declined) == 0 {
		return cols, rows, true, nil
	}
	sc := x.bind(declined...)
	n := x.lanes(idx)
	vals := make([][]value.Value, len(declined))
	for j := range vals {
		vals[j] = make([]value.Value, n)
	}
	err = relation.RunChunks(sc.chunks(n), func(_, lo, hi int) error {
		env := sc.env(0)
		for r := lo; r < hi; r++ {
			env.ri = rowAt(idx, r)
			for j, e := range declined {
				v, err := expr.Eval(e, env)
				if err != nil {
					return err
				}
				vals[j][r] = v
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, false, err
	}
	for j, i := range at {
		cols[i] = relation.ColOf(kinds[i], vals[j])
	}
	return cols, rows, false, nil
}

// aligned returns laneCols' columns read through one lane→row vector, the
// form GroupCols and WindowEval take: idx when every column is read in
// place, else nil, with the columns read in place gathered.
func aligned(cols []*relation.Col, rows [][]int32, idx []int32) ([]*relation.Col, []int32) {
	inPlace := 0
	for _, r := range rows {
		if r != nil {
			inPlace++
		}
	}
	switch inPlace {
	case 0:
		return cols, nil
	case len(cols):
		return cols, idx
	}
	out := make([]*relation.Col, len(cols))
	for i, c := range cols {
		if rows[i] != nil {
			c = c.Gather(rows[i])
		}
		out[i] = c
	}
	return out, nil
}

// groupRows maps every surviving row (lane of idx, nil = every source row)
// to its group by the GROUP BY values, in first-appearance order. An
// aggregate query without GROUP BY is one group, even over empty input.
func (x *stmtCtx) groupRows(groupBy []expr.Expr, idx []int32) (*relation.Grouping, error) {
	n := x.lanes(idx)
	if len(groupBy) == 0 {
		return &relation.Grouping{IDs: make([]int32, n), First: []int32{0}}, nil
	}
	cols, rows, _, err := x.laneCols(groupBy, idx)
	if err != nil {
		return nil, err
	}
	keys, at := aligned(cols, rows, idx)
	return relation.GroupCols(keys, at, n), nil
}

// orderCols resolves each ORDER BY key that names an output column to that
// column's index, once per statement; other keys (-1) evaluate per row.
func orderCols(orderBy []OrderItem, schema relation.Schema) []int {
	cols := make([]int, len(orderBy))
	for i, o := range orderBy {
		cols[i] = -1
		if c, ok := o.Expr.(*expr.ColumnRef); ok {
			cols[i] = schema.IndexOf(c.Name)
		}
	}
	return cols
}

// outputExprs lists what each output row evaluates, in the column layout of
// an output: the items, then the ORDER BY keys, where a key naming an output
// column is nil — it sorts by that item column (ocols, orderCols).
func outputExprs(items []SelectItem, orderBy []OrderItem, ocols []int) []expr.Expr {
	exprs := make([]expr.Expr, 0, len(items)+len(orderBy))
	for _, it := range items {
		exprs = append(exprs, it.Expr)
	}
	for j, o := range orderBy {
		if ocols[j] >= 0 {
			exprs = append(exprs, nil)
		} else {
			exprs = append(exprs, o.Expr)
		}
	}
	return exprs
}

// outputCols turns the values of an output's expressions (outputExprs
// layout) into columns: each item's values widened into a column of its
// schema kind, each ORDER BY key's as a Boxed column.
func outputCols(vals [][]value.Value, schema relation.Schema) []*relation.Col {
	cols := make([]*relation.Col, len(vals))
	for i, v := range vals {
		switch {
		case i < len(schema):
			for r := range v {
				v[r] = widen(v[r], schema[i].Kind)
			}
			cols[i] = relation.ColOf(schema[i].Kind, v)
		case v != nil:
			cols[i] = relation.BoxedCol(v)
		}
	}
	return cols
}

// orderKeyCols picks an output's ORDER BY key columns out of its columns
// (outputExprs layout, m items): a key naming an output column sorts by
// that item column.
func orderKeyCols(ocols []int, cols []*relation.Col, m int) []*relation.Col {
	if len(ocols) == 0 {
		return nil
	}
	keys := make([]*relation.Col, len(ocols))
	for j, c := range ocols {
		if c < 0 {
			c = m + j
		}
		keys[j] = cols[c]
	}
	return keys
}

// execPlain projects the surviving rows idx into a column-built relation —
// source rows, or in grouped output the group relation's groups — and
// returns the ORDER BY key columns beside it. Where the scope allows, every
// item and key is a column from lanesOf: an item naming a typed source
// column shares it (idx nil) or gathers it, the others fill from batch
// programs. Otherwise, or when a batch lane errs, the interpreter evaluates
// every row in order, so the first error stays row-major across items and
// ORDER BY keys. Only output cells are boxed, never a source row.
func (x *stmtCtx) execPlain(stmt *SelectStmt, idx []int32) (*relation.Relation, []*relation.Col, error) {
	items, err := expandStars(x.src, stmt.Items)
	if err != nil {
		return nil, nil, err
	}
	schema, err := outputSchema(x.src, items)
	if err != nil {
		return nil, nil, err
	}
	ocols := orderCols(stmt.OrderBy, schema)
	exprs := outputExprs(items, stmt.OrderBy, ocols)
	m, n := len(items), x.lanes(idx)
	cols := make([]*relation.Col, len(exprs))
	ok := true
	for i, e := range exprs {
		switch {
		case i < m:
			cols[i], ok = x.lanesOf(e, idx, schema[i].Kind, true)
		case e != nil:
			cols[i], ok = x.lanesOf(e, idx, x.kindOf(e), false)
		}
		if !ok {
			if cols, err = x.plainRows(exprs, schema, idx); err != nil {
				return nil, nil, err
			}
			break
		}
	}
	return relation.FromColumns("result", schema, cols[:m], n), orderKeyCols(ocols, cols, m), nil
}

// plainRows is execPlain's interpreter loop: the output expressions
// (outputExprs layout) of every surviving row, in row-major order.
func (x *stmtCtx) plainRows(exprs []expr.Expr, schema relation.Schema, idx []int32) ([]*relation.Col, error) {
	sc := x.bind(exprs...)
	n := x.lanes(idx)
	vals := make([][]value.Value, len(exprs))
	for i, e := range exprs {
		if e != nil {
			vals[i] = make([]value.Value, n)
		}
	}
	env := sc.env(0)
	for r := 0; r < n; r++ {
		env.ri = rowAt(idx, r)
		for i, e := range exprs {
			if e == nil {
				continue
			}
			v, err := expr.Eval(e, env)
			if err != nil {
				return nil, err
			}
			vals[i][r] = v
		}
	}
	return outputCols(vals, schema), nil
}

// groupCtx computes the lifted aggregates and returns a context over the
// group relation, whose rows are the groups in first-appearance order: every
// source column at the group's first row (all NULL for the empty ungrouped
// group), followed by one "__agg_i" column per lifted aggregate. Each
// aggregate argument is one lane column (laneCols) and each aggregate one
// relation.GroupAggregate call for all groups, whose column joins the
// relation as it is, under the kind the aggregate declares. Every source
// column is gathered, not only the grouped ones: a correlated subquery in an
// item may read any of them. The context shares the statement's database,
// enclosing scope and subquery cache, so HAVING, the items and the ORDER BY
// keys run over it as over any source (filter, execPlain).
func (x *stmtCtx) groupCtx(gr *relation.Grouping, aggs []liftedAgg, idx []int32) (*stmtCtx, error) {
	args := make([]expr.Expr, 0, len(aggs))
	for _, a := range aggs {
		if !a.star {
			args = append(args, a.arg)
		}
	}
	cols, rows, _, err := x.laneCols(args, idx)
	if err != nil {
		return nil, err
	}
	n, ng := len(gr.IDs), gr.NumGroups()
	var gcols []*relation.Col
	if n == 0 && ng == 1 { // the empty ungrouped group
		gcols = make([]*relation.Col, len(x.src.cols))
		for i := range gcols {
			gcols[i] = relation.AllNullCol()
		}
	} else {
		first := make([]int32, ng)
		for g, f := range gr.First {
			first[g] = int32(rowAt(idx, int(f)))
		}
		gcols = relation.GatherCols(x.src.cols, first)
	}
	schema := x.src.rel.Schema.Clone()
	fallback := false
	for i, a := range aggs {
		var in *relation.Col
		var at []int32
		argKind := value.KindInt // COUNT(*)
		if !a.star {
			in, at = cols[0], rows[0]
			cols, rows = cols[1:], rows[1:]
			if k, err := expr.Check(a.arg, x.src.kind); err == nil {
				argKind = k
			}
		}
		res, seq, err := relation.GroupAggregate(a.fn, in, gr.IDs, at, n, ng)
		if err != nil {
			return nil, err
		}
		fallback = fallback || seq
		schema = append(schema, relation.Column{Name: aggPlaceholder(i), Kind: a.fn.ResultKind(argKind)})
		gcols = append(gcols, res)
	}
	if fallback {
		execMergeFallback.Inc()
	}
	grel := relation.FromColumns(x.src.rel.Name, schema, gcols, ng)
	return &stmtCtx{db: x.db, src: newSource(grel), outer: x.outer, subs: x.subs}, nil
}
