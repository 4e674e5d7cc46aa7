package sql

import (
	"errors"
	"strconv"
	"strings"

	"sheetmusiq/internal/expr"
	"sheetmusiq/internal/obs"
	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

// execMergeFallback counts grouped statements whose single-group aggregate
// accumulation stayed sequential because the chunked merge would not be
// bit-identical (relation.MergeExact), one increment per statement.
var execMergeFallback = obs.Default.Counter("sql.exec.merge_fallback")

// This file holds the executor's row loops, one per shape: WHERE, GROUP BY
// keys, aggregate arguments, plain output and grouped output (join ON and
// window inputs use the same scopes). A loop walks surviving source rows by
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

// scope binds the column names of one loop's expressions to slots of its
// evaluation row: the source columns, followed by nAggs lifted-aggregate
// slots in grouped output.
type scope struct {
	*stmtCtx
	nAggs    int
	slots    map[string]int // reference spelling → slot; -1 = enclosing scope
	parallel bool
}

// bind resolves every column reference of es once.
func (x *stmtCtx) bind(nAggs int, es ...expr.Expr) *scope {
	sc := &scope{stmtCtx: x, nAggs: nAggs, slots: map[string]int{}, parallel: x.outer == nil}
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

// resolve applies the lookup precedence: a lifted-aggregate placeholder
// ("__agg_3") names its slot, then the source's unique-suffix rule applies;
// -1 leaves the name to the enclosing scope.
func (sc *scope) resolve(name string) int {
	if i, ok := aggSlot(name); ok && i < sc.nAggs {
		return len(sc.src.rel.Schema) + i
	}
	if i, err := sc.src.resolve(name); err == nil {
		return i
	}
	return -1
}

// aggSlot parses a lifted-aggregate placeholder name ("__agg_3") into its
// index.
func aggSlot(name string) (int, bool) {
	l := strings.ToLower(name)
	if !strings.HasPrefix(l, "__agg_") {
		return 0, false
	}
	i, err := strconv.Atoi(l[len("__agg_"):])
	if err != nil || i < 0 {
		return 0, false
	}
	return i, true
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
// cell by cell from the source's typed columns (ri < 0 reads every source
// cell as NULL, the empty ungrouped group), followed by the lifted-aggregate
// slots aggs in grouped output. It also carries the statement's database
// and subquery cache so nested subqueries can execute (correlated names
// resolve innermost-first, then walk outward).
type rowEnv struct {
	sc   *scope
	ri   int
	aggs []value.Value
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
	cols := e.sc.src.cols
	switch {
	case i >= len(cols):
		return e.aggs[i-len(cols)], true
	case e.ri < 0:
		return value.Null, true
	}
	return cols[i].Value(e.ri), true
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
	sc := x.bind(0, pred)
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

// rowGroup is one GROUP BY partition in first-appearance order: the
// base-row indexes of its rows.
type rowGroup struct {
	rows []int32
}

// buildRowGroups partitions the surviving rows idx (nil = every source row)
// by the GROUP BY expression values (groupKeys), first-appearance order
// preserved. An aggregate query without GROUP BY yields one group even over
// empty input. The returned Grouping maps each lane of idx to its group ID,
// groups[g] holding the rows of ID g; the typed aggregate kernel consumes
// it directly.
func (x *stmtCtx) buildRowGroups(groupBy []expr.Expr, idx []int32) ([]*rowGroup, *relation.Grouping, error) {
	n := x.lanes(idx)
	rows := idx
	if rows == nil {
		rows = make([]int32, n)
		for i := range rows {
			rows[i] = int32(i)
		}
	}
	nG := len(groupBy)
	if nG == 0 {
		gr := &relation.Grouping{IDs: make([]int32, n), First: []int32{0}}
		return []*rowGroup{{rows: rows}}, gr, nil
	}
	gr, err := x.groupKeys(groupBy, idx, rows)
	if err != nil {
		return nil, nil, err
	}
	counts := make([]int, gr.NumGroups())
	for _, gid := range gr.IDs {
		counts[gid]++
	}
	groups := make([]*rowGroup, gr.NumGroups())
	for g := range groups {
		groups[g] = &rowGroup{rows: make([]int32, 0, counts[g])}
	}
	for i, gid := range gr.IDs {
		groups[gid].rows = append(groups[gid].rows, rows[i])
	}
	return groups, gr, nil
}

// groupKeys groups the surviving rows (lane i is source row rows[i]) by the
// GROUP BY values: the typed grouping kernel over key columns filled from
// batch programs where the scope allows, per-row key tuples through the
// interpreter otherwise. Both number groups identically.
func (x *stmtCtx) groupKeys(groupBy []expr.Expr, idx, rows []int32) (*relation.Grouping, error) {
	n, nG := len(rows), len(groupBy)
	keyCols := make([]*relation.Col, nG)
	plain := true // every key a source column: group them in place, through idx
	for k, g := range groupBy {
		if keyCols[k] = x.src.plainCol(g, x.kindOf(g)); keyCols[k] == nil {
			plain = false
			break
		}
	}
	if plain {
		return relation.GroupCols(keyCols, idx, n), nil
	}
	for k, g := range groupBy {
		col, ok := x.lanesOf(g, idx, x.kindOf(g), false)
		if !ok {
			keyCols = nil
			break
		}
		keyCols[k] = col
	}
	if keyCols != nil {
		return relation.GroupCols(keyCols, nil, n), nil
	}
	sc := x.bind(0, groupBy...)
	keyVals := make([]relation.Tuple, n)
	err := relation.RunChunks(sc.chunks(n), func(_, lo, hi int) error {
		env := sc.env(0)
		flat := make([]value.Value, (hi-lo)*nG)
		for i := lo; i < hi; i++ {
			env.ri = int(rows[i])
			key := flat[(i-lo)*nG : (i-lo+1)*nG : (i-lo+1)*nG]
			for k, g := range groupBy {
				v, err := expr.Eval(g, env)
				if err != nil {
					return err
				}
				key[k] = v
			}
			keyVals[i] = key
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return relation.GroupRowsOn(keyVals, nil), nil
}

// accumulateGroup computes every lifted aggregate over one group's rows,
// arguments evaluated in sc. With chunking enabled (the single-group case,
// where cross-group parallelism has nothing to chew on) the rows split into
// chunks whose partial accumulators merge in chunk order.
func accumulateGroup(sc *scope, aggs []liftedAgg, rows []int32, chunked bool) ([]value.Value, error) {
	accumulate := func(lo, hi int) ([]*relation.Accumulator, error) {
		accs := make([]*relation.Accumulator, len(aggs))
		for i, a := range aggs {
			accs[i] = relation.NewAccumulator(a.fn)
		}
		env := sc.env(0)
		for i := lo; i < hi; i++ {
			env.ri = int(rows[i])
			for ai, a := range aggs {
				v := value.NewInt(1)
				if !a.star {
					var err error
					if v, err = expr.Eval(a.arg, env); err != nil {
						return nil, err
					}
				}
				if err := accs[ai].Add(v); err != nil {
					return nil, err
				}
			}
		}
		return accs, nil
	}
	var accs []*relation.Accumulator
	bounds := relation.Chunks(len(rows))
	if !chunked || len(bounds) <= 1 {
		var err error
		if accs, err = accumulate(0, len(rows)); err != nil {
			return nil, err
		}
	} else {
		parts := make([][]*relation.Accumulator, len(bounds))
		err := relation.RunChunks(bounds, func(c, lo, hi int) error {
			a, err := accumulate(lo, hi)
			parts[c] = a
			return err
		})
		if err != nil {
			return nil, err
		}
		accs = parts[0]
		for _, p := range parts[1:] {
			for ai := range accs {
				accs[ai].Merge(p[ai])
			}
		}
	}
	results := make([]value.Value, len(aggs))
	for ai, acc := range accs {
		results[ai] = acc.Result()
	}
	return results, nil
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

// orderKeys evaluates the ORDER BY keys of one output row: output-column
// references read the produced tuple, everything else evaluates in env.
func orderKeys(orderBy []OrderItem, cols []int, tuple relation.Tuple, env expr.Env) ([]value.Value, error) {
	if len(orderBy) == 0 {
		return nil, nil
	}
	keys := make([]value.Value, len(orderBy))
	for i, o := range orderBy {
		if cols[i] >= 0 {
			keys[i] = tuple[cols[i]]
			continue
		}
		v, err := expr.Eval(o.Expr, env)
		if err != nil {
			return nil, err
		}
		keys[i] = v
	}
	return keys, nil
}

// execPlain projects without grouping into a column-built relation, and
// computes the ORDER BY keys per row. Where the scope allows, every item
// and key is a column from lanesOf: an item naming a typed source column
// shares it (idx nil) or gathers it, the others fill from batch programs.
// Otherwise, or when a batch lane errs, the interpreter evaluates every row
// in order, so the first error stays row-major across items and ORDER BY
// keys. Only output cells are boxed, never a source row.
func (x *stmtCtx) execPlain(stmt *SelectStmt, idx []int32) (*relation.Relation, [][]value.Value, error) {
	items, err := expandStars(x.src, stmt.Items)
	if err != nil {
		return nil, nil, err
	}
	schema, err := outputSchema(x.src, items)
	if err != nil {
		return nil, nil, err
	}
	orderBy := stmt.OrderBy
	ocols := orderCols(orderBy, schema)
	m, n := len(items), x.lanes(idx)
	cols := make([]*relation.Col, m+len(orderBy)) // items, then keys not naming an output column
	ok := true
	for i := 0; i < len(cols) && ok; i++ {
		switch {
		case i < m:
			cols[i], ok = x.lanesOf(items[i].Expr, idx, schema[i].Kind, true)
		case ocols[i-m] < 0:
			e := orderBy[i-m].Expr
			cols[i], ok = x.lanesOf(e, idx, x.kindOf(e), false)
		}
	}
	var sortVals [][]value.Value
	if !ok {
		if cols, sortVals, err = x.plainRows(items, orderBy, ocols, schema, idx); err != nil {
			return nil, nil, err
		}
	}
	out := relation.FromColumns("result", schema, cols[:m], n)
	if len(orderBy) == 0 || sortVals != nil {
		return out, sortVals, nil
	}
	sortVals = make([][]value.Value, n)
	k := len(orderBy)
	flat := make([]value.Value, n*k)
	for r := range sortVals {
		keys := flat[r*k : (r+1)*k : (r+1)*k]
		for j, c := range ocols {
			if c < 0 {
				c = m + j
			}
			keys[j] = cols[c].Value(r)
		}
		sortVals[r] = keys
	}
	return out, sortVals, nil
}

// plainRows is execPlain's interpreter loop: the items and ORDER BY keys of
// every surviving row, in row-major order, returned as the item columns and
// the per-row keys.
func (x *stmtCtx) plainRows(items []SelectItem, orderBy []OrderItem, ocols []int, schema relation.Schema, idx []int32) ([]*relation.Col, [][]value.Value, error) {
	exprs := make([]expr.Expr, 0, len(items)+len(orderBy))
	for _, it := range items {
		exprs = append(exprs, it.Expr)
	}
	for _, o := range orderBy {
		exprs = append(exprs, o.Expr)
	}
	sc := x.bind(0, exprs...)
	m, n := len(items), x.lanes(idx)
	vals := make([][]value.Value, m)
	for i := range vals {
		vals[i] = make([]value.Value, n)
	}
	var sortVals [][]value.Value
	if len(orderBy) > 0 {
		sortVals = make([][]value.Value, n)
	}
	env := sc.env(0)
	tuple := make(relation.Tuple, m)
	for r := 0; r < n; r++ {
		env.ri = rowAt(idx, r)
		for i, it := range items {
			v, err := expr.Eval(it.Expr, env)
			if err != nil {
				return nil, nil, err
			}
			tuple[i] = widen(v, schema[i].Kind)
			vals[i][r] = tuple[i]
		}
		if sortVals != nil {
			keys, err := orderKeys(orderBy, ocols, tuple, env)
			if err != nil {
				return nil, nil, err
			}
			sortVals[r] = keys
		}
	}
	cols := make([]*relation.Col, m)
	for i := range cols {
		cols[i] = relation.ColOf(schema[i].Kind, vals[i])
	}
	return cols, sortVals, nil
}

// groupOutput evaluates the lifted aggregates, HAVING, the select items and
// the ORDER BY keys per group. Aggregate arguments evaluate over source
// rows; HAVING, items and keys over the extended row of a representative
// source row followed by one slot per lifted aggregate. Groups process in
// parallel chunks (chunk-local outputs concatenated in chunk order); the
// single-group case chunks the aggregate accumulation instead.
//
// When every lifted aggregate's argument is a plain column reference (or
// COUNT(*)), the aggregates compute
// up front through the typed grouped-aggregation kernel — all groups at
// once over the column payloads — and the per-group loop only reads the
// results.
func (x *stmtCtx) groupOutput(groups []*rowGroup, gr *relation.Grouping, aggs []liftedAgg, items []SelectItem, having expr.Expr, orderBy []OrderItem, schema relation.Schema, idx []int32) (*relation.Relation, [][]value.Value, error) {
	args := make([]expr.Expr, 0, len(aggs))
	chunkSafe := true
	for _, a := range aggs {
		if a.star {
			continue
		}
		args = append(args, a.arg)
		// Chunked accumulation must be bit-identical to the sequential
		// scan; float-stream summing is not (addition re-associates), so
		// any such aggregate keeps the whole pass sequential.
		in, err := expr.Check(a.arg, x.src.kind)
		if err != nil || !relation.MergeExact(a.fn, in) {
			chunkSafe = false
		}
	}
	if !chunkSafe {
		execMergeFallback.Inc()
	}
	argScope := x.bind(0, args...)
	exprs := []expr.Expr{having}
	for _, it := range items {
		exprs = append(exprs, it.Expr)
	}
	for _, o := range orderBy {
		exprs = append(exprs, o.Expr)
	}
	extScope := x.bind(len(aggs), exprs...)

	// Typed grouped aggregation: with the row→group map in hand, every
	// argument (COUNT(*) has none) fills a column through lanesOf and feeds
	// the typed kernel for all groups at once. The engagement is
	// all-or-nothing so the boxed per-group loop below stays the single
	// fallback, and reports the exact error when a batch lane errs.
	var aggResults [][]value.Value // [agg][group]
	if x.outer == nil && len(aggs) > 0 {
		cols := make([]*relation.Col, len(aggs))
		rows := make([][]int32, len(aggs)) // idx for a source column, nil for a filled one
		typedOK := true
		for i, a := range aggs {
			if a.star {
				continue // COUNT(*): no argument column
			}
			kind := x.kindOf(a.arg)
			if cols[i] = x.src.plainCol(a.arg, kind); cols[i] != nil {
				rows[i] = idx
				continue
			}
			if cols[i], typedOK = x.lanesOf(a.arg, idx, kind, false); !typedOK {
				break
			}
		}
		if typedOK {
			aggResults = make([][]value.Value, len(aggs))
			for i, a := range aggs {
				res, _, err := relation.GroupAggregate(a.fn, cols[i], gr.IDs, rows[i], len(gr.IDs), len(groups))
				if errors.Is(err, relation.ErrNotVectorizable) {
					aggResults = nil
					break
				}
				if err != nil {
					return nil, nil, err
				}
				aggResults[i] = res
			}
		}
	}

	out := relation.New("result", schema)
	ocols := orderCols(orderBy, out.Schema)
	type part struct {
		rows []relation.Tuple
		keys [][]value.Value
	}
	parallel := argScope.parallel && extScope.parallel
	bounds := [][2]int{{0, len(groups)}}
	if parallel {
		bounds = relation.Chunks(len(groups))
	}
	parts := make([]part, len(bounds))
	chunkRows := len(groups) == 1 && chunkSafe && parallel
	err := relation.RunChunks(bounds, func(c, lo, hi int) error {
		p := &parts[c]
		env := extScope.env(0)
		for gi := lo; gi < hi; gi++ {
			grp := groups[gi]
			var results []value.Value
			if aggResults != nil {
				results = make([]value.Value, len(aggs))
				for ai := range aggResults {
					results[ai] = aggResults[ai][gi]
				}
			} else {
				var err error
				if results, err = accumulateGroup(argScope, aggs, grp.rows, chunkRows); err != nil {
					return err
				}
			}
			// Extended row: a representative source row (all NULL for the
			// empty ungrouped group) followed by the aggregate results.
			env.ri, env.aggs = -1, results
			if len(grp.rows) > 0 {
				env.ri = int(grp.rows[0])
			}
			if having != nil {
				ok, err := expr.EvalBool(having, env)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			}
			tuple := make(relation.Tuple, len(items))
			for i, it := range items {
				v, err := expr.Eval(it.Expr, env)
				if err != nil {
					return err
				}
				tuple[i] = widen(v, schema[i].Kind)
			}
			keys, err := orderKeys(orderBy, ocols, tuple, env)
			if err != nil {
				return err
			}
			p.rows = append(p.rows, tuple)
			p.keys = append(p.keys, keys)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sortVals := make([][]value.Value, 0, len(groups))
	for _, p := range parts {
		out.Rows = append(out.Rows, p.rows...)
		sortVals = append(sortVals, p.keys...)
	}
	return out, sortVals, nil
}
