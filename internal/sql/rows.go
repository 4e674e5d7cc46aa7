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
// window inputs use the same scopes). Every loop binds the names of its
// expressions to row slots once (scope) and evaluates rows through the
// interpreter, expr.Eval, with no per-row name search. Where the rows still
// line up with the source's typed columns, a batch program runs first and
// only the row it flags as erring re-runs through the interpreter, which
// yields the exact error.
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

// env returns an evaluation Env over row. Loops reuse one per chunk by
// resetting its row.
func (sc *scope) env(row relation.Tuple) *rowEnv { return &rowEnv{sc: sc, row: row} }

// rowEnv evaluates expressions over one row of a scope. It also carries the
// statement's database and subquery cache so nested subqueries can execute
// (correlated names resolve innermost-first, then walk outward).
type rowEnv struct {
	sc  *scope
	row relation.Tuple
}

// Lookup implements expr.Env. Names outside the bound set (a nested
// subquery's correlation variables) resolve on the spot.
func (e *rowEnv) Lookup(name string) (value.Value, bool) {
	i, ok := e.sc.slots[name]
	if !ok {
		i = e.sc.resolve(name)
	}
	if i >= 0 {
		return e.row[i], true
	}
	if e.sc.outer != nil {
		return e.sc.outer.Lookup(name)
	}
	return value.Null, false
}

// filter keeps the rows pred accepts, in order. Where the rows align with
// the source's typed columns, a batch program selects each chunk straight
// from the column vectors — no boxed row is touched — and the surviving
// base-row indexes come back for downstream batch programs (nil otherwise).
func (x *stmtCtx) filter(pred expr.Expr, rows []relation.Tuple, aligned bool) ([]relation.Tuple, []int32, error) {
	sc := x.bind(0, pred)
	var bp *expr.BatchProgram
	if aligned && sc.parallel {
		bp, _ = expr.CompileBatch(pred, x.src.batchResolve)
	}
	n := len(rows)
	dst := make([]int32, n)
	bounds := sc.chunks(n)
	counts := make([]int, len(bounds))
	err := relation.RunChunks(bounds, func(c, lo, hi int) error {
		env := sc.env(nil)
		if bp != nil {
			cnt, bad := bp.SelectInto(nil, lo, hi, dst[lo:])
			if bad >= 0 {
				env.row = rows[bad]
				return bp.RowError(env, true)
			}
			counts[c] = cnt
			return nil
		}
		w := lo
		for i := lo; i < hi; i++ {
			env.row = rows[i]
			ok, err := expr.EvalBool(pred, env)
			if err != nil {
				return err
			}
			if ok {
				dst[w] = int32(i)
				w++
			}
		}
		counts[c] = w - lo
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	w := 0
	if len(bounds) > 0 {
		w = counts[0]
		for c := 1; c < len(bounds); c++ {
			lo := bounds[c][0]
			copy(dst[w:], dst[lo:lo+counts[c]])
			w += counts[c]
		}
	}
	kept := make([]relation.Tuple, w)
	for i, ri := range dst[:w] {
		kept[i] = rows[ri]
	}
	if bp == nil {
		return kept, nil, nil
	}
	return kept, dst[:w:w], nil
}

// rowGroup is one GROUP BY partition in first-appearance order.
type rowGroup struct {
	rows []relation.Tuple
}

// buildRowGroups partitions the filtered rows by the GROUP BY expression
// values: per-row key tuples, then the batch hash kernel (first-appearance
// order preserved). An aggregate query without GROUP BY yields one group
// even over empty input. The returned Grouping maps each row of rows to its
// group ID, groups[g] holding the rows of ID g; the typed aggregate kernel
// consumes it directly.
func (x *stmtCtx) buildRowGroups(groupBy []expr.Expr, rows []relation.Tuple) ([]*rowGroup, *relation.Grouping, error) {
	nG := len(groupBy)
	if nG == 0 {
		gr := &relation.Grouping{IDs: make([]int32, len(rows)), First: []int32{0}}
		return []*rowGroup{{rows: rows}}, gr, nil
	}
	sc := x.bind(0, groupBy...)
	keyVals := make([]relation.Tuple, len(rows))
	err := relation.RunChunks(sc.chunks(len(rows)), func(_, lo, hi int) error {
		env := sc.env(nil)
		for ri := lo; ri < hi; ri++ {
			env.row = rows[ri]
			key := make(relation.Tuple, nG)
			for i, g := range groupBy {
				v, err := expr.Eval(g, env)
				if err != nil {
					return err
				}
				key[i] = v
			}
			keyVals[ri] = key
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	gr := relation.GroupRowsOn(keyVals, nil)
	counts := make([]int, gr.NumGroups())
	for _, gid := range gr.IDs {
		counts[gid]++
	}
	groups := make([]*rowGroup, gr.NumGroups())
	for g := range groups {
		groups[g] = &rowGroup{rows: make([]relation.Tuple, 0, counts[g])}
	}
	for ri, gid := range gr.IDs {
		groups[gid].rows = append(groups[gid].rows, rows[ri])
	}
	return groups, gr, nil
}

// accumulateGroup computes every lifted aggregate over one group's rows,
// arguments evaluated in sc. With chunking enabled (the single-group case,
// where cross-group parallelism has nothing to chew on) the rows split into
// chunks whose partial accumulators merge in chunk order.
func accumulateGroup(sc *scope, aggs []liftedAgg, rows []relation.Tuple, chunked bool) ([]value.Value, error) {
	accumulate := func(lo, hi int) ([]*relation.Accumulator, error) {
		accs := make([]*relation.Accumulator, len(aggs))
		for i, a := range aggs {
			accs[i] = relation.NewAccumulator(a.fn)
		}
		env := sc.env(nil)
		for ri := lo; ri < hi; ri++ {
			env.row = rows[ri]
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

// execPlain projects without grouping: the select items and the ORDER BY
// keys per row, output slots pre-sized so chunks write disjoint indexes.
// When the rows still align with the source's typed columns (idx holds their
// base-row indexes; nil means identity) the items fill positional value
// vectors from batch programs first; rows from a chunk's first erring lane
// on evaluate through the interpreter, so the first error stays row-major
// across items and ORDER BY keys.
func (x *stmtCtx) execPlain(stmt *SelectStmt, rows []relation.Tuple, idx []int32, aligned bool) (*relation.Relation, [][]value.Value, error) {
	items, err := expandStars(x.src, stmt.Items)
	if err != nil {
		return nil, nil, err
	}
	schema, err := outputSchema(x.src, items)
	if err != nil {
		return nil, nil, err
	}
	orderBy := stmt.OrderBy
	exprs := make([]expr.Expr, 0, len(items)+len(orderBy))
	for _, it := range items {
		exprs = append(exprs, it.Expr)
	}
	for _, o := range orderBy {
		exprs = append(exprs, o.Expr)
	}
	sc := x.bind(0, exprs...)
	var bps []*expr.BatchProgram
	var itemVals [][]value.Value
	if aligned && sc.parallel {
		bps = make([]*expr.BatchProgram, len(items))
		itemVals = make([][]value.Value, len(items))
		for i, it := range items {
			if bps[i], err = expr.CompileBatch(it.Expr, x.src.batchResolve); err != nil {
				bps = nil // unreachable: only subqueries decline, and they run sequentially
				break
			}
			itemVals[i] = make([]value.Value, len(rows))
		}
	}
	out := relation.New("result", schema)
	ocols := orderCols(orderBy, out.Schema)
	out.Rows = make([]relation.Tuple, len(rows))
	sortVals := make([][]value.Value, len(rows))
	m := len(items)
	err = relation.RunChunks(sc.chunks(len(rows)), func(_, lo, hi int) error {
		first := lo // rows from first on evaluate through the interpreter
		if bps != nil {
			first = hi
			for i, bp := range bps {
				if bad := bp.EvalPos(idx, lo, hi, schema[i].Kind, itemVals[i]); bad >= 0 && bad < first {
					first = bad
				}
			}
		}
		flat := make([]value.Value, (hi-lo)*m)
		env := sc.env(nil)
		for ri := lo; ri < hi; ri++ {
			env.row = rows[ri]
			tuple := flat[(ri-lo)*m : (ri-lo+1)*m : (ri-lo+1)*m]
			for i, it := range items {
				if ri < first {
					tuple[i] = itemVals[i][ri]
					continue
				}
				v, err := expr.Eval(it.Expr, env)
				if err != nil {
					return err
				}
				tuple[i] = widen(v, schema[i].Kind)
			}
			out.Rows[ri] = tuple
			keys, err := orderKeys(orderBy, ocols, tuple, env)
			if err != nil {
				return err
			}
			sortVals[ri] = keys
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return out, sortVals, nil
}

// groupOutput evaluates the lifted aggregates, HAVING, the select items and
// the ORDER BY keys per group. Aggregate arguments evaluate over source
// rows; HAVING, items and keys over the extended row of a representative
// source row followed by one slot per lifted aggregate. Groups process in
// parallel chunks (chunk-local outputs concatenated in chunk order); the
// single-group case chunks the aggregate accumulation instead.
//
// When the rows still align with the source's typed columns (idx holds their
// base-row indexes; nil means identity) and every lifted aggregate's
// argument is a plain column reference (or COUNT(*)), the aggregates compute
// up front through the typed grouped-aggregation kernel — all groups at
// once over the column payloads — and the per-group loop only reads the
// results.
func (x *stmtCtx) groupOutput(groups []*rowGroup, gr *relation.Grouping, aggs []liftedAgg, items []SelectItem, having expr.Expr, orderBy []OrderItem, schema relation.Schema, idx []int32, aligned bool, nRows int) (*relation.Relation, [][]value.Value, error) {
	nSrc := len(x.src.rel.Schema)
	args := make([]expr.Expr, 0, len(aggs))
	chunkSafe := true
	kindOf := func(name string) (value.Kind, bool) {
		i, err := x.src.resolve(name)
		if err != nil {
			return value.KindNull, false
		}
		return x.src.rel.Schema[i].Kind, true
	}
	for _, a := range aggs {
		if a.star {
			continue
		}
		args = append(args, a.arg)
		// Chunked accumulation must be bit-identical to the sequential
		// scan; float-stream summing is not (addition re-associates), so
		// any such aggregate keeps the whole pass sequential.
		in, err := expr.Check(a.arg, kindOf)
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

	// Typed grouped aggregation: with the row→group map in hand and the rows
	// still aligned to the source columns, column-reference arguments (and
	// COUNT(*)) feed the typed kernel over the column payloads for all groups
	// at once. The engagement is all-or-nothing so the boxed per-group loop
	// below stays the single fallback.
	var aggResults [][]value.Value // [agg][group]
	if aligned && x.outer == nil && len(aggs) > 0 {
		cols := make([]*relation.Col, len(aggs))
		typedOK := true
		for i, a := range aggs {
			if a.star {
				continue // COUNT(*): no argument column
			}
			ref, ok := a.arg.(*expr.ColumnRef)
			if ok {
				cols[i], ok = x.src.batchResolve(ref.Name)
			}
			if !ok {
				typedOK = false
				break
			}
		}
		if typedOK {
			aggResults = make([][]value.Value, len(aggs))
			for i, a := range aggs {
				res, _, err := relation.GroupAggregate(a.fn, cols[i], gr.IDs, idx, nRows, len(groups))
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
		env := extScope.env(nil)
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
			ext := make(relation.Tuple, nSrc+len(aggs))
			if len(grp.rows) > 0 {
				copy(ext, grp.rows[0])
			}
			copy(ext[nSrc:], results)
			env.row = ext
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
