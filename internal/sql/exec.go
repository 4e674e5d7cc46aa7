package sql

import (
	"fmt"
	"strings"

	"sheetmusiq/internal/expr"
	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

// DB is a named collection of base relations queries execute against.
type DB struct {
	tables map[string]*relation.Relation
	// subqueryRuns counts actual nested-statement executions (cache misses
	// included, cache hits not); exposed for tests and ablations.
	subqueryRuns int
	// DisablePushdown turns off predicate pushdown (see optimize.go); for
	// ablation benchmarks.
	DisablePushdown bool
}

// SubqueryRuns reports how many nested statements have actually executed
// on this DB since creation (memoised re-uses are not counted).
func (db *DB) SubqueryRuns() int { return db.subqueryRuns }

// NewDB returns an empty database.
func NewDB() *DB { return &DB{tables: map[string]*relation.Relation{}} }

// Register installs (or replaces) a table under its relation name.
func (db *DB) Register(r *relation.Relation) { db.tables[strings.ToLower(r.Name)] = r }

// Table returns a registered table.
func (db *DB) Table(name string) (*relation.Relation, bool) {
	r, ok := db.tables[strings.ToLower(name)]
	return r, ok
}

// Names lists registered tables.
func (db *DB) Names() []string {
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	return out
}

// Query parses and executes one SELECT statement.
func (db *DB) Query(src string) (*relation.Relation, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return db.Exec(stmt)
}

// Exec executes a parsed statement.
func (db *DB) Exec(stmt *SelectStmt) (*relation.Relation, error) {
	return db.execOuter(stmt, nil)
}

// execOuter executes a statement with an optional enclosing row scope, the
// mechanism behind correlated subqueries: names that do not resolve in the
// statement's own FROM sources fall back to the outer row.
func (db *DB) execOuter(stmt *SelectStmt, outer expr.Env) (*relation.Relation, error) {
	filters, residual := db.pushdown(stmt)
	src, err := db.evalFromFiltered(stmt.From, filters, outer)
	if err != nil {
		return nil, err
	}
	if len(filters) > 0 {
		reduced := *stmt
		reduced.Where = residual
		return execOn(db, src, &reduced, outer)
	}
	return execOn(db, src, stmt, outer)
}

// source is the FROM result: a column-built relation whose columns carry
// fully qualified names ("alias.col"); lookups resolve bare names by unique
// suffix match. cols are rel's typed column vectors: every row loop and
// batch program reads cells from them, by base-row index.
type source struct {
	rel  *relation.Relation
	cols []*relation.Col
}

// newSource wraps a column-built relation.
func newSource(rel *relation.Relation) *source {
	return &source{rel: rel, cols: rel.Columns()}
}

// batchResolve exposes the source's typed columns to the vectorized
// expression compiler under the source's name-resolution rules.
func (s *source) batchResolve(name string) (*relation.Col, bool) {
	i, err := s.resolve(name)
	if err != nil {
		return nil, false
	}
	return s.cols[i], true
}

// kind resolves a name to its column's kind, the resolver expr.Check takes.
func (s *source) kind(name string) (value.Kind, bool) {
	i, err := s.resolve(name)
	if err != nil {
		return value.KindNull, false
	}
	return s.rel.Schema[i].Kind, true
}

// plainCol returns the typed column e names when e is a plain column
// reference whose cells already are the output column of the given kind —
// so the output can share or gather it — and nil otherwise.
func (s *source) plainCol(e expr.Expr, kind value.Kind) *relation.Col {
	ref, ok := e.(*expr.ColumnRef)
	if !ok {
		return nil
	}
	col, ok := s.batchResolve(ref.Name)
	if !ok || col.Boxed != nil || col.Kind != kind {
		return nil
	}
	return col
}

// resolve maps a (possibly qualified) name to a column index by the source
// rule (resolveIn).
func (s *source) resolve(name string) (int, error) { return resolveIn(s.rel.Schema, name) }

// resolveIn maps a (possibly qualified) name to its index in a source
// schema: the exact name, else the unique column whose name ends in
// "." + name.
func resolveIn(schema relation.Schema, name string) (int, error) {
	if i := schema.IndexOf(name); i >= 0 {
		return i, nil
	}
	suffix := "." + strings.ToLower(name)
	found := -1
	for i, c := range schema {
		if strings.HasSuffix(strings.ToLower(c.Name), suffix) {
			if found >= 0 {
				return -1, fmt.Errorf("sql: ambiguous column %q", name)
			}
			found = i
		}
	}
	if found < 0 {
		return -1, fmt.Errorf("sql: unknown column %q", name)
	}
	return found, nil
}

// subState memoises one subquery node for the lifetime of the enclosing
// statement execution: the materialised FROM sources (correlation is not
// allowed in FROM, so they never change) and, keyed by the values of the
// subquery's free variables, its full results. An uncorrelated subquery
// therefore executes exactly once; a correlated one executes once per
// distinct outer key instead of once per outer row.
type subState struct {
	src      *source
	freeVars []string
	cache    map[string]*relation.Relation
	disable  bool // nested subqueries inside: correlation keys could span scopes
}

// EvalSubquery implements expr.SubqueryEvaluator: the nested statement runs
// with this row as its enclosing scope, memoised per distinct correlation
// key.
func (e *rowEnv) EvalSubquery(sub *expr.Subquery) (*relation.Relation, error) {
	stmt, ok := sub.Stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: malformed subquery node")
	}
	db := e.sc.db
	if e.sc.subs == nil {
		db.subqueryRuns++
		return db.execOuter(stmt, e)
	}
	st := e.sc.subs[sub]
	if st == nil {
		src, err := db.evalFrom(stmt.From)
		if err != nil {
			return nil, err
		}
		st = &subState{src: src, cache: map[string]*relation.Relation{}}
		st.freeVars, st.disable = freeVars(stmt, src)
		e.sc.subs[sub] = st
	}
	if st.disable {
		db.subqueryRuns++
		return execOn(db, st.src, stmt, e)
	}
	var kb strings.Builder
	for _, name := range st.freeVars {
		v, ok := e.Lookup(name)
		if !ok {
			// Unresolvable name: let execution surface the real error.
			return execOn(db, st.src, stmt, e)
		}
		kb.WriteString(v.Key())
		kb.WriteByte('\x1f')
	}
	key := kb.String()
	if res, ok := st.cache[key]; ok {
		return res, nil
	}
	db.subqueryRuns++
	res, err := execOn(db, st.src, stmt, e)
	if err != nil {
		return nil, err
	}
	st.cache[key] = res
	return res, nil
}

// freeVars lists the column names a statement references that do not
// resolve against its own FROM sources or output aliases — its correlation
// variables. When the statement nests further subqueries, caching is
// disabled (their correlation could reach past this scope).
func freeVars(stmt *SelectStmt, src *source) (vars []string, disable bool) {
	bound := map[string]bool{}
	for _, it := range stmt.Items {
		if !it.Star {
			bound[strings.ToLower(it.Name())] = true
		}
	}
	seen := map[string]bool{}
	collect := func(e expr.Expr) {
		if e == nil {
			return
		}
		if expr.ContainsSubquery(e) {
			disable = true
			return
		}
		for _, c := range expr.Columns(e) {
			lc := strings.ToLower(c)
			if strings.HasPrefix(lc, "__agg_") || bound[lc] || seen[lc] {
				continue
			}
			if _, err := src.resolve(c); err == nil {
				continue
			}
			seen[lc] = true
			vars = append(vars, c)
		}
	}
	for _, it := range stmt.Items {
		if !it.Star {
			collect(it.Expr)
		}
	}
	collect(stmt.Where)
	for _, g := range stmt.GroupBy {
		collect(g)
	}
	collect(stmt.Having)
	for _, o := range stmt.OrderBy {
		collect(o.Expr)
	}
	return vars, disable
}

// evalFrom materialises a FROM tree into a qualified-name relation.
func (db *DB) evalFrom(f FromItem) (*source, error) {
	return db.evalFromFiltered(f, nil, nil)
}

// evalFromFiltered materialises a FROM tree, applying any pushed-down
// per-alias filters as each source appears.
func (db *DB) evalFromFiltered(f FromItem, filters map[string][]expr.Expr, outer expr.Env) (*source, error) {
	switch t := f.(type) {
	case *TableRef:
		base, ok := db.Table(t.Name)
		if !ok {
			return nil, fmt.Errorf("sql: unknown table %q", t.Name)
		}
		alias := t.Alias
		if alias == "" {
			alias = t.Name
		}
		src := qualify(base, alias)
		if err := applyFilter(db, src, filters[strings.ToLower(alias)], outer); err != nil {
			return nil, err
		}
		return src, nil
	case *SubqueryRef:
		inner, err := db.Exec(t.Stmt)
		if err != nil {
			return nil, err
		}
		src := qualify(inner, t.Alias)
		if err := applyFilter(db, src, filters[strings.ToLower(t.Alias)], outer); err != nil {
			return nil, err
		}
		return src, nil
	case *JoinRef:
		left, err := db.evalFromFiltered(t.Left, filters, outer)
		if err != nil {
			return nil, err
		}
		right, err := db.evalFromFiltered(t.Right, filters, outer)
		if err != nil {
			return nil, err
		}
		return joinSources(left, right, t.On)
	}
	return nil, fmt.Errorf("sql: unsupported FROM item %T", f)
}

// qualify renames every column of rel to "alias.col", sharing rel's typed
// columns.
func qualify(rel *relation.Relation, alias string) *source {
	schema := make(relation.Schema, len(rel.Schema))
	for i, c := range rel.Schema {
		name := c.Name
		if j := strings.LastIndexByte(name, '.'); j >= 0 {
			name = name[j+1:]
		}
		schema[i] = relation.Column{Name: alias + "." + name, Kind: c.Kind}
	}
	return newSource(relation.FromColumns(alias, schema, rel.Columns(), rel.Len()))
}

// joinSources computes left ⋈ right over typed columns through
// expr.JoinOn: the equi-hash-join kernel when the ON clause carries
// equality conjuncts between the two sides, the theta-join's filtered
// product otherwise. Keys and filter resolve names by the source rule
// (resolveIn) over the joined schema — source names never collide
// (checked here), so that is exactly the kernels' product layout. An ON
// clause nesting a subquery is refused before joining: the join has no
// statement scope to run it in.
func joinSources(left, right *source, on expr.Expr) (*source, error) {
	schema := append(left.rel.Schema.Clone(), right.rel.Schema...)
	seen := map[string]bool{}
	for _, c := range schema {
		k := strings.ToLower(c.Name)
		if seen[k] {
			return nil, fmt.Errorf("sql: duplicate source name %q; alias the tables", c.Name)
		}
		seen[k] = true
	}
	if on != nil && expr.ContainsSubquery(on) {
		return nil, fmt.Errorf("sql: subqueries are not supported in this context")
	}
	j, err := expr.JoinOn(left.rel, right.rel, on, func(name string) (int, bool) {
		i, err := resolveIn(schema, name)
		return i, err == nil
	})
	if err != nil {
		return nil, err
	}
	j.Name = left.rel.Name + "_" + right.rel.Name
	return newSource(j), nil
}

// execOn runs the SELECT body against a materialised source. idx tracks the
// surviving rows by base-row index (nil = every source row); every stage
// reads their cells from the source's typed columns through it.
func execOn(db *DB, src *source, stmt *SelectStmt, outer expr.Env) (*relation.Relation, error) {
	// The subquery cache lives for this statement execution.
	x := &stmtCtx{db: db, src: src, outer: outer, subs: map[*expr.Subquery]*subState{}}
	var idx []int32
	if stmt.Where != nil {
		if expr.ContainsAggregate(stmt.Where) {
			return nil, fmt.Errorf("sql: aggregates are not allowed in WHERE")
		}
		if expr.ContainsWindow(stmt.Where) {
			return nil, fmt.Errorf("sql: window functions are not allowed in WHERE")
		}
		var err error
		if idx, err = x.filter(stmt.Where, nil); err != nil {
			return nil, err
		}
	}

	grouped := len(stmt.GroupBy) > 0 || stmt.Having != nil || hasAggregates(stmt)
	if hasWindows(stmt) {
		if grouped {
			return nil, fmt.Errorf("sql: window functions cannot be combined with GROUP BY, HAVING or aggregates")
		}
		var werr error
		if stmt, werr = x.applyWindows(stmt, idx); werr != nil {
			return nil, werr
		}
	}
	// keys are the ORDER BY key columns, one cell per output row.
	var out *relation.Relation
	var keys []*relation.Col
	var err error
	if grouped {
		out, keys, err = x.execGrouped(stmt, idx)
	} else {
		out, keys, err = x.execPlain(stmt, idx)
	}
	if err != nil {
		return nil, err
	}

	if stmt.Distinct {
		out, keys = distinctRows(out, keys)
	}
	if len(stmt.OrderBy) > 0 {
		out = sortOutput(out, keys, stmt.OrderBy)
	}
	if n := out.Len(); stmt.Offset > 0 || (stmt.Limit >= 0 && stmt.Limit < n) {
		lo := min(stmt.Offset, n)
		hi := n
		if stmt.Limit >= 0 {
			hi = min(lo+stmt.Limit, n)
		}
		keep := make([]int32, hi-lo)
		for i := range keep {
			keep[i] = int32(lo + i)
		}
		out = out.Pick(keep)
	}
	return out, nil
}

func hasAggregates(stmt *SelectStmt) bool {
	for _, it := range stmt.Items {
		if !it.Star && expr.ContainsAggregate(it.Expr) {
			return true
		}
	}
	for _, o := range stmt.OrderBy {
		if expr.ContainsAggregate(o.Expr) {
			return true
		}
	}
	return stmt.Having != nil && expr.ContainsAggregate(stmt.Having)
}

// execGrouped evaluates GROUP BY / aggregate queries over the surviving rows
// idx (nil = every source row), in Theorem 1's shape: the lifted aggregates
// become columns of the group relation (groupCtx), HAVING filters its rows,
// and the items and ORDER BY keys are the plain projection of the rows that
// pass (execPlain). Each phase reports its own row-major first error: GROUP
// BY keys, aggregate arguments, HAVING, output.
func (x *stmtCtx) execGrouped(stmt *SelectStmt, idx []int32) (*relation.Relation, []*relation.Col, error) {
	for _, it := range stmt.Items {
		if it.Star {
			return nil, nil, fmt.Errorf("sql: * is not allowed with GROUP BY or aggregates")
		}
	}
	// Group rows by the GROUP BY expression values.
	gr, err := x.groupRows(stmt.GroupBy, idx)
	if err != nil {
		return nil, nil, err
	}

	// Collect every aggregate call appearing in the statement. An unaliased
	// item keeps its own spelling as its output name (Name() of the lifted
	// item would read "__agg_0").
	named := *stmt
	named.Items = make([]SelectItem, len(stmt.Items))
	for i, it := range stmt.Items {
		if it.Alias == "" {
			it.Alias = it.Name()
		}
		named.Items[i] = it
	}
	aggs, items, having, orderBy, err := liftAggregates(&named)
	if err != nil {
		return nil, nil, err
	}

	// Validate that non-aggregate expressions only reference columns that
	// feed some GROUP BY expression (a practical approximation of the SQL
	// functional-dependency rule; DESIGN.md documents the looseness).
	groupCols := map[string]bool{}
	for _, g := range stmt.GroupBy {
		for _, c := range expr.Columns(g) {
			groupCols[strings.ToLower(c)] = true
			if i := strings.LastIndexByte(c, '.'); i >= 0 {
				groupCols[strings.ToLower(c[i+1:])] = true
			}
		}
	}
	checkGrouped := func(e expr.Expr, where string) error {
		for _, c := range expr.Columns(e) {
			if strings.HasPrefix(c, "__agg_") {
				continue
			}
			bare := c
			if i := strings.LastIndexByte(c, '.'); i >= 0 {
				bare = c[i+1:]
			}
			if !groupCols[strings.ToLower(c)] && !groupCols[strings.ToLower(bare)] {
				return fmt.Errorf("sql: column %q in %s must appear in GROUP BY or inside an aggregate", c, where)
			}
		}
		return nil
	}
	for _, it := range items {
		if err := checkGrouped(it.Expr, "select list"); err != nil {
			return nil, nil, err
		}
	}
	if having != nil {
		if err := checkGrouped(having, "HAVING"); err != nil {
			return nil, nil, err
		}
	}
	aliases := map[string]bool{}
	for _, it := range stmt.Items {
		aliases[strings.ToLower(it.Name())] = true
	}
	for _, o := range orderBy {
		// An ORDER BY key naming an output column resolves against the
		// produced row, not the source; exempt it from the grouping check.
		if c, ok := o.Expr.(*expr.ColumnRef); ok && aliases[strings.ToLower(c.Name)] {
			continue
		}
		if err := checkGrouped(o.Expr, "ORDER BY"); err != nil {
			return nil, nil, err
		}
	}
	gx, err := x.groupCtx(gr, aggs, idx)
	if err != nil {
		return nil, nil, err
	}
	var kept []int32 // nil = every group
	if having != nil {
		if kept, err = gx.filter(having, nil); err != nil {
			return nil, nil, err
		}
	}
	return gx.execPlain(&SelectStmt{Items: items, OrderBy: orderBy}, kept)
}

// liftedAgg is one distinct aggregate call lifted out of the statement.
type liftedAgg struct {
	fn   relation.AggFunc
	arg  expr.Expr
	star bool
	sql  string
}

func aggPlaceholder(i int) string { return fmt.Sprintf("__agg_%d", i) }

// liftAggregates replaces every aggregate call in the select list, HAVING
// and ORDER BY with a placeholder column reference and returns the distinct
// aggregate definitions.
func liftAggregates(stmt *SelectStmt) (aggs []liftedAgg, items []SelectItem, having expr.Expr, orderBy []OrderItem, err error) {
	index := map[string]int{}
	var lift func(e expr.Expr) (expr.Expr, error)
	lift = func(e expr.Expr) (expr.Expr, error) {
		if f, ok := e.(*expr.FuncCall); ok && expr.AggregateNames[f.Name] {
			if len(f.Args) != 1 {
				return nil, fmt.Errorf("sql: %s expects exactly one argument", f.Name)
			}
			if expr.ContainsAggregate(f.Args[0]) {
				return nil, fmt.Errorf("sql: nested aggregates are not allowed")
			}
			key := e.SQL()
			i, ok := index[key]
			if !ok {
				i = len(aggs)
				index[key] = i
				la := liftedAgg{sql: key}
				switch f.Name {
				case "COUNT":
					la.fn = relation.AggCount
				case "COUNT_DISTINCT":
					la.fn = relation.AggCountDistinct
				default:
					la.fn = relation.AggFunc(f.Name)
				}
				if _, isStar := f.Args[0].(*expr.Star); isStar {
					if f.Name != "COUNT" {
						return nil, fmt.Errorf("sql: only COUNT accepts *")
					}
					la.star = true
				} else {
					la.arg = f.Args[0]
				}
				aggs = append(aggs, la)
			}
			return &expr.ColumnRef{Name: aggPlaceholder(i)}, nil
		}
		return rebuild(e, lift)
	}
	for _, it := range stmt.Items {
		ne, err := lift(it.Expr)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		items = append(items, SelectItem{Expr: ne, Alias: it.Alias})
	}
	if stmt.Having != nil {
		having, err = lift(stmt.Having)
		if err != nil {
			return nil, nil, nil, nil, err
		}
	}
	for _, o := range stmt.OrderBy {
		ne, err := lift(o.Expr)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		orderBy = append(orderBy, OrderItem{Expr: ne, Desc: o.Desc})
	}
	return aggs, items, having, orderBy, nil
}

// rebuild clones a node with each child passed through fn.
func rebuild(e expr.Expr, fn func(expr.Expr) (expr.Expr, error)) (expr.Expr, error) {
	switch n := e.(type) {
	case *expr.Literal, *expr.ColumnRef, *expr.Star, *expr.Subquery, *expr.Exists:
		// Subquery bodies are self-contained statements: aggregates inside
		// them belong to the inner scope and are lifted when it executes.
		return e, nil
	case *expr.InSubquery:
		x, err := fn(n.X)
		if err != nil {
			return nil, err
		}
		return &expr.InSubquery{X: x, Sub: n.Sub, Negate: n.Negate}, nil
	case *expr.Unary:
		x, err := fn(n.X)
		if err != nil {
			return nil, err
		}
		return &expr.Unary{Op: n.Op, X: x}, nil
	case *expr.Binary:
		l, err := fn(n.L)
		if err != nil {
			return nil, err
		}
		r, err := fn(n.R)
		if err != nil {
			return nil, err
		}
		return &expr.Binary{Op: n.Op, L: l, R: r}, nil
	case *expr.IsNull:
		x, err := fn(n.X)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{X: x, Negate: n.Negate}, nil
	case *expr.InList:
		x, err := fn(n.X)
		if err != nil {
			return nil, err
		}
		items := make([]expr.Expr, len(n.Items))
		for i, it := range n.Items {
			items[i], err = fn(it)
			if err != nil {
				return nil, err
			}
		}
		return &expr.InList{X: x, Items: items, Negate: n.Negate}, nil
	case *expr.Between:
		x, err := fn(n.X)
		if err != nil {
			return nil, err
		}
		lo, err := fn(n.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := fn(n.Hi)
		if err != nil {
			return nil, err
		}
		return &expr.Between{X: x, Lo: lo, Hi: hi, Negate: n.Negate}, nil
	case *expr.FuncCall:
		args := make([]expr.Expr, len(n.Args))
		var err error
		for i, a := range n.Args {
			args[i], err = fn(a)
			if err != nil {
				return nil, err
			}
		}
		return &expr.FuncCall{Name: n.Name, Args: args}, nil
	case *expr.WindowCall:
		out := &expr.WindowCall{Func: n.Func, Frame: n.Frame}
		var err error
		if n.Arg != nil {
			if out.Arg, err = fn(n.Arg); err != nil {
				return nil, err
			}
		}
		out.PartitionBy = make([]expr.Expr, len(n.PartitionBy))
		for i, p := range n.PartitionBy {
			if out.PartitionBy[i], err = fn(p); err != nil {
				return nil, err
			}
		}
		out.OrderBy = make([]expr.WindowOrder, len(n.OrderBy))
		for i, o := range n.OrderBy {
			x, err := fn(o.X)
			if err != nil {
				return nil, err
			}
			out.OrderBy[i] = expr.WindowOrder{X: x, Desc: o.Desc}
		}
		return out, nil
	}
	return nil, fmt.Errorf("sql: cannot rebuild %T", e)
}

// expandStars replaces * items with one item per source column.
func expandStars(src *source, items []SelectItem) ([]SelectItem, error) {
	var out []SelectItem
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		for _, c := range src.rel.Schema {
			name := c.Name
			out = append(out, SelectItem{Expr: &expr.ColumnRef{Name: name}})
		}
	}
	return out, nil
}

// outputSchema infers result column kinds for ungrouped projections.
func outputSchema(src *source, items []SelectItem) (relation.Schema, error) {
	schema := make(relation.Schema, len(items))
	for i, it := range items {
		k, err := expr.Check(it.Expr, src.kind)
		if err != nil {
			return nil, err
		}
		if k == value.KindNull {
			k = value.KindString
		}
		schema[i] = relation.Column{Name: it.Name(), Kind: k}
	}
	return schema, nil
}

// sortOutput stably sorts the output rows by their ORDER BY key columns,
// through the relation layer's typed parallel sort kernel.
func sortOutput(out *relation.Relation, keys []*relation.Col, orderBy []OrderItem) *relation.Relation {
	n := out.Len()
	if n < 2 || len(orderBy) == 0 {
		return out
	}
	desc := make([]bool, len(orderBy))
	for i := range orderBy {
		desc[i] = orderBy[i].Desc
	}
	return out.Pick(relation.SortPermCols(keys, nil, n, desc))
}

// distinctRows dedupes output rows, keeping each group's first row and the
// ORDER BY keys aligned with them.
func distinctRows(out *relation.Relation, keys []*relation.Col) (*relation.Relation, []*relation.Col) {
	first := relation.GroupCols(out.Columns(), nil, out.Len()).First
	if keys != nil {
		keys = relation.GatherCols(keys, first)
	}
	return out.Pick(first), keys
}

// widen coerces exact-integer results into float-typed output columns.
func widen(v value.Value, kind value.Kind) value.Value {
	if kind == value.KindFloat && v.Kind() == value.KindInt {
		return value.NewFloat(float64(v.Int()))
	}
	return v
}
