package sql

import (
	"strings"

	"sheetmusiq/internal/expr"
	"sheetmusiq/internal/relation"
)

// This file implements predicate pushdown: WHERE conjuncts whose columns
// all come from a single FROM source are applied while that source is
// materialised, before any join touches it. With inner joins only, pushing
// a single-source filter below the join is an identity on the result —
// including row order, because both the hash and nested-loop joins emit
// surviving left rows in input order.
//
// DB.DisablePushdown turns the rewrite off; BenchmarkAblationPushdown
// quantifies the difference on the study's multi-join views.

// conjuncts flattens top-level ANDs.
func conjuncts(e expr.Expr) []expr.Expr {
	if b, ok := e.(*expr.Binary); ok && b.Op == expr.OpAnd {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []expr.Expr{e}
}

func conjoin(es []expr.Expr) expr.Expr {
	if len(es) == 0 {
		return nil
	}
	out := es[0]
	for _, e := range es[1:] {
		out = &expr.Binary{Op: expr.OpAnd, L: out, R: e}
	}
	return out
}

// sourceColumns maps each FROM alias to the lowercase column names it
// produces, statically (no data access).
func (db *DB) sourceColumns(f FromItem, out map[string]map[string]bool) {
	switch t := f.(type) {
	case *TableRef:
		alias := t.Alias
		if alias == "" {
			alias = t.Name
		}
		cols := map[string]bool{}
		if base, ok := db.Table(t.Name); ok {
			for _, c := range base.Schema {
				cols[strings.ToLower(c.Name)] = true
			}
		}
		out[strings.ToLower(alias)] = cols
	case *SubqueryRef:
		cols := map[string]bool{}
		for _, it := range t.Stmt.Items {
			if it.Star {
				// Star output depends on the inner sources; give up on
				// pushing into this alias.
				return
			}
			cols[strings.ToLower(it.Name())] = true
		}
		out[strings.ToLower(t.Alias)] = cols
	case *JoinRef:
		db.sourceColumns(t.Left, out)
		db.sourceColumns(t.Right, out)
	}
}

// homeAlias finds the single source that covers every column the conjunct
// references, or "" when none (cross-source, unresolved, or ambiguous).
func homeAlias(e expr.Expr, sources map[string]map[string]bool) string {
	if expr.ContainsSubquery(e) || expr.ContainsAggregate(e) || expr.ContainsWindow(e) {
		return ""
	}
	home := ""
	for _, ref := range expr.Columns(e) {
		lower := strings.ToLower(ref)
		var candidates []string
		if i := strings.LastIndexByte(lower, '.'); i >= 0 {
			alias, col := lower[:i], lower[i+1:]
			if cols, ok := sources[alias]; ok && cols[col] {
				candidates = []string{alias}
			}
		} else {
			for alias, cols := range sources {
				if cols[lower] {
					candidates = append(candidates, alias)
				}
			}
		}
		if len(candidates) != 1 {
			return ""
		}
		if home == "" {
			home = candidates[0]
		} else if home != candidates[0] {
			return ""
		}
	}
	return home
}

// pushdown splits the WHERE clause into per-alias filters plus a residual
// predicate. Joins must all be inner (they are — the grammar has no OUTER).
func (db *DB) pushdown(stmt *SelectStmt) (filters map[string][]expr.Expr, residual expr.Expr) {
	if db.DisablePushdown || stmt.Where == nil {
		return nil, stmt.Where
	}
	if _, isJoin := stmt.From.(*JoinRef); !isJoin {
		// A single source gains nothing: WHERE already runs on the scan.
		return nil, stmt.Where
	}
	sources := map[string]map[string]bool{}
	db.sourceColumns(stmt.From, sources)
	if len(sources) == 0 {
		return nil, stmt.Where
	}
	filters = map[string][]expr.Expr{}
	var rest []expr.Expr
	for _, c := range conjuncts(stmt.Where) {
		if home := homeAlias(c, sources); home != "" {
			filters[home] = append(filters[home], c)
			continue
		}
		rest = append(rest, c)
	}
	if len(filters) == 0 {
		return nil, stmt.Where
	}
	return filters, conjoin(rest)
}

// applyFilter filters a freshly materialised source in place.
func applyFilter(db *DB, src *source, preds []expr.Expr, outer expr.Env) error {
	if len(preds) == 0 {
		return nil
	}
	x := &stmtCtx{db: db, src: src, outer: outer}
	kept, _, err := x.filter(conjoin(preds), src.rel.TupleRows(), src.cols != nil)
	if err != nil {
		return err
	}
	src.rel = &relation.Relation{Name: src.rel.Name, Schema: src.rel.Schema, Rows: kept}
	src.cols = nil // the vectors no longer align with the filtered rows
	return nil
}
