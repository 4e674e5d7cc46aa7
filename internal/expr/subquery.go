package expr

import (
	"fmt"

	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

// This file adds nested-subquery nodes to the expression language: scalar
// subqueries, EXISTS, and IN (SELECT ...). The spreadsheet algebra
// deliberately rejects them (the paper's SheetMusiq "does not support
// nested queries and queries with keyword exist"), but the SQL substrate
// supports them so the repository can run the TPC-H queries the study had
// to exclude and demonstrate exactly where the algebra's expressiveness
// boundary lies.
//
// The expression layer stays ignorant of SQL statement structure: a
// Subquery holds an opaque statement owned by the SQL layer, parsing
// delegates through Parser.SubParser, and evaluation delegates through the
// SubqueryEvaluator capability on the Env.

// Subquery wraps a nested SELECT owned by the SQL layer.
type Subquery struct {
	// Stmt is the parsed statement (a *sql.SelectStmt); opaque here.
	Stmt any
	// Text is the statement's SQL rendering, used by SQL().
	Text string
}

// SQL implements Expr.
func (s *Subquery) SQL() string { return "(" + s.Text + ")" }

func (s *Subquery) walk(fn func(Expr)) { fn(s) }

// Exists is the EXISTS (SELECT ...) predicate.
type Exists struct {
	Sub    *Subquery
	Negate bool
}

// SQL implements Expr.
func (e *Exists) SQL() string {
	if e.Negate {
		return "(NOT EXISTS " + e.Sub.SQL() + ")"
	}
	return "(EXISTS " + e.Sub.SQL() + ")"
}

func (e *Exists) walk(fn func(Expr)) { fn(e); e.Sub.walk(fn) }

// InSubquery is X [NOT] IN (SELECT ...).
type InSubquery struct {
	X      Expr
	Sub    *Subquery
	Negate bool
}

// SQL implements Expr.
func (n *InSubquery) SQL() string {
	op := " IN "
	if n.Negate {
		op = " NOT IN "
	}
	return "(" + n.X.SQL() + op + n.Sub.SQL() + ")"
}

func (n *InSubquery) walk(fn func(Expr)) { fn(n); n.X.walk(fn); n.Sub.walk(fn) }

// SubqueryEvaluator is the optional Env capability that executes a nested
// statement in the current row's scope (enabling correlated subqueries)
// and returns its result relation.
type SubqueryEvaluator interface {
	EvalSubquery(sub *Subquery) (*relation.Relation, error)
}

// evalSubqueryRelation runs the subquery through the Env's capability.
func evalSubqueryRelation(sub *Subquery, env Env) (*relation.Relation, error) {
	se, ok := env.(SubqueryEvaluator)
	if !ok {
		return nil, fmt.Errorf("expr: subqueries are not supported in this context")
	}
	return se.EvalSubquery(sub)
}

// evalScalarSubquery enforces scalar semantics: one column, at most one
// row; an empty result is NULL.
func evalScalarSubquery(sub *Subquery, env Env) (value.Value, error) {
	rel, err := evalSubqueryRelation(sub, env)
	if err != nil {
		return value.Null, err
	}
	if len(rel.Schema) != 1 {
		return value.Null, fmt.Errorf("expr: scalar subquery returns %d columns", len(rel.Schema))
	}
	switch rel.Len() {
	case 0:
		return value.Null, nil
	case 1:
		return rel.Columns()[0].Value(0), nil
	default:
		return value.Null, fmt.Errorf("expr: scalar subquery returned %d rows", rel.Len())
	}
}

// evalExists implements EXISTS.
func evalExists(e *Exists, env Env) (value.Value, error) {
	rel, err := evalSubqueryRelation(e.Sub, env)
	if err != nil {
		return value.Null, err
	}
	res := rel.Len() > 0
	if e.Negate {
		res = !res
	}
	return value.NewBool(res), nil
}

// evalInSubquery implements X [NOT] IN (SELECT ...) with SQL three-valued
// membership over the subquery's single output column, read cell by cell
// in place. An empty result makes IN false and NOT IN true, whatever X is.
func evalInSubquery(n *InSubquery, env Env) (value.Value, error) {
	x, err := Eval(n.X, env)
	if err != nil {
		return value.Null, err
	}
	rel, err := evalSubqueryRelation(n.Sub, env)
	if err != nil {
		return value.Null, err
	}
	if len(rel.Schema) != 1 {
		return value.Null, fmt.Errorf("expr: IN subquery returns %d columns", len(rel.Schema))
	}
	sawNull := false
	found := false
	col := rel.Columns()[0]
	for i, n := 0, rel.Len(); i < n; i++ {
		v := col.Value(i)
		if v.IsNull() || x.IsNull() {
			sawNull = true
			continue
		}
		tr, err := compare(x, v, OpEq)
		if err != nil {
			return value.Null, err
		}
		if tr == value.True {
			found = true
			break
		}
	}
	var tr value.Truth
	switch {
	case found:
		tr = value.True
	case sawNull:
		tr = value.Unknown
	default:
		tr = value.False
	}
	if n.Negate {
		tr = tr.Not()
	}
	return tr.Value(), nil
}

// ContainsSubquery reports whether e nests any subquery.
func ContainsSubquery(e Expr) bool {
	found := false
	e.walk(func(n Expr) {
		if _, ok := n.(*Subquery); ok {
			found = true
		}
	})
	return found
}
