package expr

import (
	"fmt"

	"sheetmusiq/internal/value"
)

// This file binds an expression to a positional row layout: every column
// reference resolves to its row slot exactly once, and evaluation then runs
// the interpreter (Eval) against the positional row with no per-row name
// search. The interpreter stays the single row-at-a-time evaluator; binding
// only removes its name lookups.

// Resolver maps a column name to its index in the row layout a Program will
// be evaluated against. It is consulted only at bind time.
type Resolver func(name string) (int, bool)

// Program is an expression bound to a fixed row layout. It holds no mutable
// state, so one Program may be evaluated from many goroutines concurrently.
type Program struct {
	src   Expr
	slots map[string]int // reference spelling → row slot; -1 = unresolved
}

// Compile resolves every column reference of e through resolve and returns
// a Program evaluated directly against a positional row. Names that do not
// resolve keep Eval's unknown-column error at evaluation time (so an unused
// dangling reference over zero rows stays silent). Subqueries are refused:
// a positional row carries no statement to run them in.
func Compile(e Expr, resolve Resolver) (*Program, error) {
	if ContainsSubquery(e) {
		return nil, fmt.Errorf("expr: %s nests a subquery and cannot bind to a row", e.SQL())
	}
	slots := map[string]int{}
	e.walk(func(n Expr) {
		if c, ok := n.(*ColumnRef); ok {
			if _, done := slots[c.Name]; !done {
				i, ok := resolve(c.Name)
				if !ok {
					i = -1
				}
				slots[c.Name] = i
			}
		}
	})
	return &Program{src: e, slots: slots}, nil
}

// slotRow is the Env of one bound evaluation.
type slotRow struct {
	slots map[string]int
	row   []value.Value
}

func (r slotRow) Lookup(name string) (value.Value, bool) {
	if i, ok := r.slots[name]; ok && i >= 0 {
		return r.row[i], true
	}
	return value.Null, false
}

// Eval evaluates the program against a positional row, with the same SQL
// three-valued NULL semantics as Eval.
func (p *Program) Eval(row []value.Value) (value.Value, error) {
	return Eval(p.src, slotRow{p.slots, row})
}

// EvalBool evaluates the program as a predicate; NULL (unknown) counts as
// false, matching SQL WHERE semantics and EvalBool.
func (p *Program) EvalBool(row []value.Value) (bool, error) {
	return EvalBool(p.src, slotRow{p.slots, row})
}
