package expr

import (
	"fmt"
	"strings"

	"sheetmusiq/internal/value"
)

// Env resolves column references during evaluation.
type Env interface {
	// Lookup returns the value bound to a column name, and whether the
	// name is bound at all. Lookups are case-insensitive.
	Lookup(name string) (value.Value, bool)
}

// MapEnv is an Env over a plain map (case-insensitive keys).
type MapEnv map[string]value.Value

// Lookup implements Env.
func (m MapEnv) Lookup(name string) (value.Value, bool) {
	if v, ok := m[name]; ok {
		return v, true
	}
	for k, v := range m {
		if strings.EqualFold(k, name) {
			return v, true
		}
	}
	return value.Null, false
}

// Eval evaluates e against env, applying SQL three-valued NULL semantics:
// comparisons with NULL yield NULL, AND/OR/NOT follow Kleene logic.
func Eval(e Expr, env Env) (value.Value, error) {
	switch n := e.(type) {
	case *Literal:
		return n.Val, nil
	case *ColumnRef:
		v, ok := env.Lookup(n.Name)
		if !ok {
			return value.Null, fmt.Errorf("expr: unknown column %q", n.Name)
		}
		return v, nil
	case *Star:
		return value.Null, fmt.Errorf("expr: * is only valid inside COUNT(*)")
	case *Unary:
		x, err := Eval(n.X, env)
		if err != nil {
			return value.Null, err
		}
		if n.Op == OpNeg {
			return value.Neg(x)
		}
		t, err := value.TruthOf(x)
		if err != nil {
			return value.Null, err
		}
		return t.Not().Value(), nil
	case *Binary:
		return evalBinary(n, env)
	case *IsNull:
		x, err := Eval(n.X, env)
		if err != nil {
			return value.Null, err
		}
		res := x.IsNull()
		if n.Negate {
			res = !res
		}
		return value.NewBool(res), nil
	case *InList:
		return evalIn(n, env)
	case *Between:
		x, err := Eval(n.X, env)
		if err != nil {
			return value.Null, err
		}
		lo, err := Eval(n.Lo, env)
		if err != nil {
			return value.Null, err
		}
		hi, err := Eval(n.Hi, env)
		if err != nil {
			return value.Null, err
		}
		ge, err := compare(x, lo, OpGe)
		if err != nil {
			return value.Null, err
		}
		le, err := compare(x, hi, OpLe)
		if err != nil {
			return value.Null, err
		}
		t := ge.And(le)
		if n.Negate {
			t = t.Not()
		}
		return t.Value(), nil
	case *FuncCall:
		return evalFunc(n, env)
	case *WindowCall:
		return value.Null, fmt.Errorf("expr: window function %s not allowed in a row context", n.Func)
	case *Subquery:
		return evalScalarSubquery(n, env)
	case *Exists:
		return evalExists(n, env)
	case *InSubquery:
		return evalInSubquery(n, env)
	}
	return value.Null, fmt.Errorf("expr: cannot evaluate %T", e)
}

// EvalBool evaluates a predicate; NULL (unknown) counts as false, matching
// SQL WHERE semantics.
func EvalBool(e Expr, env Env) (bool, error) {
	v, err := Eval(e, env)
	if err != nil {
		return false, err
	}
	t, err := value.TruthOf(v)
	if err != nil {
		return false, fmt.Errorf("expr: predicate %s is not boolean: %w", e.SQL(), err)
	}
	return t == value.True, nil
}

func evalBinary(n *Binary, env Env) (value.Value, error) {
	switch n.Op {
	case OpAnd, OpOr:
		lv, err := Eval(n.L, env)
		if err != nil {
			return value.Null, err
		}
		lt, err := value.TruthOf(lv)
		if err != nil {
			return value.Null, err
		}
		// Short circuit when the left side decides.
		if n.Op == OpAnd && lt == value.False {
			return value.NewBool(false), nil
		}
		if n.Op == OpOr && lt == value.True {
			return value.NewBool(true), nil
		}
		rv, err := Eval(n.R, env)
		if err != nil {
			return value.Null, err
		}
		rt, err := value.TruthOf(rv)
		if err != nil {
			return value.Null, err
		}
		if n.Op == OpAnd {
			return lt.And(rt).Value(), nil
		}
		return lt.Or(rt).Value(), nil
	}
	l, err := Eval(n.L, env)
	if err != nil {
		return value.Null, err
	}
	r, err := Eval(n.R, env)
	if err != nil {
		return value.Null, err
	}
	switch n.Op {
	case OpAdd:
		return value.Add(l, r)
	case OpSub:
		return value.Sub(l, r)
	case OpMul:
		return value.Mul(l, r)
	case OpDiv:
		return value.Div(l, r)
	case OpMod:
		return value.Mod(l, r)
	case OpConcat:
		return value.Concat(l, r)
	case OpLike:
		return like(l, r)
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		t, err := compare(l, r, n.Op)
		if err != nil {
			return value.Null, err
		}
		return t.Value(), nil
	}
	return value.Null, fmt.Errorf("expr: unknown operator %q", n.Op)
}

func compare(l, r value.Value, op BinaryOp) (value.Truth, error) {
	if l.IsNull() || r.IsNull() {
		return value.Unknown, nil
	}
	c, err := value.Compare(l, r)
	if err != nil {
		return value.False, err
	}
	var ok bool
	switch op {
	case OpEq:
		ok = c == 0
	case OpNe:
		ok = c != 0
	case OpLt:
		ok = c < 0
	case OpLe:
		ok = c <= 0
	case OpGt:
		ok = c > 0
	case OpGe:
		ok = c >= 0
	}
	if ok {
		return value.True, nil
	}
	return value.False, nil
}

func evalIn(n *InList, env Env) (value.Value, error) {
	x, err := Eval(n.X, env)
	if err != nil {
		return value.Null, err
	}
	sawNull := x.IsNull()
	found := false
	for _, it := range n.Items {
		v, err := Eval(it, env)
		if err != nil {
			return value.Null, err
		}
		if v.IsNull() || x.IsNull() {
			sawNull = true
			continue
		}
		t, err := compare(x, v, OpEq)
		if err != nil {
			return value.Null, err
		}
		if t == value.True {
			found = true
			break
		}
	}
	var t value.Truth
	switch {
	case found:
		t = value.True
	case sawNull:
		t = value.Unknown
	default:
		t = value.False
	}
	if n.Negate {
		t = t.Not()
	}
	return t.Value(), nil
}

// like applies SQL LIKE to two evaluated operands: NULL yields NULL, any
// other non-string operand errs.
func like(l, r value.Value) (value.Value, error) {
	if l.IsNull() || r.IsNull() {
		return value.Null, nil
	}
	if l.Kind() != value.KindString || r.Kind() != value.KindString {
		return value.Null, fmt.Errorf("expr: LIKE requires strings, got %s and %s", l.Kind(), r.Kind())
	}
	return value.NewBool(likeMatch(l.Str(), r.Str())), nil
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single char),
// matched case-sensitively over bytes.
func likeMatch(s, pattern string) bool {
	// Dynamic-programming match; patterns are short in practice.
	si, pi := 0, 0
	starS, starP := -1, -1
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			starP = pi
			starS = si
			pi++
		case starP >= 0:
			starS++
			si = starS
			pi = starP + 1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}
