package expr

import (
	"fmt"
	"math"
	"strings"

	"sheetmusiq/internal/value"
)

// AggregateNames lists the function names the SQL planner treats as
// aggregates rather than scalar functions.
var AggregateNames = map[string]bool{
	"SUM": true, "AVG": true, "MIN": true, "MAX": true, "COUNT": true,
	"COUNT_DISTINCT": true, "STDDEV": true,
}

// IsAggregateCall reports whether e is a call to an aggregate function.
func IsAggregateCall(e Expr) bool {
	f, ok := e.(*FuncCall)
	return ok && AggregateNames[f.Name]
}

// ContainsAggregate reports whether any node in e is an aggregate call.
func ContainsAggregate(e Expr) bool {
	found := false
	e.walk(func(n Expr) {
		if IsAggregateCall(n) {
			found = true
		}
	})
	return found
}

func evalFunc(f *FuncCall, env Env) (value.Value, error) {
	if AggregateNames[f.Name] {
		return value.Null, fmt.Errorf("expr: aggregate %s not allowed in a row context", f.Name)
	}
	args := make([]value.Value, len(f.Args))
	for i, a := range f.Args {
		v, err := Eval(a, env)
		if err != nil {
			return value.Null, err
		}
		args[i] = v
	}
	return CallScalar(f.Name, args)
}

func arity(name string, args []value.Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("expr: %s expects %d argument(s), got %d", name, n, len(args))
	}
	return nil
}

// CallScalar invokes a scalar built-in by (upper-cased) name.
func CallScalar(name string, args []value.Value) (value.Value, error) {
	switch name {
	case "ABS":
		if err := arity(name, args, 1); err != nil {
			return value.Null, err
		}
		v := args[0]
		if v.IsNull() {
			return value.Null, nil
		}
		switch v.Kind() {
		case value.KindInt:
			if v.Int() < 0 {
				return value.NewInt(-v.Int()), nil
			}
			return v, nil
		case value.KindFloat:
			return value.NewFloat(math.Abs(v.Float())), nil
		}
		return value.Null, fmt.Errorf("expr: ABS over %s", v.Kind())
	case "ROUND":
		if len(args) != 1 && len(args) != 2 {
			return value.Null, fmt.Errorf("expr: ROUND expects 1 or 2 arguments")
		}
		if args[0].IsNull() {
			return value.Null, nil
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return value.Null, fmt.Errorf("expr: ROUND over %s", args[0].Kind())
		}
		digits := int64(0)
		if len(args) == 2 {
			if args[1].Kind() != value.KindInt {
				return value.Null, fmt.Errorf("expr: ROUND digits must be INTEGER")
			}
			digits = args[1].Int()
		}
		scale := math.Pow(10, float64(digits))
		return value.NewFloat(math.Round(f*scale) / scale), nil
	case "FLOOR", "CEIL":
		if err := arity(name, args, 1); err != nil {
			return value.Null, err
		}
		if args[0].IsNull() {
			return value.Null, nil
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return value.Null, fmt.Errorf("expr: %s over %s", name, args[0].Kind())
		}
		if name == "FLOOR" {
			return value.NewInt(int64(math.Floor(f))), nil
		}
		return value.NewInt(int64(math.Ceil(f))), nil
	case "UPPER", "LOWER":
		if err := arity(name, args, 1); err != nil {
			return value.Null, err
		}
		if args[0].IsNull() {
			return value.Null, nil
		}
		if args[0].Kind() != value.KindString {
			return value.Null, fmt.Errorf("expr: %s over %s", name, args[0].Kind())
		}
		if name == "UPPER" {
			return value.NewString(strings.ToUpper(args[0].Str())), nil
		}
		return value.NewString(strings.ToLower(args[0].Str())), nil
	case "LENGTH":
		if err := arity(name, args, 1); err != nil {
			return value.Null, err
		}
		if args[0].IsNull() {
			return value.Null, nil
		}
		if args[0].Kind() != value.KindString {
			return value.Null, fmt.Errorf("expr: LENGTH over %s", args[0].Kind())
		}
		return value.NewInt(int64(len(args[0].Str()))), nil
	case "SUBSTR":
		if len(args) != 2 && len(args) != 3 {
			return value.Null, fmt.Errorf("expr: SUBSTR expects 2 or 3 arguments")
		}
		if args[0].IsNull() {
			return value.Null, nil
		}
		if args[0].Kind() != value.KindString || args[1].Kind() != value.KindInt {
			return value.Null, fmt.Errorf("expr: SUBSTR(string, int[, int])")
		}
		s := args[0].Str()
		start := int(args[1].Int()) - 1 // SQL is 1-based
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			start = len(s)
		}
		end := len(s)
		if len(args) == 3 {
			if args[2].Kind() != value.KindInt {
				return value.Null, fmt.Errorf("expr: SUBSTR length must be INTEGER")
			}
			end = start + int(args[2].Int())
			if end > len(s) {
				end = len(s)
			}
			if end < start {
				end = start
			}
		}
		return value.NewString(s[start:end]), nil
	case "IF":
		// IF(cond, then, else): the CASE-free conditional. A NULL condition
		// takes the else branch, like CASE WHEN.
		if err := arity(name, args, 3); err != nil {
			return value.Null, err
		}
		switch {
		case args[0].IsNull():
			return args[2], nil
		case args[0].Kind() != value.KindBool:
			return value.Null, fmt.Errorf("expr: IF condition must be BOOLEAN, got %s", args[0].Kind())
		case args[0].Bool():
			return args[1], nil
		}
		return args[2], nil
	case "COALESCE":
		if len(args) == 0 {
			return value.Null, fmt.Errorf("expr: COALESCE expects at least 1 argument")
		}
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return value.Null, nil
	case "TRIM":
		if err := arity(name, args, 1); err != nil {
			return value.Null, err
		}
		if args[0].IsNull() {
			return value.Null, nil
		}
		if args[0].Kind() != value.KindString {
			return value.Null, fmt.Errorf("expr: TRIM over %s", args[0].Kind())
		}
		return value.NewString(strings.TrimSpace(args[0].Str())), nil
	case "REPLACE":
		if err := arity(name, args, 3); err != nil {
			return value.Null, err
		}
		for _, a := range args {
			if a.IsNull() {
				return value.Null, nil
			}
			if a.Kind() != value.KindString {
				return value.Null, fmt.Errorf("expr: REPLACE expects strings, got %s", a.Kind())
			}
		}
		return value.NewString(strings.ReplaceAll(args[0].Str(), args[1].Str(), args[2].Str())), nil
	case "SIGN":
		if err := arity(name, args, 1); err != nil {
			return value.Null, err
		}
		if args[0].IsNull() {
			return value.Null, nil
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return value.Null, fmt.Errorf("expr: SIGN over %s", args[0].Kind())
		}
		switch {
		case f > 0:
			return value.NewInt(1), nil
		case f < 0:
			return value.NewInt(-1), nil
		default:
			return value.NewInt(0), nil
		}
	case "POWER":
		if err := arity(name, args, 2); err != nil {
			return value.Null, err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return value.Null, nil
		}
		b, ok1 := args[0].AsFloat()
		e, ok2 := args[1].AsFloat()
		if !ok1 || !ok2 {
			return value.Null, fmt.Errorf("expr: POWER expects numerics")
		}
		return value.NewFloat(math.Pow(b, e)), nil
	case "YEAR", "MONTH", "DAY":
		if err := arity(name, args, 1); err != nil {
			return value.Null, err
		}
		if args[0].IsNull() {
			return value.Null, nil
		}
		if args[0].Kind() != value.KindDate {
			return value.Null, fmt.Errorf("expr: %s over %s", name, args[0].Kind())
		}
		t := args[0].Time()
		switch name {
		case "YEAR":
			return value.NewInt(int64(t.Year())), nil
		case "MONTH":
			return value.NewInt(int64(t.Month())), nil
		default:
			return value.NewInt(int64(t.Day())), nil
		}
	}
	return value.Null, fmt.Errorf("expr: unknown function %s", name)
}
