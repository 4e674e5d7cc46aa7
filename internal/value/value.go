// Package value implements the typed scalar values that populate
// spreadsheet cells and relation tuples.
//
// A Value is a small immutable variant record over the SQL-ish scalar types
// the spreadsheet algebra needs: NULL, 64-bit integers, 64-bit floats,
// strings, booleans, and dates. Values carry their own comparison, coercion,
// hashing, parsing and formatting rules so that every layer above (relations,
// expressions, the algebra, the SQL engine) agrees on scalar semantics.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// The supported scalar kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindDate
)

// String returns the SQL-style name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "TEXT"
	case KindBool:
		return "BOOLEAN"
	case KindDate:
		return "DATE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Numeric reports whether the kind is an arithmetic type.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat }

// Value is an immutable scalar. The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64 // payload for Int, Bool (0/1) and Date (days since 1970-01-01)
	f    float64
	s    string
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a float value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, f: v} }

// NewString returns a string value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// NewDate returns a date value for the given calendar day (UTC).
func NewDate(year int, month time.Month, day int) Value {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return Value{kind: KindDate, i: t.Unix() / 86400}
}

// NewDateDays returns a date value from a count of days since 1970-01-01.
func NewDateDays(days int64) Value { return Value{kind: KindDate, i: days} }

// Kind returns the runtime kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload. It panics unless v is an integer.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic("value: Int() on " + v.kind.String())
	}
	return v.i
}

// Float returns the float payload. It panics unless v is a float.
func (v Value) Float() float64 {
	if v.kind != KindFloat {
		panic("value: Float() on " + v.kind.String())
	}
	return v.f
}

// Str returns the string payload. It panics unless v is a string.
func (v Value) Str() string {
	if v.kind != KindString {
		panic("value: Str() on " + v.kind.String())
	}
	return v.s
}

// Bool returns the boolean payload. It panics unless v is a boolean.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic("value: Bool() on " + v.kind.String())
	}
	return v.i != 0
}

// DateDays returns the date payload as days since 1970-01-01.
// It panics unless v is a date.
func (v Value) DateDays() int64 {
	if v.kind != KindDate {
		panic("value: DateDays() on " + v.kind.String())
	}
	return v.i
}

// Time returns the date payload as a UTC midnight time.Time.
func (v Value) Time() time.Time {
	return time.Unix(v.DateDays()*86400, 0).UTC()
}

// AsFloat converts numeric values to float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	default:
		return 0, false
	}
}

// String renders the value for display. NULL renders as the empty-ish
// marker "NULL"; dates render as YYYY-MM-DD; floats use the shortest
// round-trip representation.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		// Plain decimal notation for human-scale magnitudes; scientific
		// notation only where decimal expansion would be unreadable.
		if abs := math.Abs(v.f); abs == 0 || (abs >= 1e-4 && abs < 1e15) {
			return strconv.FormatFloat(v.f, 'f', -1, 64)
		}
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindDate:
		return v.Time().Format("2006-01-02")
	default:
		return "?"
	}
}

// SQL renders the value as a SQL literal.
func (v Value) SQL() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindBool:
		if v.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindDate:
		return "DATE '" + v.Time().Format("2006-01-02") + "'"
	default:
		return v.String()
	}
}

// Key returns a string usable as a map key such that two values that compare
// equal under Compare produce the same key. Numeric values of different
// kinds that are numerically equal share a key.
func (v Value) Key() string {
	switch v.kind {
	case KindNull:
		return "\x00"
	case KindInt:
		// Keys of numerically equal ints and floats must coincide; above
		// 2^53 the float rendering is no longer injective over ints, so
		// fall back to the exact decimal (floats cannot equal those ints
		// exactly anyway).
		if v.i > -(1<<53) && v.i < 1<<53 {
			return "n" + strconv.FormatFloat(float64(v.i), 'g', -1, 64)
		}
		return "ni" + strconv.FormatInt(v.i, 10)
	case KindFloat:
		return "n" + strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return "s" + v.s
	case KindBool:
		return "b" + strconv.FormatInt(v.i, 10)
	case KindDate:
		return "d" + strconv.FormatInt(v.i, 10)
	default:
		return "?"
	}
}

// Compare orders a against b, returning -1, 0 or +1. NULL compares before
// every non-NULL value (the ordering convention used for sorting; predicate
// evaluation handles NULL separately with three-valued logic). Numeric kinds
// compare by numeric value; other kinds must match exactly.
func Compare(a, b Value) (int, error) {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0, nil
		case a.kind == KindNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if a.kind == KindInt && b.kind == KindInt {
		// Exact integer comparison: int64 values above 2^53 would collide
		// through float64.
		switch {
		case a.i < b.i:
			return -1, nil
		case a.i > b.i:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if a.kind.Numeric() && b.kind.Numeric() {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if a.kind != b.kind {
		return 0, fmt.Errorf("value: cannot compare %s with %s", a.kind, b.kind)
	}
	switch a.kind {
	case KindString:
		return strings.Compare(a.s, b.s), nil
	case KindBool, KindDate:
		switch {
		case a.i < b.i:
			return -1, nil
		case a.i > b.i:
			return 1, nil
		default:
			return 0, nil
		}
	}
	return 0, fmt.Errorf("value: cannot compare kind %s", a.kind)
}

// MustCompare is Compare for callers that have already type-checked.
// Incomparable kinds order by kind to keep sorting total.
func MustCompare(a, b Value) int {
	c, err := Compare(a, b)
	if err != nil {
		if a.kind < b.kind {
			return -1
		}
		if a.kind > b.kind {
			return 1
		}
		return 0
	}
	return c
}

// Equal reports whether two values compare equal. NULL equals NULL here
// (multiset identity); predicate equality applies SQL three-valued logic in
// the expression evaluator instead.
func Equal(a, b Value) bool { return MustCompare(a, b) == 0 }

// Arithmetic errors.
var errDivZero = fmt.Errorf("value: division by zero")

func arith(op byte, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	// Date +/- integer days.
	if a.kind == KindDate && b.kind == KindInt {
		switch op {
		case '+':
			return NewDateDays(a.i + b.i), nil
		case '-':
			return NewDateDays(a.i - b.i), nil
		}
	}
	if a.kind == KindDate && b.kind == KindDate && op == '-' {
		return NewInt(a.i - b.i), nil
	}
	if !a.kind.Numeric() || !b.kind.Numeric() {
		return Null, fmt.Errorf("value: %c not defined on %s and %s", op, a.kind, b.kind)
	}
	if a.kind == KindInt && b.kind == KindInt {
		i, f, isFloat, err := IntArith(op, a.i, b.i)
		switch {
		case err != nil:
			return Null, err
		case isFloat:
			return NewFloat(f), nil
		}
		return NewInt(i), nil
	}
	x, _ := a.AsFloat()
	y, _ := b.AsFloat()
	f, err := FloatArith(op, x, y)
	if err != nil {
		return Null, err
	}
	return NewFloat(f), nil
}

// IntArith applies op ('+', '-', '*', '/' or '%') to two INT operands under
// the arithmetic rule: results stay exact, except that a division with a
// remainder promotes to FLOAT, returned in f with isFloat set. Division and
// modulo by zero fail. It is the rule's one definition: Add through Mod and
// the batch evaluator's per-lane kernels all call it.
func IntArith(op byte, x, y int64) (i int64, f float64, isFloat bool, err error) {
	switch op {
	case '+':
		return x + y, 0, false, nil
	case '-':
		return x - y, 0, false, nil
	case '*':
		return x * y, 0, false, nil
	case '/':
		if y == 0 {
			return 0, 0, false, errDivZero
		}
		if x%y == 0 {
			return x / y, 0, false, nil
		}
		return 0, float64(x) / float64(y), true, nil
	case '%':
		if y == 0 {
			return 0, 0, false, errDivZero
		}
		return x % y, 0, false, nil
	}
	return 0, 0, false, fmt.Errorf("value: unknown operator %q", string(op))
}

// FloatArith applies op to two operands of which at least one is FLOAT,
// both widened to float64 as AsFloat does. Division and modulo by zero
// fail. Like IntArith, it is the one definition both evaluators call.
func FloatArith(op byte, x, y float64) (float64, error) {
	switch op {
	case '+':
		return x + y, nil
	case '-':
		return x - y, nil
	case '*':
		return x * y, nil
	case '/':
		if y == 0 {
			return 0, errDivZero
		}
		return x / y, nil
	case '%':
		if y == 0 {
			return 0, errDivZero
		}
		return math.Mod(x, y), nil
	}
	return 0, fmt.Errorf("value: unknown operator %q", string(op))
}

// Add returns a + b with numeric coercion; date + int adds days.
func Add(a, b Value) (Value, error) { return arith('+', a, b) }

// Sub returns a - b; date - date yields day count, date - int shifts days.
func Sub(a, b Value) (Value, error) { return arith('-', a, b) }

// Mul returns a * b.
func Mul(a, b Value) (Value, error) { return arith('*', a, b) }

// Div returns a / b. Integer division producing a remainder promotes to
// float so that spreadsheet formulas behave as users expect.
func Div(a, b Value) (Value, error) { return arith('/', a, b) }

// Mod returns a % b.
func Mod(a, b Value) (Value, error) { return arith('%', a, b) }

// Neg returns -a.
func Neg(a Value) (Value, error) {
	switch a.kind {
	case KindNull:
		return Null, nil
	case KindInt:
		return NewInt(-a.i), nil
	case KindFloat:
		return NewFloat(-a.f), nil
	}
	return Null, fmt.Errorf("value: cannot negate %s", a.kind)
}

// Concat returns the string concatenation of a and b, rendering non-string
// operands with String.
func Concat(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	return NewString(a.String() + b.String()), nil
}

// Parse converts text to a value of the given kind. Empty text parses to
// NULL for every kind.
func Parse(text string, kind Kind) (Value, error) {
	if text == "" || strings.EqualFold(text, "null") {
		return Null, nil
	}
	switch kind {
	case KindInt:
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Null, fmt.Errorf("value: parse %q as INTEGER: %w", text, err)
		}
		return NewInt(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Null, fmt.Errorf("value: parse %q as FLOAT: %w", text, err)
		}
		return NewFloat(f), nil
	case KindString:
		return NewString(text), nil
	case KindBool:
		b, err := strconv.ParseBool(strings.ToLower(text))
		if err != nil {
			return Null, fmt.Errorf("value: parse %q as BOOLEAN: %w", text, err)
		}
		return NewBool(b), nil
	case KindDate:
		t, err := time.Parse("2006-01-02", text)
		if err != nil {
			return Null, fmt.Errorf("value: parse %q as DATE: %w", text, err)
		}
		return NewDateDays(t.Unix() / 86400), nil
	case KindNull:
		return Null, nil
	}
	return Null, fmt.Errorf("value: unknown kind %v", kind)
}

// Infer guesses the kind of a text token: integer, float, date
// (YYYY-MM-DD), boolean, falling back to string.
func Infer(text string) Value {
	if text == "" {
		return Null
	}
	if i, err := strconv.ParseInt(text, 10, 64); err == nil {
		return NewInt(i)
	}
	if f, err := strconv.ParseFloat(text, 64); err == nil {
		return NewFloat(f)
	}
	if len(text) == 10 && text[4] == '-' && text[7] == '-' {
		if t, err := time.Parse("2006-01-02", text); err == nil {
			return NewDateDays(t.Unix() / 86400)
		}
	}
	switch strings.ToLower(text) {
	case "true":
		return NewBool(true)
	case "false":
		return NewBool(false)
	}
	return NewString(text)
}

// Truth converts a value to a three-valued-logic truth value for predicate
// contexts: true, false, or unknown (NULL).
type Truth uint8

// Three-valued logic constants.
const (
	False Truth = iota
	True
	Unknown
)

// TruthOf maps a value to a Truth: booleans map directly, NULL is Unknown,
// anything else is an error.
func TruthOf(v Value) (Truth, error) {
	switch v.kind {
	case KindNull:
		return Unknown, nil
	case KindBool:
		if v.i != 0 {
			return True, nil
		}
		return False, nil
	}
	return False, fmt.Errorf("value: %s is not a truth value", v.kind)
}

// And combines truths under Kleene three-valued logic.
func (t Truth) And(o Truth) Truth {
	if t == False || o == False {
		return False
	}
	if t == Unknown || o == Unknown {
		return Unknown
	}
	return True
}

// Or combines truths under Kleene three-valued logic.
func (t Truth) Or(o Truth) Truth {
	if t == True || o == True {
		return True
	}
	if t == Unknown || o == Unknown {
		return Unknown
	}
	return False
}

// Not negates a truth; Unknown stays Unknown.
func (t Truth) Not() Truth {
	switch t {
	case True:
		return False
	case False:
		return True
	default:
		return Unknown
	}
}

// Value converts the truth back to a Value (Unknown becomes NULL).
func (t Truth) Value() Value {
	switch t {
	case True:
		return NewBool(true)
	case False:
		return NewBool(false)
	default:
		return Null
	}
}
