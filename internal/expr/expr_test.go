package expr

import (
	"strings"
	"testing"
	"testing/quick"

	"sheetmusiq/internal/value"
)

func env() MapEnv {
	return MapEnv{
		"Price":     value.NewInt(15000),
		"Year":      value.NewInt(2005),
		"Model":     value.NewString("Jetta"),
		"Mileage":   value.NewInt(50000),
		"Condition": value.NewString("Excellent"),
		"Ratio":     value.NewFloat(0.5),
		"Sold":      value.NewBool(false),
		"When":      value.NewDate(2005, 6, 15),
		"Note":      value.Null,
	}
}

func evalStr(t *testing.T, src string) value.Value {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	v, err := Eval(e, env())
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestParseAndEvalArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want value.Value
	}{
		{"1 + 2 * 3", value.NewInt(7)},
		{"(1 + 2) * 3", value.NewInt(9)},
		{"10 / 4", value.NewFloat(2.5)},
		{"10 / 5", value.NewInt(2)},
		{"7 % 3", value.NewInt(1)},
		{"-5 + 2", value.NewInt(-3)},
		{"- (2 + 3)", value.NewInt(-5)},
		{"2.5 * 2", value.NewFloat(5)},
		{"Price * 2", value.NewInt(30000)},
		{"Price * Ratio", value.NewFloat(7500)},
		{"'a' || 'b' || 1", value.NewString("ab1")},
	}
	for _, tc := range cases {
		got := evalStr(t, tc.src)
		if !value.Equal(got, tc.want) {
			t.Errorf("%s = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestParseAndEvalPredicates(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"Price < 18000", true},
		{"Price >= 15000 AND Year = 2005", true},
		{"Price > 18000 OR Model = 'Jetta'", true},
		{"NOT Price > 18000", true},
		{"Model = 'Civic'", false},
		{"Model <> 'Civic'", true},
		{"Model != 'Civic'", true},
		{"Condition = 'Good' OR Condition = 'Excellent'", true},
		{"Price BETWEEN 14000 AND 16000", true},
		{"Price NOT BETWEEN 14000 AND 16000", false},
		{"Model IN ('Jetta', 'Civic')", true},
		{"Model NOT IN ('Jetta', 'Civic')", false},
		{"Model LIKE 'J%'", true},
		{"Model LIKE '%tt_'", true},
		{"Model NOT LIKE 'C%'", true},
		{"Note IS NULL", true},
		{"Note IS NOT NULL", false},
		{"Price IS NULL", false},
		{"When > DATE '2005-01-01'", true},
		{"When = DATE '2005-06-15'", true},
		{"Sold = FALSE", true},
		{"Price * 2 < Mileage", true},
		{"Price * 4 < Mileage", false},
		{"NOT Sold AND Price < 16000", true},
	}
	for _, tc := range cases {
		got, err := EvalBool(MustParse(tc.src), env())
		if err != nil {
			t.Errorf("%s: %v", tc.src, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestNullComparisonsAreUnknown(t *testing.T) {
	// NULL comparisons must yield NULL, and WHERE treats NULL as false.
	v := evalStr(t, "Note = 5")
	if !v.IsNull() {
		t.Errorf("NULL = 5 should be NULL, got %v", v)
	}
	ok, err := EvalBool(MustParse("Note = 5 OR TRUE"), env())
	if err != nil || !ok {
		t.Errorf("unknown OR true should be true: %v, %v", ok, err)
	}
	ok, _ = EvalBool(MustParse("Note = 5 AND TRUE"), env())
	if ok {
		t.Error("unknown AND true must not satisfy WHERE")
	}
	v = evalStr(t, "NOT (Note = 5)")
	if !v.IsNull() {
		t.Errorf("NOT unknown should be NULL, got %v", v)
	}
}

func TestInListWithNull(t *testing.T) {
	// 1 IN (2, NULL) is unknown; 1 IN (1, NULL) is true.
	if v := evalStr(t, "1 IN (2, NULL)"); !v.IsNull() {
		t.Errorf("1 IN (2, NULL) = %v, want NULL", v)
	}
	if v := evalStr(t, "1 IN (1, NULL)"); !v.Bool() {
		t.Errorf("1 IN (1, NULL) = %v, want true", v)
	}
	// NOT IN with NULL stays unknown.
	if v := evalStr(t, "1 NOT IN (2, NULL)"); !v.IsNull() {
		t.Errorf("1 NOT IN (2, NULL) = %v, want NULL", v)
	}
}

func TestScalarFunctions(t *testing.T) {
	cases := []struct {
		src  string
		want value.Value
	}{
		{"ABS(-4)", value.NewInt(4)},
		{"ABS(-4.5)", value.NewFloat(4.5)},
		{"ROUND(2.567, 2)", value.NewFloat(2.57)},
		{"ROUND(2.5)", value.NewFloat(3)},
		{"FLOOR(2.9)", value.NewInt(2)},
		{"CEIL(2.1)", value.NewInt(3)},
		{"UPPER('abc')", value.NewString("ABC")},
		{"LOWER('AbC')", value.NewString("abc")},
		{"LENGTH('hello')", value.NewInt(5)},
		{"SUBSTR('hello', 2, 3)", value.NewString("ell")},
		{"SUBSTR('hello', 4)", value.NewString("lo")},
		{"COALESCE(NULL, NULL, 7)", value.NewInt(7)},
		{"COALESCE(Note, 'fallback')", value.NewString("fallback")},
		{"YEAR(When)", value.NewInt(2005)},
		{"MONTH(When)", value.NewInt(6)},
		{"DAY(When)", value.NewInt(15)},
		{"YEAR(DATE '2007-02-03')", value.NewInt(2007)},
		{"TRIM('  pad  ')", value.NewString("pad")},
		{"REPLACE('banana', 'an', 'op')", value.NewString("bopopa")},
		{"SIGN(-3)", value.NewInt(-1)},
		{"SIGN(0)", value.NewInt(0)},
		{"SIGN(2.5)", value.NewInt(1)},
		{"POWER(2, 10)", value.NewFloat(1024)},
	}
	for _, tc := range cases {
		got := evalStr(t, tc.src)
		if !value.Equal(got, tc.want) {
			t.Errorf("%s = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "1 +", "(1", "'unterminated", "1 ?? 2", "IN (1)",
		"Price BETWEEN 1", "UNKNOWNKW(", "a b", "1 = = 2", `"unclosed`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	cases := []string{
		"Missing = 1",       // unknown column
		"NOSUCHFN(1)",       // unknown function
		"ABS('a')",          // wrong kind
		"1 LIKE 'x'",        // LIKE over numbers
		"NOT 5",             // NOT over int
		"SUM(Price)",        // aggregate in row context
		"1 + 'a'",           // arithmetic over strings
		"SUBSTR('x', 'y')",  // wrong arg kind
		"TRIM(5)",           // wrong kind
		"REPLACE('a', 'b')", // wrong arity
		"POWER('a', 2)",     // wrong kind
		"Model > 5",         // string vs int comparison
		"1 / 0",             // division by zero
	}
	for _, src := range cases {
		e, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q) unexpectedly failed: %v", src, err)
			continue
		}
		if _, err := Eval(e, env()); err == nil {
			t.Errorf("Eval(%q) should fail", src)
		}
	}
}

func TestCheck(t *testing.T) {
	resolve := func(name string) (value.Kind, bool) {
		v, ok := env().Lookup(name)
		if !ok {
			return value.KindNull, false
		}
		if v.IsNull() {
			return value.KindString, true
		}
		return v.Kind(), true
	}
	good := map[string]value.Kind{
		"Price < 18000":            value.KindBool,
		"Price + 1":                value.KindInt,
		"Price / 2":                value.KindFloat,
		"Price * Ratio":            value.KindFloat,
		"Model || '!'":             value.KindString,
		"Model LIKE 'J%'":          value.KindBool,
		"Price BETWEEN 1 AND 2":    value.KindBool,
		"Model IN ('a','b')":       value.KindBool,
		"Note IS NULL":             value.KindBool,
		"YEAR(When)":               value.KindInt,
		"When + 30":                value.KindDate,
		"When - DATE '2005-01-01'": value.KindInt,
		"COALESCE(NULL, 1)":        value.KindInt,
		"-Price":                   value.KindInt,
	}
	for src, want := range good {
		k, err := Check(MustParse(src), resolve)
		if err != nil {
			t.Errorf("Check(%q): %v", src, err)
			continue
		}
		if k != want {
			t.Errorf("Check(%q) = %v, want %v", src, k, want)
		}
	}
	bad := []string{
		"Missing = 1", "Model + 1", "NOT Price", "Price AND TRUE",
		"Model > 5", "1 LIKE 'x'", "ABS(1, 2)", "Price BETWEEN 'a' AND 'b'",
		"Model IN (1)", "SUM(Price)", "NOSUCHFN(1)",
	}
	for _, src := range bad {
		if _, err := Check(MustParse(src), resolve); err == nil {
			t.Errorf("Check(%q) should fail", src)
		}
	}
}

func TestColumnsAndReferences(t *testing.T) {
	e := MustParse("Price < 18000 AND (Model = 'Jetta' OR price > 1)")
	cols := Columns(e)
	if len(cols) != 2 {
		t.Fatalf("Columns = %v, want [Price Model] (case-insensitive dedup)", cols)
	}
	if !References(e, "model") || !References(e, "PRICE") {
		t.Error("References should be case-insensitive")
	}
	if References(e, "Year") {
		t.Error("Year is not referenced")
	}
}

func TestSQLRoundTrip(t *testing.T) {
	exprs := []string{
		"Price < 18000 AND (Model = 'Jetta' OR NOT Sold)",
		"Model LIKE 'J%'",
		"Price BETWEEN 14000 AND 16000",
		"Model IN ('Jetta', 'Civic')",
		"Note IS NOT NULL",
		"ABS(Price - Mileage) + 1",
		"'it''s' || Model",
		"When > DATE '2005-01-01'",
		"Model NOT IN ('a')",
		"Price * -1 <> 3",
	}
	for _, src := range exprs {
		e1 := MustParse(src)
		sql := e1.SQL()
		e2, err := Parse(sql)
		if err != nil {
			t.Errorf("reparse of %q -> %q failed: %v", src, sql, err)
			continue
		}
		v1, err1 := Eval(e1, env())
		v2, err2 := Eval(e2, env())
		if (err1 == nil) != (err2 == nil) {
			t.Errorf("%q round trip error mismatch: %v vs %v", src, err1, err2)
			continue
		}
		if err1 == nil && !value.Equal(v1, v2) {
			t.Errorf("%q round trip value mismatch: %v vs %v", src, v1, v2)
		}
	}
}

func TestQuotedIdentifiers(t *testing.T) {
	e := MustParse(`"Avg Price" > 10`)
	cols := Columns(e)
	if len(cols) != 1 || cols[0] != "Avg Price" {
		t.Fatalf("quoted ident = %v", cols)
	}
	sql := e.SQL()
	if !strings.Contains(sql, `"Avg Price"`) {
		t.Errorf("SQL rendering should requote: %s", sql)
	}
	if _, err := Parse(sql); err != nil {
		t.Errorf("requoted SQL must reparse: %v", err)
	}
}

func TestDottedIdentifiers(t *testing.T) {
	e := MustParse("orders.o_custkey = customer.c_custkey")
	cols := Columns(e)
	if len(cols) != 2 || cols[0] != "orders.o_custkey" {
		t.Fatalf("dotted columns = %v", cols)
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"hello", "", false},
		{"", "%", true},
		{"abc", "%%", true},
		{"abc", "a%c%", true},
		{"special", "%c_a%", true},
	}
	for _, tc := range cases {
		if got := likeMatch(tc.s, tc.p); got != tc.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", tc.s, tc.p, got, tc.want)
		}
	}
}

func TestCountStarParses(t *testing.T) {
	e, err := Parse("COUNT(*)")
	if err != nil {
		t.Fatal(err)
	}
	f, ok := e.(*FuncCall)
	if !ok || f.Name != "COUNT" || len(f.Args) != 1 {
		t.Fatalf("COUNT(*) parsed as %T %v", e, e)
	}
	if _, ok := f.Args[0].(*Star); !ok {
		t.Fatal("COUNT(*) argument should be Star")
	}
	if !IsAggregateCall(e) || !ContainsAggregate(e) {
		t.Error("COUNT(*) must be recognised as an aggregate")
	}
}

func TestCountDistinctParses(t *testing.T) {
	e := MustParse("COUNT(DISTINCT Model)")
	f := e.(*FuncCall)
	if f.Name != "COUNT_DISTINCT" {
		t.Fatalf("COUNT(DISTINCT x) name = %s", f.Name)
	}
}

func TestNotPrecedence(t *testing.T) {
	// NOT binds tighter than AND: NOT a AND b == (NOT a) AND b.
	ok, err := EvalBool(MustParse("NOT Sold AND TRUE"), env())
	if err != nil || !ok {
		t.Errorf("NOT Sold AND TRUE = %v, %v", ok, err)
	}
	// AND binds tighter than OR.
	ok, _ = EvalBool(MustParse("FALSE AND FALSE OR TRUE"), env())
	if !ok {
		t.Error("FALSE AND FALSE OR TRUE should be TRUE")
	}
}

// Property: the SQL rendering of a randomly built arithmetic tree reparses
// and evaluates to the same value.
func TestQuickSQLRoundTripArithmetic(t *testing.T) {
	f := func(a, b, c int16, pick uint8) bool {
		ops := []BinaryOp{OpAdd, OpSub, OpMul}
		op1 := ops[int(pick)%3]
		op2 := ops[int(pick/3)%3]
		e := &Binary{
			Op: op1,
			L:  &Literal{Val: value.NewInt(int64(a))},
			R: &Binary{Op: op2,
				L: &Literal{Val: value.NewInt(int64(b))},
				R: &Literal{Val: value.NewInt(int64(c))}},
		}
		v1, err := Eval(e, MapEnv{})
		if err != nil {
			return true // overflow-free ops only; shouldn't happen
		}
		e2, err := Parse(e.SQL())
		if err != nil {
			return false
		}
		v2, err := Eval(e2, MapEnv{})
		if err != nil {
			return false
		}
		return value.Equal(v1, v2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: likeMatch with a pattern equal to the string always matches when
// the string has no wildcards.
func TestQuickLikeSelfMatch(t *testing.T) {
	f := func(s string) bool {
		if strings.ContainsAny(s, "%_") {
			return true
		}
		return likeMatch(s, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAppendCaseMatchesStrings pins UPPER's and LOWER's one rule to the
// functions it stands for: appendCase maps ASCII strings itself, and must
// agree with strings.ToUpper and strings.ToLower bit for bit — on every
// single byte, mixed-case words, and multibyte, case-changing and invalid
// UTF-8 strings.
func TestAppendCaseMatchesStrings(t *testing.T) {
	inputs := []string{"", "Jetta", "GOOD", "mIxEd 42 ~@[`{", "ß", "İ", "ǅ", "é", "\xff", "Straße", "aé_Z"}
	for b := 0; b < 256; b++ {
		inputs = append(inputs, string([]byte{byte(b)}), "a"+string([]byte{byte(b)})+"Z")
	}
	for _, s := range inputs {
		if got, want := string(appendCase([]byte("p"), s, true)), "p"+strings.ToUpper(s); got != want {
			t.Errorf("upper %q: %q, strings.ToUpper gives %q", s, got, want)
		}
		if got, want := string(appendCase([]byte("p"), s, false)), "p"+strings.ToLower(s); got != want {
			t.Errorf("lower %q: %q, strings.ToLower gives %q", s, got, want)
		}
	}
}
