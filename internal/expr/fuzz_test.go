package expr

import (
	"testing"

	"sheetmusiq/internal/value"
)

// FuzzParse checks the lexer/parser never panic and that anything that
// parses renders to SQL that reparses to an equally-evaluating tree.
// The seed corpus runs on every `go test`; `go test -fuzz=FuzzParse`
// explores further.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"Price < 18000 AND (Model = 'Jetta' OR NOT Sold)",
		"a BETWEEN 1 AND 2 OR b IN ('x','y','z')",
		"COALESCE(Note, 'fallback') || '!'",
		"-x * (y + 2.5e3) % 7",
		"When > DATE '2005-01-01'",
		"f(g(1), *, h())",
		"a IS NOT NULL AND NOT b IS NULL",
		"'it''s' LIKE '%''s'",
		`"quoted ident" = 1`,
		"((((1))))",
		"1 <",
		")",
		"NOT",
		"IN (",
		"x'",
		"\"",
		"1e999",
		"a.b.c.d = 1",
		"RANK() OVER (PARTITION BY Model ORDER BY Price)",
		"ROW_NUMBER() OVER (ORDER BY Price DESC, Model)",
		"SUM(Price) OVER (PARTITION BY Model ORDER BY Price ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)",
		"AVG(Price) OVER (ORDER BY Price ROWS BETWEEN UNBOUNDED PRECEDING AND 1 FOLLOWING)",
		"MAX(Price) OVER ()",
		"COUNT(*) OVER (PARTITION BY Model)",
		"RANK() OVER",
		"SUM(Price) OVER (ROWS BETWEEN",
		"RANK() OVER (ORDER BY)",
		"DENSE_RANK() OVER (PARTITION BY)",
		"SUM(x) OVER (ORDER BY y ROWS BETWEEN CURRENT ROW AND UNBOUNDED PRECEDING)",
		// Names that need quoting inside OVER: every window definition
		// prints through this printer.
		`SUM("Unit Price") OVER (ORDER BY "Date" DESC ROWS 1 PRECEDING)`,
		`RANK() OVER (PARTITION BY "Order", "Group" ORDER BY "2nd", "Desc" DESC)`,
		`AVG("Limit") OVER (PARTITION BY "a ""b""" ORDER BY "Unit Price")`,
		`COUNT(*) OVER (PARTITION BY "Order") <= 3`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	env := MapEnv{
		"Price": value.NewInt(15000), "Model": value.NewString("Jetta"),
		"Sold": value.NewBool(false), "a": value.NewInt(1),
		"b": value.NewString("x"), "x": value.NewInt(2),
		"y": value.NewFloat(3), "Note": value.Null,
		"When": value.NewDate(2005, 6, 15),
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		sql := e.SQL()
		e2, err := Parse(sql)
		if err != nil {
			t.Fatalf("rendering %q of %q does not reparse: %v", sql, src, err)
		}
		v1, err1 := Eval(e, env)
		v2, err2 := Eval(e2, env)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("eval error mismatch for %q: %v vs %v", src, err1, err2)
		}
		if err1 == nil && !value.Equal(v1, v2) {
			t.Fatalf("eval mismatch for %q: %v vs %v", src, v1, v2)
		}
	})
}
