package expr

import (
	"strings"
	"testing"

	"sheetmusiq/internal/value"
)

// compileCols is the positional layout the bound-vs-by-name tests share
// with env(): same names, same values.
var compileCols = []string{"Price", "Year", "Model", "Mileage", "Condition", "Ratio", "Sold", "When", "Note"}

func compileEnvRow() []value.Value {
	m := env()
	row := make([]value.Value, len(compileCols))
	for i, c := range compileCols {
		row[i] = m[c]
	}
	return row
}

func compileResolver() Resolver {
	return func(name string) (int, bool) {
		for i, c := range compileCols {
			if strings.EqualFold(c, name) {
				return i, true
			}
		}
		return 0, false
	}
}

// TestCompileMatchesEval runs a broad set of expressions through the
// interpreter both by name and bound to row slots and insists on identical
// values and identical errors.
func TestCompileMatchesEval(t *testing.T) {
	srcs := []string{
		"1 + 2 * 3",
		"Price * 1000 / (Mileage + 1)",
		"Price * Ratio",
		"-Price + 7 % 3",
		"'a' || Model || 1",
		"Price < 20000 AND Condition IN ('Good', 'Excellent')",
		"Year = 2005 OR Year = 2006",
		"NOT Sold",
		"Note IS NULL",
		"Note IS NOT NULL",
		"Price BETWEEN 10000 AND 20000",
		"Price NOT BETWEEN 10000 AND 12000",
		"Model LIKE 'Je%'",
		"Model NOT IN ('Civic', 'Accord')",
		"Note + 1",
		"Note = 1",
		"Note IN (1, 2)",
		"1 IN (2, Note)",
		"UPPER(Model) = 'JETTA'",
		"ROUND(Ratio * 100, 1)",
		"COALESCE(Note, Price)",
		"ABS(-Price)",
		"LENGTH(Model) + 1",
		"SUBSTR(Model, 2, 3)",
		"YEAR(When) = Year",
		"CEIL(Ratio) * FLOOR(Ratio)",
		"Price / 0",     // errors either way
		"Model + 1",     // type error either way
		"NoSuchCol = 1", // unknown column errors at eval time either way
		"SUM(Price)",    // aggregate rejected in a row context either way
	}
	row := compileEnvRow()
	for _, src := range srcs {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		want, wantErr := Eval(e, env())
		prog, err := Compile(e, compileResolver())
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		got, gotErr := prog.Eval(row)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("%s: eval err %v, bound err %v", src, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if want.Kind() != got.Kind() || !value.Equal(want, got) {
			t.Errorf("%s: eval %v (%s), compiled %v (%s)", src, want, want.Kind(), got, got.Kind())
		}
	}
}

// TestCompileBoolMatchesEvalBool pins predicate semantics (NULL counts as
// false) through a bound program.
func TestCompileBoolMatchesEvalBool(t *testing.T) {
	srcs := []string{
		"Price < 20000",
		"Note = 1", // UNKNOWN → false
		"Note IS NULL",
		"Price < 20000 AND Note = 1",
		"Price < 20000 OR Note = 1",
	}
	row := compileEnvRow()
	for _, src := range srcs {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		want, wantErr := EvalBool(e, env())
		prog, err := Compile(e, compileResolver())
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		got, gotErr := prog.EvalBool(row)
		if (wantErr == nil) != (gotErr == nil) || want != got {
			t.Errorf("%s: eval (%v, %v), compiled (%v, %v)", src, want, wantErr, got, gotErr)
		}
	}
	// Non-boolean predicates report the same shaped error.
	e := MustParse("Price + 1")
	if _, err := EvalBool(e, env()); err == nil {
		t.Fatal("EvalBool accepted a non-boolean predicate")
	}
	prog, err := Compile(e, compileResolver())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.EvalBool(row); err == nil || !strings.Contains(err.Error(), "not boolean") {
		t.Fatalf("bound EvalBool error = %v, want a not-boolean error", err)
	}
}

// TestCompileShortCircuit verifies AND/OR skip the right operand through a
// bound program: an erroring right side is never reached when the left side
// decides.
func TestCompileShortCircuit(t *testing.T) {
	for _, src := range []string{
		"1 = 2 AND (1 / 0) = 1",
		"1 = 1 OR (1 / 0) = 1",
	} {
		prog, err := Compile(MustParse(src), compileResolver())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := prog.Eval(compileEnvRow()); err != nil {
			t.Errorf("%s: short circuit lost: %v", src, err)
		}
	}
}

// TestCompileRejectsSubqueries pins the binding boundary: a positional row
// has no statement to run a subquery in, so anything nesting one is refused
// and stays with an Env that carries the subquery capability.
func TestCompileRejectsSubqueries(t *testing.T) {
	sub := &Subquery{Text: "SELECT 1"}
	for _, e := range []Expr{
		sub,
		&Exists{Sub: sub},
		&InSubquery{X: &Literal{Val: value.NewInt(1)}, Sub: sub},
		&Binary{Op: OpAnd, L: &Literal{Val: value.NewBool(true)}, R: &Exists{Sub: sub}},
	} {
		if _, err := Compile(e, compileResolver()); err == nil {
			t.Errorf("%s: Compile bound a subquery", e.SQL())
		}
	}
}

// TestCompileUnknownColumnDeferred: a dangling reference binds but errors
// only when evaluated, so zero rows stay silent.
func TestCompileUnknownColumnDeferred(t *testing.T) {
	prog, err := Compile(MustParse("Ghost > 1"), compileResolver())
	if err != nil {
		t.Fatalf("Compile = %v, want deferred unknown-column error", err)
	}
	if _, err := prog.Eval(compileEnvRow()); err == nil || !strings.Contains(err.Error(), "unknown column") {
		t.Fatalf("Eval err = %v, want unknown column", err)
	}
}
