package expr

import "testing"

func fp(t *testing.T, src string) uint64 {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return Fingerprint(e)
}

func TestFingerprintStability(t *testing.T) {
	// Re-parsing the same source, or an equivalent spelling, yields the
	// same fingerprint: whitespace, keyword case and column-name case are
	// all resolution-irrelevant.
	equiv := [][]string{
		{"Price < 15000", "price   <   15000", "PRICE < 15000"},
		{"Year BETWEEN 2003 AND 2005", "year between 2003 and 2005"},
		{"Model IN ('Civic', 'Jetta')", "model in ('Civic', 'Jetta')"},
		{"Condition IS NOT NULL", "condition IS NOT NULL"},
		{"UPPER(Model) = 'CIVIC'", "upper(Model) = 'CIVIC'"},
		{"-Price + 1", "- Price + 1"},
	}
	for _, group := range equiv {
		want := fp(t, group[0])
		for _, src := range group[1:] {
			if got := fp(t, src); got != want {
				t.Errorf("Fingerprint(%q) = %#x, want %#x (same as %q)", src, got, want, group[0])
			}
		}
	}
}

func TestFingerprintDistinguishesStructure(t *testing.T) {
	// Every pair below is structurally different and must fingerprint
	// differently; several would collide under a naive node-multiset hash.
	distinct := []string{
		"Price < 15000",
		"Price <= 15000",
		"Price < 15001",
		"Mileage < 15000",
		"NOT Price < 15000",
		"Price < 15000 AND Year > 2003",
		"Price < 15000 OR Year > 2003",
		// Same node multiset, different association.
		"(a AND b) OR c",
		"a AND (b OR c)",
		// Literal case matters even though column case does not.
		"Model = 'Civic'",
		"Model = 'civic'",
		// Negation and arity variants of the same operators.
		"Model IN ('Civic')",
		"Model NOT IN ('Civic')",
		"Model IN ('Civic', 'Jetta')",
		"Year BETWEEN 2003 AND 2005",
		"Year NOT BETWEEN 2003 AND 2005",
		"Condition IS NULL",
		"Condition IS NOT NULL",
	}
	seen := make(map[uint64]string, len(distinct))
	for _, src := range distinct {
		h := fp(t, src)
		if prev, dup := seen[h]; dup {
			t.Errorf("Fingerprint collision: %q and %q both hash to %#x", prev, src, h)
		}
		seen[h] = src
	}
}

func TestFingerprintChaining(t *testing.T) {
	// The chaining helpers are order-dependent: folding the same pieces in
	// a different order yields a different fingerprint, and folding a
	// string is case-insensitive like column resolution.
	a := FingerprintString(FingerprintCombine(FingerprintCombine(7, 1), 2), "AvgP")
	b := FingerprintString(FingerprintCombine(FingerprintCombine(7, 2), 1), "AvgP")
	if a == b {
		t.Fatal("chaining must be order-dependent")
	}
	if FingerprintString(7, "AvgP") != FingerprintString(7, "avgp") {
		t.Fatal("FingerprintString must fold case-insensitively")
	}
	if FingerprintString(7, "AvgP") == FingerprintString(8, "AvgP") {
		t.Fatal("FingerprintString must depend on the incoming hash")
	}
}
