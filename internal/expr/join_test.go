package expr

import (
	"fmt"
	"testing"

	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

// TestEquiKeysExtraction pins the one key extractor ⋈ and SQL JOIN share:
// top-level AND-ed equalities between a bare column of each side, in
// either orientation, become keys; anything else is left to the filter.
func TestEquiKeysExtraction(t *testing.T) {
	schema := relation.Schema{
		{Name: "a", Kind: value.KindInt},
		{Name: "b", Kind: value.KindInt},
		{Name: "x", Kind: value.KindInt},
		{Name: "y", Kind: value.KindInt},
	}
	resolve := func(name string) (int, bool) {
		i := schema.IndexOf(name)
		return i, i >= 0
	}
	cases := []struct {
		cond     string
		wantL    []int
		wantR    []int
		keysOnly bool
	}{
		{"a = x", []int{0}, []int{0}, true},
		{"x = a", []int{0}, []int{0}, true},                 // orientation-insensitive
		{"a = x AND b = y", []int{0, 1}, []int{0, 1}, true}, // both conjuncts
		{"a = x AND b > y", []int{0}, []int{0}, false},      // residual theta kept out
		{"a = b", nil, nil, false},                          // same-side equality
		{"a = x OR b = y", nil, nil, false},                 // OR is not conjunctive
		{"a + 1 = x", nil, nil, false},                      // not a bare column ref
	}
	for _, c := range cases {
		e, err := Parse(c.cond)
		if err != nil {
			t.Fatal(err)
		}
		l, r, keysOnly := equiKeys(e, resolve, 2)
		if fmt.Sprint(l) != fmt.Sprint(c.wantL) || fmt.Sprint(r) != fmt.Sprint(c.wantR) || keysOnly != c.keysOnly {
			t.Fatalf("equiKeys(%q) = %v,%v,%v want %v,%v,%v", c.cond, l, r, keysOnly, c.wantL, c.wantR, c.keysOnly)
		}
	}
}
