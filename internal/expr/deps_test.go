package expr

import (
	"reflect"
	"testing"
)

func TestDepsCanonicalises(t *testing.T) {
	cases := []struct {
		src  string
		want []string
	}{
		{"Price / 1000", []string{"price"}},
		{"price + PRICE * Price", []string{"price"}}, // case-insensitive dedup
		{"Mileage < 60000 AND Year > 2002", []string{"mileage", "year"}},
		{"Year - 2002 > Mileage / 10000", []string{"mileage", "year"}}, // sorted, not source order
		{"UPPER(Model) = 'JETTA'", []string{"model"}},
		{"Price BETWEEN 1000 AND 2000", []string{"price"}},
		{"Condition IN ('Good', 'Fair')", []string{"condition"}},
		{"1 + 2", nil},
	}
	for _, c := range cases {
		e, err := Parse(c.src)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		if got := Deps(e); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Deps(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}
