package expr

import (
	"sort"
	"strings"
)

// Dependency extraction for expression trees. The incremental pipeline
// (internal/core) keys cached stage artifacts by a fingerprint derived from
// exactly the inputs a stage reads; Deps names those inputs so the stage
// dependency graph — and the graph-exact invalidation built on it — can be
// assembled without re-walking trees per evaluation.

// Deps returns the canonical referenced-column set of e: lower-cased,
// deduplicated and sorted. Columns resolve case-insensitively throughout the
// algebra, so the lower-cased spelling is the dependency identity; sorting
// makes the set stable under structurally equivalent rewrites of e, which is
// what lets dependency edges be compared across Clone()d sheets.
func Deps(e Expr) []string {
	seen := map[string]bool{}
	var out []string
	e.walk(func(n Expr) {
		if c, ok := n.(*ColumnRef); ok {
			k := strings.ToLower(c.Name)
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	})
	sort.Strings(out)
	return out
}
