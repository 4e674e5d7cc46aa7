package core

import (
	"fmt"
	"strings"
)

// This file implements an extension beyond the paper's Def. 4: ordering
// sibling groups by a computed value rather than by their grouping basis.
//
// The paper's λ can only order groups by the attributes of the grouping
// basis, yet its own evaluation workload wants "ORDER BY revenue DESC" —
// ordering the level-l groups by an aggregate computed over each group.
// OrderGroupsBy fills that gap: the sort key for the children of level
// `level` becomes the named column (which must be constant within each
// child group — an aggregate at the children's level, or a basis
// attribute), with the relative basis as the tiebreak. DESIGN.md lists
// this as an implemented extension; it maps exactly onto SQL's ORDER BY
// over an aggregate output.

// OrderGroupsBy orders the child groups of the given 1-based level by the
// named column. The column must be constant within each child group: an
// aggregate computed at level+1, or an attribute of the cumulative basis
// of level+1. Passing an empty column restores the default basis ordering.
func (s *Spreadsheet) OrderGroupsBy(level int, column string, dir Dir) error {
	n := s.state.levelCount()
	if level < 1 || level >= n {
		return fmt.Errorf("core: level %d has no child groups (levels 1..%d)", level, n-1)
	}
	g := &s.state.grouping[level-1] // children of level l
	if column == "" {
		before := s.begin()
		g.By = ""
		g.Dir = dir
		s.commit(before, fmt.Sprintf("λ* level %d restored to basis order %s", level, dir))
		return nil
	}
	if !s.hasColumn(column) {
		return fmt.Errorf("core: unknown column %q", column)
	}
	if !s.constantWithin(level+1, column) {
		return fmt.Errorf("core: column %q is not constant within level-%d groups; order groups by an aggregate at that level or a basis attribute", column, level+1)
	}
	before := s.begin()
	g.By = column
	g.Dir = dir
	s.commit(before, fmt.Sprintf("λ* groups at level %d by %s %s", level, column, dir))
	return nil
}

// constantWithin reports whether the column provably holds one value per
// group at the given level: it is in the cumulative basis, or it is an
// aggregate computed at that level or shallower.
func (s *Spreadsheet) constantWithin(level int, column string) bool {
	for _, a := range s.state.cumulativeBasis(level) {
		if strings.EqualFold(a, column) {
			return true
		}
	}
	if c := s.state.findComputed(column); c != nil && c.Kind == KindAggregate && c.Level <= level {
		return true
	}
	return false
}
