package core

import (
	"fmt"
	"strings"

	"sheetmusiq/internal/expr"
	"sheetmusiq/internal/value"
)

// This file implements Sec. V: query modification through the query state.
// Because the unary operators commute (Theorem 2), replacing or deleting
// one stored operator instance and re-evaluating is equivalent to rewriting
// the entire operation history (Theorem 3).

// ReplaceSelection swaps the predicate of an existing σ instance, the
// paper's motivating "change Year = 2005 to Year = 2006" interaction
// (Tables IV → V). The rest of the state is untouched.
func (s *Spreadsheet) ReplaceSelection(id int, predicate string) error {
	e, err := expr.Parse(predicate)
	if err != nil {
		return err
	}
	kind, err := expr.Check(e, s.columnKind)
	if err != nil {
		return err
	}
	if kind != value.KindBool && kind != value.KindNull {
		return fmt.Errorf("core: selection predicate must be boolean, got %s", kind)
	}
	if expr.ContainsAggregate(e) {
		return fmt.Errorf("core: aggregates are created with Aggregate, not inline in predicates")
	}
	if expr.ContainsWindow(e) {
		return fmt.Errorf("core: window functions are created with Window, not inline in predicates")
	}
	for i, sel := range s.state.selections {
		if sel.ID == id {
			before := s.begin()
			old := s.state.selections[i].Pred.SQL()
			s.state.selections[i].Pred = e
			s.commit(before, fmt.Sprintf("modify σ#%d %s → %s", id, old, e.SQL()))
			return nil
		}
	}
	return fmt.Errorf("core: no selection #%d", id)
}

// RemoveSelection deletes a σ instance from history entirely.
func (s *Spreadsheet) RemoveSelection(id int) error {
	for i, sel := range s.state.selections {
		if sel.ID == id {
			before := s.begin()
			s.state.selections = append(s.state.selections[:i:i], s.state.selections[i+1:]...)
			s.commit(before, fmt.Sprintf("remove σ#%d %s", id, sel.Pred.SQL()))
			return nil
		}
	}
	return fmt.Errorf("core: no selection #%d", id)
}

// dependents lists everything that requires the named column: selections,
// computed columns, grouping bases, ordering keys, and the DE record. The
// paper: "we can remove an aggregate column, provided that no operator
// depends on it".
func (s *Spreadsheet) dependents(col string) []string {
	var out []string
	for _, sel := range s.state.selections {
		if expr.References(sel.Pred, col) {
			out = append(out, fmt.Sprintf("selection #%d (%s)", sel.ID, sel.Pred.SQL()))
		}
	}
	for _, c := range s.state.computed {
		if strings.EqualFold(c.Name, col) {
			continue
		}
		if c.dependsOn(col) {
			out = append(out, "computed column "+c.Name)
		}
	}
	for li, g := range s.state.grouping {
		for _, a := range g.Rel {
			if strings.EqualFold(a, col) {
				out = append(out, fmt.Sprintf("grouping level %d", li+2))
			}
		}
		if strings.EqualFold(g.By, col) {
			out = append(out, fmt.Sprintf("group ordering at level %d", li+1))
		}
	}
	for _, k := range s.state.finest {
		if strings.EqualFold(k.Column, col) {
			out = append(out, "ordering key "+k.Column)
		}
	}
	return out
}

// RemoveComputed deletes an η or θ column definition. It fails while other
// operators depend on the column; remove the dependents first (Sec. V-B).
func (s *Spreadsheet) RemoveComputed(name string) error {
	idx := -1
	for i, c := range s.state.computed {
		if strings.EqualFold(c.Name, name) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("core: no computed column %q", name)
	}
	if deps := s.dependents(name); len(deps) > 0 {
		return fmt.Errorf("core: cannot remove %q: depended on by %s", name, strings.Join(deps, "; "))
	}
	before := s.begin()
	s.state.computed = append(s.state.computed[:idx:idx], s.state.computed[idx+1:]...)
	s.commit(before, "remove column "+name)
	return nil
}

// Ungroup removes the finest grouping level (level = levelCount), refusing
// while aggregates depend on it. The level's relative basis does not return
// to the finest ordering automatically; the user orders explicitly.
func (s *Spreadsheet) Ungroup() error {
	if len(s.state.grouping) == 0 {
		return fmt.Errorf("core: spreadsheet is not grouped")
	}
	level := s.state.levelCount()
	for _, c := range s.state.computed {
		if c.Kind == KindAggregate && c.Level >= level {
			return fmt.Errorf("core: aggregate %q depends on grouping level %d; remove it first", c.Name, c.Level)
		}
	}
	before := s.begin()
	s.state.grouping = s.state.grouping[:len(s.state.grouping)-1]
	s.commit(before, fmt.Sprintf("ungroup level %d", level))
	return nil
}

// ClearGrouping removes every grouping level (the interface's "destroy the
// current grouping and use this new one instead" path), refusing while any
// aggregate depends on a level above the root.
func (s *Spreadsheet) ClearGrouping() error {
	if len(s.state.grouping) == 0 {
		return nil
	}
	for _, c := range s.state.computed {
		if c.Kind == KindAggregate && c.Level > 1 {
			return fmt.Errorf("core: aggregate %q depends on grouping level %d; remove it first", c.Name, c.Level)
		}
	}
	before := s.begin()
	s.state.grouping = nil
	s.commit(before, "clear grouping")
	return nil
}

// RemoveOrdering drops the finest-level sort key on the given column.
func (s *Spreadsheet) RemoveOrdering(column string) error {
	for i, k := range s.state.finest {
		if strings.EqualFold(k.Column, column) {
			before := s.begin()
			s.state.finest = append(s.state.finest[:i:i], s.state.finest[i+1:]...)
			s.commit(before, "remove ordering "+column)
			return nil
		}
	}
	return fmt.Errorf("core: no finest-level ordering on %q", column)
}

// RemoveDistinct cancels a previously applied δ.
func (s *Spreadsheet) RemoveDistinct() error {
	if s.state.distinctOn == nil {
		return fmt.Errorf("core: duplicate elimination is not active")
	}
	before := s.begin()
	s.state.distinctOn = nil
	s.commit(before, "remove distinct")
	return nil
}
