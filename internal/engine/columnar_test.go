package engine

import (
	"testing"

	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/tpch"
)

// TestStudyTaskLeavesBaseUnboxed: a sheet over a column-built base runs a
// study task and renders a page while the base keeps its typed columns —
// evaluation reads them in place and replaces none, and the page boxes only
// its own cells.
func TestStudyTaskLeavesBaseUnboxed(t *testing.T) {
	e := New(nil)
	must(t, e, Op{Op: "demo", Table: "tpch"})
	for _, task := range tpch.Tasks() {
		view, _ := e.DB().Table(task.ViewName)
		base := relation.FromColumns(view.Name, view.Schema, view.Columns(), view.Len())
		e.DB().Register(base)
		must(t, e, Op{Op: "use", Table: task.ViewName})
		for i, st := range task.Steps {
			if err := st.Apply(e.Sheet()); err != nil {
				t.Fatalf("task %d step %d: %v", task.ID, i, err)
			}
		}
		if _, err := e.Grid(50); err != nil {
			t.Fatalf("task %d: %v", task.ID, err)
		}
		for j, c := range base.Columns() {
			if c != view.Columns()[j] || c.Boxed != nil {
				t.Fatalf("task %d: column %s of %s was replaced or boxed", task.ID, base.Schema[j].Name, task.ViewName)
			}
		}
	}
}
