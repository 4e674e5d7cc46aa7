package engine

import (
	"fmt"

	"sheetmusiq/internal/core"
	"sheetmusiq/internal/relation"
)

// This file is the read side of the command surface: structured,
// JSON-serialisable views of the session the REPL prints as text and the
// HTTP service returns as bodies. Both are projections of the same
// core.Spreadsheet accessors, so the two front ends always agree.

// SelectionInfo is one live σ instance.
type SelectionInfo struct {
	ID  int    `json:"id"`
	SQL string `json:"sql"`
}

// ComputedInfo is one computed-column definition.
type ComputedInfo struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"` // "aggregate", "formula" or "window"
	Agg     string `json:"agg,omitempty"`
	Input   string `json:"input,omitempty"`
	Level   int    `json:"level,omitempty"`
	Formula string `json:"formula,omitempty"`
	Window  string `json:"window,omitempty"` // OVER-clause SQL of a window column
}

// GroupingInfo is one grouping level below the root.
type GroupingInfo struct {
	Level int      `json:"level"` // 1-based; the root is level 1
	Rel   []string `json:"rel"`
	Dir   string   `json:"dir"`
	By    string   `json:"by,omitempty"`
}

// OrderInfo is one finest-level sort key.
type OrderInfo struct {
	Column string `json:"column"`
	Dir    string `json:"dir"`
}

// StateInfo is the full query state of Sec. V-A, plus session metadata.
type StateInfo struct {
	Sheet      string          `json:"sheet"`
	Version    int             `json:"version"`
	Visible    []string        `json:"visible"`
	Hidden     []string        `json:"hidden,omitempty"`
	Selections []SelectionInfo `json:"selections,omitempty"`
	Computed   []ComputedInfo  `json:"computed,omitempty"`
	Grouping   []GroupingInfo  `json:"grouping,omitempty"`
	Order      []OrderInfo     `json:"order,omitempty"`
	DistinctOn []string        `json:"distinct_on,omitempty"`
	History    []string        `json:"history,omitempty"`
}

// State returns the current sheet's query state.
func (e *Engine) State() (*StateInfo, error) {
	s := e.sheet
	if s == nil {
		return nil, ErrNoSheet
	}
	info := &StateInfo{
		Sheet:   s.Name(),
		Version: s.Version(),
		Visible: s.VisibleSchema().Names(),
		Hidden:  s.HiddenColumns(),
		History: s.History(),
	}
	for _, sel := range s.Selections("") {
		info.Selections = append(info.Selections, SelectionInfo{ID: sel.ID, SQL: sel.Pred.SQL()})
	}
	for _, c := range s.ComputedColumns() {
		ci := ComputedInfo{Name: c.Name}
		switch c.Kind {
		case core.KindAggregate:
			ci.Kind = "aggregate"
			ci.Agg = string(c.Agg)
			ci.Input = c.Input
			ci.Level = c.Level
		case core.KindWindow:
			ci.Kind = "window"
			ci.Window = c.Formula.SQL()
		default:
			ci.Kind = "formula"
			ci.Formula = c.Formula.SQL()
		}
		info.Computed = append(info.Computed, ci)
	}
	for i, g := range s.Grouping() {
		info.Grouping = append(info.Grouping, GroupingInfo{
			Level: i + 2, Rel: g.Rel, Dir: g.Dir.String(), By: g.By})
	}
	for _, k := range s.FinestOrder() {
		info.Order = append(info.Order, OrderInfo{Column: k.Column, Dir: k.Dir.String()})
	}
	info.DistinctOn = s.DistinctColumns()
	return info, nil
}

// Selections lists the live σ instances, optionally filtered to a column.
func (e *Engine) Selections(column string) []SelectionInfo {
	if e.sheet == nil {
		return nil
	}
	var out []SelectionInfo
	for _, sel := range e.sheet.Selections(column) {
		out = append(out, SelectionInfo{ID: sel.ID, SQL: sel.Pred.SQL()})
	}
	return out
}

// Grid is the flat evaluated table: every cell rendered to text, rows in
// presentation order.
type Grid struct {
	Sheet   string     `json:"sheet"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	// Total is the full evaluated row count; len(Rows) may be smaller when
	// a limit applied.
	Total int `json:"total"`
}

// Grid evaluates the sheet and renders at most limit rows (limit <= 0
// renders everything). A limited grid boxes only the rows it renders.
func (e *Engine) Grid(limit int) (*Grid, error) {
	res, err := e.Evaluate()
	if err != nil {
		return nil, err
	}
	total := res.Table.Len()
	var rows []relation.Tuple
	if limit > 0 {
		rows = res.Table.TupleRange(0, min(limit, total))
	} else {
		rows = res.Table.TupleRows()
	}
	g := &Grid{
		Sheet:   e.SheetName(),
		Columns: res.Table.Schema.Names(),
		Rows:    make([][]string, 0, len(rows)),
		Total:   total,
	}
	for _, row := range rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		g.Rows = append(g.Rows, cells)
	}
	return g, nil
}

// TreeNode is the recursive group tree in serialisable form. The root is
// level 1 (grouping by {NULL}); Start/End delimit the node's rows in the
// grid ([Start, End)).
type TreeNode struct {
	Level    int         `json:"level"`
	Basis    []string    `json:"basis,omitempty"` // the level's relative basis attributes
	Key      []string    `json:"key,omitempty"`   // this group's basis values
	Rows     int         `json:"rows"`
	Start    int         `json:"start"`
	End      int         `json:"end"`
	Children []*TreeNode `json:"children,omitempty"`
}

// Tree evaluates the sheet and returns its recursive group tree.
func (e *Engine) Tree() (*TreeNode, error) {
	res, err := e.Evaluate()
	if err != nil {
		return nil, err
	}
	var walk func(g *core.Group) *TreeNode
	walk = func(g *core.Group) *TreeNode {
		n := &TreeNode{Level: g.Level, Rows: g.Rows(), Start: g.Start, End: g.End}
		if g.Level > 1 {
			n.Basis = append([]string(nil), res.Levels[g.Level-2].Rel...)
			for _, v := range g.Key {
				n.Key = append(n.Key, v.String())
			}
		}
		for _, c := range g.Children {
			n.Children = append(n.Children, walk(c))
		}
		return n
	}
	return walk(res.Root), nil
}

// MenuInfo is the contextual menu of Sec. VI for one column.
type MenuInfo struct {
	Column          string          `json:"column"`
	Kind            string          `json:"kind"`
	FilterOps       []string        `json:"filter_ops,omitempty"`
	Aggregates      []string        `json:"aggregates,omitempty"`
	AggregateLevels int             `json:"aggregate_levels"`
	CanGroup        bool            `json:"can_group"`
	CanSortFinest   bool            `json:"can_sort_finest"`
	CanHide         bool            `json:"can_hide"`
	CanReinstate    bool            `json:"can_reinstate"`
	Selections      []SelectionInfo `json:"selections,omitempty"`
}

// Menu computes the contextual menu for the named column.
func (e *Engine) Menu(column string) (*MenuInfo, error) {
	if e.sheet == nil {
		return nil, ErrNoSheet
	}
	if column == "" {
		return nil, fmt.Errorf("engine: menu needs a column")
	}
	m, err := e.sheet.Suggest(column)
	if err != nil {
		return nil, err
	}
	info := &MenuInfo{
		Column:          m.Column,
		Kind:            m.Kind.String(),
		FilterOps:       m.FilterOps,
		AggregateLevels: m.AggregateLevels,
		CanGroup:        m.CanGroup,
		CanSortFinest:   m.CanSortFinest,
		CanHide:         m.CanHide,
		CanReinstate:    m.CanReinstate,
	}
	for _, a := range m.Aggregates {
		info.Aggregates = append(info.Aggregates, string(a))
	}
	for _, sel := range m.ExistingSelections {
		info.Selections = append(info.Selections, SelectionInfo{ID: sel.ID, SQL: sel.Pred.SQL()})
	}
	return info, nil
}

// PlanStage is one pipeline stage of the most recent evaluation.
// Fingerprint is the stage's DAG-keyed content hash, rendered as hex so
// JSON clients need not handle 64-bit integers. ID is the stable node ID
// shared with the dependency surface (deps.go), so /plan and /deps lines
// cross-reference.
type PlanStage struct {
	ID          string  `json:"id"`
	Name        string  `json:"name"`
	Fingerprint string  `json:"fingerprint"`
	Cached      bool    `json:"cached"`
	Rows        int     `json:"rows"`
	DurationMS  float64 `json:"duration_ms"`
}

// PlanInfo is the evaluation stage plan: which pipeline stages the last
// Evaluate reused from the snapshot cache and which it recomputed, with
// per-stage row counts and recompute timings. Error is set when the
// evaluation aborted mid-pipeline (the stages reached are still listed).
type PlanInfo struct {
	Sheet   string      `json:"sheet"`
	Version int         `json:"version"`
	Stages  []PlanStage `json:"stages"`
	Error   string      `json:"error,omitempty"`
}

// Lines renders the plan as the text the REPL's `explain` command prints —
// the same data the /plan endpoint returns structurally.
func (p *PlanInfo) Lines() []string {
	out := make([]string, 0, len(p.Stages)+1)
	for i, st := range p.Stages {
		marker := "recomputed"
		if st.Cached {
			marker = "cached"
		}
		line := fmt.Sprintf("stage %d: %-28s %-10s %d rows", i+1, st.Name, marker, st.Rows)
		if !st.Cached && st.DurationMS > 0 {
			line += fmt.Sprintf("  %.2fms", st.DurationMS)
		}
		out = append(out, line)
	}
	if p.Error != "" {
		out = append(out, "error: "+p.Error)
	}
	return out
}

// Plan evaluates the current sheet (memoised when the version is unchanged)
// and returns its stage plan.
func (e *Engine) Plan() (*PlanInfo, error) {
	if e.sheet == nil {
		return nil, ErrNoSheet
	}
	plan, err := e.sheet.Plan()
	if err != nil {
		return nil, err
	}
	info := &PlanInfo{Sheet: e.SheetName(), Version: plan.Version, Error: plan.Error}
	for _, st := range plan.Stages {
		info.Stages = append(info.Stages, PlanStage{
			ID:          st.ID,
			Name:        st.Name,
			Fingerprint: fmt.Sprintf("%016x", st.Fingerprint),
			Cached:      st.Cached,
			Rows:        st.Rows,
			DurationMS:  float64(st.Duration) / 1e6,
		})
	}
	return info, nil
}
