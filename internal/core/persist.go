package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"sheetmusiq/internal/expr"
	"sheetmusiq/internal/relation"
)

// This file persists the query state — the durable half of a spreadsheet
// session. Because the state is an unordered operator collection (Sec. V-A)
// and expressions round-trip through their SQL rendering, a session can be
// saved as a small JSON document and rebuilt against the same base relation
// later.
//
// Two documents share the machinery: MarshalState/RestoreState persist the
// current query state only (savestate/loadstate — undo/redo history is
// interaction state, not query state, and stays out of those files), while
// MarshalFull/RestoreFull additionally persist the undo/redo stacks — each
// stack entry is itself just a query state plus its history line — so a
// crash-recovery checkpoint can reproduce the complete interaction state.

// stateJSON is the serialised form. Expressions are stored as SQL text.
type stateJSON struct {
	Format     int            `json:"format"`
	Name       string         `json:"name"`
	BaseName   string         `json:"base_name"`
	BaseSchema []columnJSON   `json:"base_schema"`
	Selections []selJSON      `json:"selections,omitempty"`
	Computed   []computedJSON `json:"computed,omitempty"`
	Hidden     []string       `json:"hidden,omitempty"`
	Distinct   *[]string      `json:"distinct,omitempty"`
	Grouping   []groupJSON    `json:"grouping,omitempty"`
	Finest     []sortJSON     `json:"finest,omitempty"`
	NextSelID  int            `json:"next_sel_id"`
	Log        []string       `json:"log,omitempty"`
}

type columnJSON struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

type selJSON struct {
	ID   int    `json:"id"`
	Pred string `json:"pred"`
}

type computedJSON struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"` // "aggregate", "formula" or "window"
	Agg     string `json:"agg,omitempty"`
	Input   string `json:"input,omitempty"`
	Level   int    `json:"level,omitempty"`
	Formula string `json:"formula,omitempty"`
	// Window definitions round-trip through their OVER-clause SQL rendering
	// (expr's printer → expr.Parse), like predicates and formulas.
	Window string `json:"window,omitempty"`
}

type groupJSON struct {
	Rel []string `json:"rel"`
	Dir string   `json:"dir"`
	By  string   `json:"by,omitempty"`
}

type sortJSON struct {
	Column string `json:"column"`
	Dir    string `json:"dir"`
}

// stateFormat versions the persisted layout.
const stateFormat = 1

// MarshalState serialises the current query state (not the data, not the
// undo history).
func (s *Spreadsheet) MarshalState() ([]byte, error) {
	out := s.encodeState(s.state)
	out.Log = s.log
	return json.MarshalIndent(out, "", "  ")
}

// encodeState renders one query state (the live one or an undo/redo
// snapshot's) as a stateJSON document against the spreadsheet's base. The
// history log is spreadsheet-level, not per-state, so it is NOT included
// here — top-level marshalers attach it once. (Embedding it per state made
// full-state checkpoints quadratic: every stack entry repeated the whole
// log.)
func (s *Spreadsheet) encodeState(st *queryState) stateJSON {
	out := stateJSON{
		Format:    stateFormat,
		Name:      s.name,
		BaseName:  s.base.Name,
		NextSelID: st.nextSelID,
		Hidden:    st.hidden,
	}
	for _, c := range s.base.Schema {
		out.BaseSchema = append(out.BaseSchema, columnJSON{Name: c.Name, Kind: c.Kind.String()})
	}
	for _, sel := range st.selections {
		out.Selections = append(out.Selections, selJSON{ID: sel.ID, Pred: sel.Pred.SQL()})
	}
	for _, c := range st.computed {
		cj := computedJSON{Name: c.Name}
		switch c.Kind {
		case KindAggregate:
			cj.Kind = "aggregate"
			cj.Agg = string(c.Agg)
			cj.Input = c.Input
			cj.Level = c.Level
		case KindWindow:
			cj.Kind = "window"
			cj.Window = c.Formula.SQL()
		default:
			cj.Kind = "formula"
			cj.Formula = c.Formula.SQL()
		}
		out.Computed = append(out.Computed, cj)
	}
	if st.distinctOn != nil {
		d := append([]string(nil), st.distinctOn...)
		out.Distinct = &d
	}
	for _, g := range st.grouping {
		out.Grouping = append(out.Grouping, groupJSON{Rel: g.Rel, Dir: g.Dir.String(), By: g.By})
	}
	for _, k := range st.finest {
		out.Finest = append(out.Finest, sortJSON{Column: k.Column, Dir: k.Dir.String()})
	}
	return out
}

// RestoreState rebuilds a spreadsheet from serialised state against the
// given base relation, validating that the base matches the one the state
// was saved from (same relation name and column layout).
func RestoreState(base *relation.Relation, data []byte) (*Spreadsheet, error) {
	var in stateJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	if in.Format != stateFormat {
		return nil, fmt.Errorf("core: restore: unsupported state format %d", in.Format)
	}
	if err := checkBase(base, in); err != nil {
		return nil, err
	}
	s := New(base)
	s.name = in.Name
	s.log = in.Log
	if err := decodeState(s, in); err != nil {
		return nil, err
	}
	s.version = len(s.log)
	return s, nil
}

// checkBase validates that a persisted state was saved over a base relation
// with this name and column layout.
func checkBase(base *relation.Relation, in stateJSON) error {
	if !strings.EqualFold(in.BaseName, base.Name) {
		return fmt.Errorf("core: restore: state was saved over relation %q, not %q", in.BaseName, base.Name)
	}
	if len(in.BaseSchema) != len(base.Schema) {
		return fmt.Errorf("core: restore: base has %d columns, state expects %d", len(base.Schema), len(in.BaseSchema))
	}
	for i, c := range in.BaseSchema {
		if !strings.EqualFold(c.Name, base.Schema[i].Name) || c.Kind != base.Schema[i].Kind.String() {
			return fmt.Errorf("core: restore: base column %d is %s %s, state expects %s %s",
				i, base.Schema[i].Name, base.Schema[i].Kind, c.Name, c.Kind)
		}
	}
	return nil
}

// decodeState fills s.state from a persisted document and validates the
// assembled state end to end against s's base relation.
func decodeState(s *Spreadsheet, in stateJSON) error {
	st := s.state
	st.nextSelID = in.NextSelID
	st.hidden = in.Hidden
	for _, sel := range in.Selections {
		e, err := expr.Parse(sel.Pred)
		if err != nil {
			return fmt.Errorf("core: restore selection #%d: %w", sel.ID, err)
		}
		st.selections = append(st.selections, Selection{ID: sel.ID, Pred: e})
	}
	for _, g := range in.Grouping {
		dir, err := ParseDir(g.Dir)
		if err != nil {
			return fmt.Errorf("core: restore grouping: %w", err)
		}
		st.grouping = append(st.grouping, GroupLevel{Rel: g.Rel, Dir: dir, By: g.By})
	}
	for _, c := range in.Computed {
		switch c.Kind {
		case "aggregate":
			fn, err := relation.ParseAggFunc(c.Agg)
			if err != nil {
				return fmt.Errorf("core: restore column %s: %w", c.Name, err)
			}
			inKind, ok := s.columnKind(c.Input)
			if !ok {
				return fmt.Errorf("core: restore column %s: input %q missing", c.Name, c.Input)
			}
			if c.Level < 1 || c.Level > st.levelCount() {
				return fmt.Errorf("core: restore column %s: level %d out of range", c.Name, c.Level)
			}
			st.computed = append(st.computed, &ComputedColumn{
				Name: c.Name, Kind: KindAggregate, Agg: fn, Input: c.Input,
				Level: c.Level, ResultKind: fn.ResultKind(inKind),
			})
		case "formula":
			e, err := expr.Parse(c.Formula)
			if err != nil {
				return fmt.Errorf("core: restore column %s: %w", c.Name, err)
			}
			kind, err := expr.Check(e, s.columnKind)
			if err != nil {
				return fmt.Errorf("core: restore column %s: %w", c.Name, err)
			}
			st.computed = append(st.computed, &ComputedColumn{
				Name: c.Name, Kind: KindFormula, Formula: e, ResultKind: kind,
			})
		case "window":
			e, err := expr.Parse(c.Window)
			if err != nil {
				return fmt.Errorf("core: restore column %s: %w", c.Name, err)
			}
			w, ok := e.(*expr.WindowCall)
			if !ok {
				return fmt.Errorf("core: restore column %s: %q is not a window expression", c.Name, c.Window)
			}
			kind, err := s.checkWindow(w)
			if err != nil {
				return fmt.Errorf("core: restore column %s: %w", c.Name, err)
			}
			st.computed = append(st.computed, &ComputedColumn{
				Name: c.Name, Kind: KindWindow, Formula: w, ResultKind: kind,
			})
		default:
			return fmt.Errorf("core: restore: unknown computed kind %q", c.Kind)
		}
	}
	if in.Distinct != nil {
		st.distinctOn = *in.Distinct
		if st.distinctOn == nil {
			st.distinctOn = []string{}
		}
	}
	for _, k := range in.Finest {
		dir, err := ParseDir(k.Dir)
		if err != nil {
			return fmt.Errorf("core: restore ordering: %w", err)
		}
		st.finest = append(st.finest, SortKey{Column: k.Column, Dir: dir})
	}
	// Validate the assembled state end to end: every referenced column must
	// resolve and depths must be acyclic.
	for _, sel := range st.selections {
		if _, err := expr.Check(sel.Pred, s.columnKind); err != nil {
			return fmt.Errorf("core: restore selection #%d: %w", sel.ID, err)
		}
		if _, err := s.ExprDepth(sel.Pred); err != nil {
			return fmt.Errorf("core: restore selection #%d: %w", sel.ID, err)
		}
	}
	for _, c := range st.computed {
		if _, err := s.aggDepth(c.Name, map[string]bool{}); err != nil {
			return fmt.Errorf("core: restore: %w", err)
		}
	}
	for _, g := range st.grouping {
		if len(g.Rel) == 0 {
			return fmt.Errorf("core: restore: grouping level with no attribute")
		}
		for _, a := range g.Rel {
			if !s.hasColumn(a) {
				return fmt.Errorf("core: restore: grouping attribute %q missing", a)
			}
		}
		if g.By != "" && !s.hasColumn(g.By) {
			return fmt.Errorf("core: restore: group-order column %q missing", g.By)
		}
	}
	for _, k := range st.finest {
		if !s.hasColumn(k.Column) {
			return fmt.Errorf("core: restore: ordering column %q missing", k.Column)
		}
	}
	return nil
}

// fullFormat versions the full-interaction-state layout (MarshalFull).
const fullFormat = 2

// ErrHistoryNotPortable reports that the undo/redo history spans a base
// change (a binary operator replaced the base relation mid-history), so the
// full interaction state cannot be re-attached to a single stored relation.
var ErrHistoryNotPortable = errors.New("core: undo/redo history spans a base change")

// histJSON is one undo/redo stack entry: the query state to restore and the
// history line of the operator it sits under.
type histJSON struct {
	State stateJSON `json:"state"`
	Entry string    `json:"entry"`
}

// fullJSON is the serialised complete interaction state.
type fullJSON struct {
	Format  int        `json:"format"`
	State   stateJSON  `json:"state"`
	Undo    []histJSON `json:"undo,omitempty"`
	Redo    []histJSON `json:"redo,omitempty"`
	Version int        `json:"version"`
}

// MarshalFull serialises the complete interaction state: the current query
// state plus the undo/redo stacks and the operator counter. Restoring it
// reproduces the session exactly — including what Undo and Redo would do —
// which is what a crash-recovery checkpoint needs. It fails with
// ErrHistoryNotPortable when any stack entry was taken over a different
// base relation (the history crosses a binary operator); callers then fall
// back to MarshalState and accept the weaker document.
func (s *Spreadsheet) MarshalFull() ([]byte, error) {
	for _, sn := range s.undo {
		if sn.base != s.base {
			return nil, ErrHistoryNotPortable
		}
	}
	for _, sn := range s.redo {
		if sn.base != s.base {
			return nil, ErrHistoryNotPortable
		}
	}
	out := fullJSON{
		Format:  fullFormat,
		State:   s.encodeState(s.state),
		Version: s.version,
	}
	out.State.Log = s.log
	for _, sn := range s.undo {
		out.Undo = append(out.Undo, histJSON{State: s.encodeState(sn.state), Entry: sn.entry})
	}
	for _, sn := range s.redo {
		out.Redo = append(out.Redo, histJSON{State: s.encodeState(sn.state), Entry: sn.entry})
	}
	// Compact, not indented: checkpoints are machine-read on recovery, and
	// a deep stack makes this the hottest marshal in the serving path.
	return json.Marshal(out)
}

// RestoreFull rebuilds a spreadsheet — current state, undo/redo stacks, and
// operator counter — from a MarshalFull document against the given base.
func RestoreFull(base *relation.Relation, data []byte) (*Spreadsheet, error) {
	var in fullJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	if in.Format != fullFormat {
		return nil, fmt.Errorf("core: restore: unsupported full-state format %d", in.Format)
	}
	if err := checkBase(base, in.State); err != nil {
		return nil, err
	}
	s := New(base)
	s.name = in.State.Name
	s.log = in.State.Log
	if err := decodeState(s, in.State); err != nil {
		return nil, err
	}
	// Each stack entry decodes against its own validation context (a
	// historical state's selections may reference computed columns the
	// current state no longer has), so build it through a scratch sheet.
	decodeEntry := func(h histJSON, stack string, depth int) (*queryState, error) {
		t := New(base)
		if err := decodeState(t, h.State); err != nil {
			return nil, fmt.Errorf("core: restore %s entry %d: %w", stack, depth, err)
		}
		return t.state, nil
	}
	for i, h := range in.Undo {
		st, err := decodeEntry(h, "undo", i)
		if err != nil {
			return nil, err
		}
		s.undo = append(s.undo, snapshot{base: base, state: st, entry: h.Entry})
	}
	for i, h := range in.Redo {
		st, err := decodeEntry(h, "redo", i)
		if err != nil {
			return nil, err
		}
		s.redo = append(s.redo, snapshot{base: base, state: st, entry: h.Entry})
	}
	s.version = in.Version
	return s, nil
}

// SchemaFingerprint summarises the base schema for external integrity
// checks (e.g. pairing a state file with a CSV snapshot).
func (s *Spreadsheet) SchemaFingerprint() string {
	parts := make([]string, len(s.base.Schema))
	for i, c := range s.base.Schema {
		parts[i] = c.Name + ":" + c.Kind.String()
	}
	return strings.Join(parts, ",")
}
