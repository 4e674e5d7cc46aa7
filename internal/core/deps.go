package core

import (
	"strings"
	"time"
)

// The dependency surface: Deps() exposes the evaluation pipeline's exact
// stage/column dependency graph — the same nodes, IDs and edges the stage
// fingerprints key on (plan.go) — as a product API. The engine
// turns it into dependents/dependencies/impact/path queries, the server
// serves it at /v1/sessions/{id}/deps, and the REPL renders it for the
// `deps` and `impact` commands.

// DepNode is one node of the dependency graph. Stage nodes carry the
// pipeline's display name as Label and join the last evaluation's plan by
// (ID, Fingerprint), so Cached/Rows/Duration reflect the most recent run;
// base-column leaves ("basecol:<name>") have no execution of their own.
type DepNode struct {
	ID          string        `json:"id"`
	Kind        string        `json:"kind"`
	Label       string        `json:"label"`
	Fingerprint uint64        `json:"fingerprint,omitempty"`
	Cached      bool          `json:"cached,omitempty"`
	Rows        int           `json:"rows,omitempty"`
	Duration    time.Duration `json:"duration,omitempty"`
}

// DepEdge is one directed dependency edge: To depends on From, so impact
// flows From → To.
type DepEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// DepsInfo is the full dependency graph of the current query state. Nodes
// are listed leaves first, then stages in pipeline order; edges follow the
// stage order they were emitted in.
type DepsInfo struct {
	Version int       `json:"version"`
	Nodes   []DepNode `json:"nodes"`
	Edges   []DepEdge `json:"edges"`
}

// Deps returns the dependency graph of the current query state. The sheet
// is evaluated first (best effort — the graph of an erroring state is still
// reported as long as the pipeline builds) so stage nodes carry fresh
// cache/row/duration data.
func (s *Spreadsheet) Deps() (*DepsInfo, error) {
	s.Evaluate() // refresh lastPlan; pipeline errors surface below
	_, stages, err := s.buildPipeline()
	if err != nil {
		return nil, err
	}
	info := &DepsInfo{Version: s.version}
	present := map[string]bool{}
	for _, col := range s.base.Schema {
		n := DepNode{ID: "basecol:" + strings.ToLower(col.Name), Kind: "basecol", Label: col.Name}
		info.Nodes = append(info.Nodes, n)
		present[n.ID] = true
	}
	// Join execution data from the last plan by (ID, fingerprint): a stale
	// plan line (the state changed since) must not claim cache standing for
	// a redefined stage.
	type planKey struct {
		id string
		fp uint64
	}
	planned := map[planKey]StageInfo{}
	if s.lastPlan != nil {
		for _, st := range s.lastPlan.Stages {
			planned[planKey{st.ID, st.Fingerprint}] = st
		}
	}
	for _, st := range stages {
		n := DepNode{ID: st.id, Kind: st.kind.String(), Label: st.name, Fingerprint: st.fp}
		if p, ok := planned[planKey{st.id, st.fp}]; ok {
			n.Cached, n.Rows, n.Duration = p.Cached, p.Rows, p.Duration
		}
		info.Nodes = append(info.Nodes, n)
		present[n.ID] = true
	}
	for _, st := range stages {
		for _, from := range st.deps {
			if !present[from] {
				// A dangling reference (a definition naming a column that no
				// longer exists) still shows up as a leaf so the graph is
				// closed over its edges.
				info.Nodes = append(info.Nodes, DepNode{ID: from, Kind: "basecol", Label: from})
				present[from] = true
			}
			info.Edges = append(info.Edges, DepEdge{From: from, To: st.id})
		}
	}
	return info, nil
}
