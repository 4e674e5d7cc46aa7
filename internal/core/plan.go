package core

import (
	"fmt"
	"strings"
	"time"

	"sheetmusiq/internal/expr"
	"sheetmusiq/internal/relation"
)

// The evaluation pipeline. buildPipeline compiles the query state into an
// ordered list of named stage nodes — base materialisation, then per depth d
// the aggregate fills, window fills, formula fills and selections of depth d
// (duplicate elimination after the depth-0 selections), then the
// presentation ordering.
//
// Fingerprints are DAG-keyed, not chained linearly: each stage's fingerprint
// folds in exactly the inputs its artifact is derived from — the row-stage
// fingerprint at its depth's entry (the multiset it reads) plus the
// content fingerprints of the columns it references (expr.Deps names them) —
// and nothing else. A mutation therefore changes the fingerprints of
// precisely the stages reachable from it in the dependency graph: editing
// one predicate leaves sibling predicates at the same depth, and every
// column stage not referencing it, with intact fingerprints and live cache
// entries. This is Theorem 2's commutativity made operational — operators
// that commute share no dependency edge, so neither's artifact keys on the
// other. It is also the whole invalidation model (Theorem 3: editing a
// stored operator is rewriting the history): mutators only edit the query
// state, and a stage whose fingerprint did not change reuses its artifact
// from the plain LRU in snapcache.go.
//
// Column fingerprints (colFPs) deliberately exclude the column's *name*:
// they key the definition's content, so two identically defined columns
// share one artifact (the apply closure reattaches each stage's own name),
// and the same keys can later address a cross-session artifact catalog.
//
// Stable node IDs tie the pipeline to the product dependency surface
// (deps.go): "base"; "col:<name>" for η/ω/θ columns; "sel:<id>" for σ
// predicates; "and:d<depth>" for the per-depth σ conjunction; "distinct";
// "order". Graph-only leaves use "basecol:<name>". Plan() reports the same
// IDs, so /plan and /deps cross-reference.
//
// Selections at one depth split into independent parts: with k ≥ 1
// predicates at depth d, each σ filters the depth's entry multiset on its
// own (its artifact is reusable no matter what its siblings do) and one ∧
// stage intersects the survivor sets in entry order — bit-identical to
// chained filtering, since filters commute and entry order is preserved. A
// part whose predicate errors reports no artifact; the ∧ stage then replays
// the depth's predicates chained sequentially, reproducing the exact
// first-error-or-success of the pre-split pipeline (a row that errors under
// an independent part may be filtered away by an earlier sibling in the
// chained order). A one-part ∧ passes its part's index vector through.

// stageKind classifies pipeline nodes.
type stageKind uint8

const (
	stageBase stageKind = iota
	stageAgg
	stageFormula
	stageSelect
	stageDistinct
	stageOrder
	stageWindow
	stageCombine
)

// String names the kind for the dependency surface.
func (k stageKind) String() string {
	switch k {
	case stageBase:
		return "base"
	case stageAgg:
		return "aggregate"
	case stageFormula:
		return "formula"
	case stageSelect:
		return "selection"
	case stageDistinct:
		return "distinct"
	case stageOrder:
		return "order"
	case stageWindow:
		return "window"
	case stageCombine:
		return "combine"
	}
	return "unknown"
}

// stageNode is one executable node of the pipeline.
type stageNode struct {
	kind  stageKind
	id    string   // stable node ID, shared by Plan() and Deps()
	name  string   // display name, paper glyphs: "η AvgP d1", "σ Year >= 2003"
	fp    uint64   // DAG-keyed content fingerprint
	deps  []string // direct dependency node IDs (graph edges point here → id)
	run   func(ev *evalCtx, cur *stageSnap) (*stageArtifact, error)
	apply func(cur *stageSnap, art *stageArtifact) *stageSnap
}

// StageInfo describes one pipeline stage of the most recent evaluation —
// the explain surface shared by the REPL `explain` command and the
// server's /plan endpoint. ID is the stable node ID also used by Deps().
type StageInfo struct {
	ID          string        `json:"id"`
	Name        string        `json:"name"`
	Fingerprint uint64        `json:"fingerprint"`
	Cached      bool          `json:"cached"`
	Rows        int           `json:"rows"`
	Duration    time.Duration `json:"duration"`
}

// EvalPlan is the stage plan of one evaluation. Error carries the failing
// stage's message when the evaluation aborted mid-pipeline (the plan then
// covers the stages reached).
type EvalPlan struct {
	Version int         `json:"version"`
	Stages  []StageInfo `json:"stages"`
	Error   string      `json:"error,omitempty"`
}

// Plan evaluates the sheet (served from the memo when the version is
// unchanged) and returns the resulting stage plan. On an evaluation error
// the plan is still returned when the pipeline was built, with Error set.
func (s *Spreadsheet) Plan() (*EvalPlan, error) {
	_, err := s.Evaluate()
	if s.lastPlan == nil {
		if err == nil {
			err = fmt.Errorf("core: no evaluation plan recorded")
		}
		return nil, err
	}
	out := &EvalPlan{
		Version: s.lastPlan.Version,
		Stages:  append([]StageInfo(nil), s.lastPlan.Stages...),
		Error:   s.lastPlan.Error,
	}
	if err != nil && out.Error == "" {
		out.Error = err.Error()
	}
	return out, nil
}

// Fingerprint chaining shorthands. The mixing discipline lives in
// internal/expr so predicate fingerprints and stage fingerprints cannot
// drift apart.
func fpU(h, x uint64) uint64        { return expr.FingerprintCombine(h, x) }
func fpS(h uint64, s string) uint64 { return expr.FingerprintString(h, s) }

func fpDir(h uint64, desc bool) uint64 {
	if desc {
		return fpU(h, 2)
	}
	return fpU(h, 1)
}

// selBlock is the per-evaluation scratch tying a depth's σ parts to their ∧
// stage: part stages record their artifacts here (on hit and on recompute
// alike — the ∧ must never re-read the cache, a part could be evicted
// mid-evaluation) and the ∧ stage intersects them. A nil artifact marks a
// part whose predicate errored; the ∧ then falls back to chained replay.
type selBlock struct {
	sels []Selection
	arts []*stageArtifact
}

// rowArtifact adapts a row-stage body (base, δ): the artifact owns the
// stage's surviving index vector.
func rowArtifact(inner func(*evalCtx, *stageSnap) (*stageSnap, error)) func(*evalCtx, *stageSnap) (*stageArtifact, error) {
	return func(ev *evalCtx, cur *stageSnap) (*stageArtifact, error) {
		next, err := inner(ev, cur)
		if err != nil {
			return nil, err
		}
		return &stageArtifact{idx: next.idx, ownBytes: next.ownBytes}, nil
	}
}

// colArtifact adapts a column-stage body (η, ω, θ): the artifact owns the
// freshly filled column vector, name-agnostically.
func colArtifact(inner func(*evalCtx, *stageSnap) (*stageSnap, error)) func(*evalCtx, *stageSnap) (*stageArtifact, error) {
	return func(ev *evalCtx, cur *stageSnap) (*stageArtifact, error) {
		next, err := inner(ev, cur)
		if err != nil {
			return nil, err
		}
		return &stageArtifact{col: next.cols[len(next.cols)-1].col, ownBytes: next.ownBytes}, nil
	}
}

// applyRow folds a row artifact into the running snapshot.
func applyRow(cur *stageSnap, art *stageArtifact) *stageSnap {
	if cur == nil { // the base stage starts the snapshot chain
		return &stageSnap{idx: art.idx}
	}
	next := cur.extend()
	next.idx = art.idx
	return next
}

// applyCol folds a column artifact into the running snapshot under the
// stage's own output name (artifacts are name-agnostic).
func applyCol(name string) func(*stageSnap, *stageArtifact) *stageSnap {
	return func(cur *stageSnap, art *stageArtifact) *stageSnap {
		next := cur.extend()
		next.cols = append(next.cols, stageCol{name: name, col: art.col})
		return next
	}
}

// runSelPart runs one σ part against the depth's entry snapshot. A
// predicate error is swallowed here — the part reports no artifact and the
// depth's ∧ stage replays the chain to reproduce the exact sequential
// error-or-success.
func runSelPart(blk *selBlock, i int) func(*evalCtx, *stageSnap) (*stageArtifact, error) {
	inner := runSelectStage(blk.sels[i])
	return func(ev *evalCtx, cur *stageSnap) (*stageArtifact, error) {
		next, err := inner(ev, cur)
		if err != nil {
			return nil, nil
		}
		return &stageArtifact{idx: next.idx, ownBytes: next.ownBytes}, nil
	}
}

// applySelPart records a part's artifact into the block and leaves the
// running snapshot at the depth's entry, so sibling parts and the ∧ stage
// all read the same multiset.
func applySelPart(blk *selBlock, i int) func(*stageSnap, *stageArtifact) *stageSnap {
	return func(cur *stageSnap, art *stageArtifact) *stageSnap {
		blk.arts[i] = art
		return cur
	}
}

// runSelCombine intersects the block's part artifacts in entry order. Every
// part index vector is a subsequence of the depth's entry vector, so
// iterating the smallest part and keeping rows present in all others yields
// exactly the chained-filter result; a lone part's vector is the result
// itself, shared rather than copied. A missing part (errored predicate)
// routes through the sequential chained replay instead.
func runSelCombine(blk *selBlock) func(*evalCtx, *stageSnap) (*stageArtifact, error) {
	return func(ev *evalCtx, cur *stageSnap) (*stageArtifact, error) {
		for _, a := range blk.arts {
			if a == nil {
				return runSelChained(ev, cur, blk.sels)
			}
		}
		if len(blk.arts) == 1 {
			return &stageArtifact{idx: blk.arts[0].idx}, nil
		}
		idx := intersectParts(blk.arts, ev.s.base.Len())
		return &stageArtifact{idx: idx, ownBytes: int64(4 * len(idx))}, nil
	}
}

// runSelChained applies the depth's predicates sequentially from the entry
// snapshot — the pre-split semantics, reproducing the exact first error (or
// the success a commuting-but-erroring part order would have hidden).
func runSelChained(ev *evalCtx, cur *stageSnap, sels []Selection) (*stageArtifact, error) {
	snap := cur
	for _, sel := range sels {
		next, err := runSelectStage(sel)(ev, snap)
		if err != nil {
			return nil, err
		}
		snap = next
	}
	return &stageArtifact{idx: snap.idx, ownBytes: int64(4 * len(snap.idx))}, nil
}

// intersectParts intersects the parts' survivor sets via membership counts
// over base rows, iterating the smallest part (index vectors never hold
// duplicates upstream of λ, so a count of k−1 in the others means "kept by
// every sibling").
func intersectParts(parts []*stageArtifact, nBase int) []int32 {
	small := 0
	for i, p := range parts {
		if len(p.idx) < len(parts[small].idx) {
			small = i
		}
	}
	counts := make([]uint16, nBase)
	for i, p := range parts {
		if i == small {
			continue
		}
		for _, ri := range p.idx {
			counts[ri]++
		}
	}
	want := uint16(len(parts) - 1)
	out := make([]int32, 0, len(parts[small].idx))
	for _, ri := range parts[small].idx {
		if counts[ri] == want {
			out = append(out, ri)
		}
	}
	return out[:len(out):len(out)]
}

// buildPipeline compiles the current query state into the stage list and
// the evaluation context the stage bodies run against. It performs the
// same stratification and validation the monolithic replay did (computed
// columns and predicates keyed by aggregate depth; cycle and unknown-column
// errors surface here), and assembles per-stage fingerprints and graph
// edges as described at the top of this file.
func (s *Spreadsheet) buildPipeline() (*evalCtx, []stageNode, error) {
	// Working schema: every base column (hidden ones still participate in
	// predicates) followed by the computed columns, as before.
	work := append(relation.Schema(nil), s.base.Schema...)
	colPos := make(map[int]int, len(s.state.computed)) // computed index → working position
	for ci, c := range s.state.computed {
		colPos[ci] = len(work)
		work = append(work, relation.Column{Name: c.Name, Kind: c.ResultKind})
	}
	ev := &evalCtx{
		s:     s,
		work:  work,
		ix:    work.Index(),
		cols:  s.base.Columns(),
		nBase: len(s.base.Schema),
		width: len(work),
	}

	// Stratify computed columns and selections by depth.
	maxD := 0
	colDepths := make([]int, len(s.state.computed))
	for ci, c := range s.state.computed {
		d, err := s.aggDepth(c.Name, map[string]bool{})
		if err != nil {
			return nil, nil, err
		}
		colDepths[ci] = d
		if d > maxD {
			maxD = d
		}
	}
	selDepth := make([]int, len(s.state.selections))
	for i, sel := range s.state.selections {
		d, err := s.exprDepth(sel.Pred)
		if err != nil {
			return nil, nil, err
		}
		selDepth[i] = d
		if d > maxD {
			maxD = d
		}
	}

	// The base fingerprint seeds every chain: the base generation (bumped
	// whenever the base relation is replaced) plus its row count pin the
	// backing data, so artifacts can never be reused across bases.
	baseFP := fpU(fpU(fpS(0, "base"), s.baseGen), uint64(s.base.Len()))

	// Per-column content fingerprints and graph node IDs, built
	// incrementally in emission order (a stage can only reference columns
	// already emitted, or base columns).
	colFPs := make(map[string]uint64, ev.width)
	colNode := map[string]string{}
	for _, col := range s.base.Schema {
		colFPs[strings.ToLower(col.Name)] = fpS(fpS(baseFP, "basecol"), col.Name)
	}
	refFP := func(name string) uint64 {
		if fp, ok := colFPs[strings.ToLower(name)]; ok {
			return fp
		}
		// Unknown references error at stage runtime; the fingerprint just
		// needs to be deterministic for the dangling name.
		return fpS(fpS(baseFP, "basecol"), name)
	}
	refNode := func(name string) string {
		lk := strings.ToLower(name)
		if id, ok := colNode[lk]; ok {
			return id
		}
		return "basecol:" + lk
	}
	depList := func(entryID string, refs []string) []string {
		out := []string{entryID}
		for _, r := range refs {
			id := refNode(r)
			dup := false
			for _, have := range out {
				if have == id {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, id)
			}
		}
		return out
	}
	selFP := func(entryFP uint64, pred expr.Expr, refs []string) uint64 {
		fp := fpU(entryFP, uint64(stageSelect))
		fp = fpU(fp, expr.Fingerprint(pred))
		for _, r := range refs {
			fp = fpU(fp, refFP(r))
		}
		return fp
	}

	// rowFP / rowID track the row-stage spine: only stages that change the
	// surviving multiset (base, ∧, δ, λ) advance them. Column stages and σ
	// parts hang off the spine at their depth's entry.
	rowFP := baseFP
	rowID := "base"
	stages := []stageNode{{
		kind: stageBase, id: "base", name: "base", fp: baseFP,
		run: rowArtifact(runBase), apply: applyRow,
	}}

	for d := 0; d <= maxD; d++ {
		entryFP, entryID := rowFP, rowID
		// Aggregate columns of depth d see rows surviving selections < d.
		for ci, c := range s.state.computed {
			if c.Kind != KindAggregate || colDepths[ci] != d {
				continue
			}
			basis := s.state.cumulativeBasis(c.Level)
			fp := fpU(entryFP, uint64(stageAgg))
			fp = fpS(fp, string(c.Agg))
			fp = fpS(fp, c.Input)
			fp = fpU(fp, refFP(c.Input))
			fp = fpU(fp, uint64(c.Level))
			fp = fpU(fp, uint64(c.ResultKind))
			fp = fpU(fp, uint64(len(basis)))
			refs := []string{c.Input}
			for _, b := range basis {
				fp = fpS(fp, b)
				fp = fpU(fp, refFP(b))
				refs = append(refs, b)
			}
			lk := strings.ToLower(c.Name)
			id := "col:" + lk
			colFPs[lk], colNode[lk] = fp, id
			stages = append(stages, stageNode{
				kind: stageAgg, id: id, fp: fp,
				name:  fmt.Sprintf("η %s d%d", c.Name, d),
				deps:  depList(entryID, refs),
				run:   colArtifact(runAggStage(c, colPos[ci])),
				apply: applyCol(c.Name),
			})
		}
		// Window columns of depth d: computed over the rows surviving
		// selections < d, after the depth's aggregates (a window may rank
		// by an aggregate of the same depth's inputs via a shallower
		// column) and before its formulas (which may reference the window).
		for ci, c := range s.state.computed {
			if c.Kind != KindWindow || colDepths[ci] != d {
				continue
			}
			w := c.Win
			fp := fpU(entryFP, uint64(stageWindow))
			fp = fpS(fp, string(w.Func))
			fp = fpS(fp, w.Input)
			if w.Input != "" {
				fp = fpU(fp, refFP(w.Input))
			}
			fp = fpU(fp, uint64(len(w.PartitionBy)))
			for _, b := range w.PartitionBy {
				fp = fpS(fp, b)
				fp = fpU(fp, refFP(b))
			}
			fp = fpU(fp, uint64(len(w.OrderBy)))
			for _, k := range w.OrderBy {
				fp = fpS(fp, k.Column)
				fp = fpDir(fp, k.Dir == Desc)
				fp = fpU(fp, refFP(k.Column))
			}
			if w.Frame != nil {
				fp = fpS(fp, w.Frame.String())
			}
			fp = fpU(fp, uint64(c.ResultKind))
			refs := w.columns()
			lk := strings.ToLower(c.Name)
			id := "col:" + lk
			colFPs[lk], colNode[lk] = fp, id
			stages = append(stages, stageNode{
				kind: stageWindow, id: id, fp: fp,
				name:  fmt.Sprintf("ω %s d%d", c.Name, d),
				deps:  depList(entryID, refs),
				run:   colArtifact(runWindowStage(c, colPos[ci])),
				apply: applyCol(c.Name),
			})
		}
		// Formula columns of depth d, in creation order (later formulas
		// may reference earlier ones of the same depth).
		for ci, c := range s.state.computed {
			if c.Kind != KindFormula || colDepths[ci] != d {
				continue
			}
			refs := expr.Deps(c.Formula)
			fp := fpU(entryFP, uint64(stageFormula))
			fp = fpU(fp, expr.Fingerprint(c.Formula))
			fp = fpU(fp, uint64(c.ResultKind))
			for _, r := range refs {
				fp = fpU(fp, refFP(r))
			}
			lk := strings.ToLower(c.Name)
			id := "col:" + lk
			colFPs[lk], colNode[lk] = fp, id
			stages = append(stages, stageNode{
				kind: stageFormula, id: id, fp: fp,
				name:  fmt.Sprintf("θ %s d%d", c.Name, d),
				deps:  depList(entryID, refs),
				run:   colArtifact(runFormulaStage(c, colPos[ci])),
				apply: applyCol(c.Name),
			})
		}
		// Selections of depth d, in state order: one independent σ part
		// per predicate plus the depth's ∧ stage.
		var depthSels []Selection
		for i, sel := range s.state.selections {
			if selDepth[i] == d {
				depthSels = append(depthSels, sel)
			}
		}
		if len(depthSels) > 0 {
			blk := &selBlock{sels: depthSels, arts: make([]*stageArtifact, len(depthSels))}
			cfp := fpU(entryFP, uint64(stageCombine))
			cfp = fpU(cfp, uint64(len(depthSels)))
			partIDs := make([]string, len(depthSels))
			for i, sel := range depthSels {
				refs := expr.Deps(sel.Pred)
				fp := selFP(entryFP, sel.Pred, refs)
				cfp = fpU(cfp, fp)
				partIDs[i] = fmt.Sprintf("sel:%d", sel.ID)
				stages = append(stages, stageNode{
					kind: stageSelect, id: partIDs[i], fp: fp,
					name:  fmt.Sprintf("σ %s d%d", sel.Pred.SQL(), d),
					deps:  depList(entryID, refs),
					run:   runSelPart(blk, i),
					apply: applySelPart(blk, i),
				})
			}
			cid := fmt.Sprintf("and:d%d", d)
			stages = append(stages, stageNode{
				kind: stageCombine, id: cid, fp: cfp,
				name:  fmt.Sprintf("∧ %dσ d%d", len(depthSels), d),
				deps:  partIDs,
				run:   runSelCombine(blk),
				apply: applyRow,
			})
			rowFP, rowID = cfp, cid
		}
		// Duplicate elimination at the end of stage 0 (DESIGN.md §3.2).
		if d == 0 {
			if s.state.distinctOn != nil {
				cols := append([]string(nil), s.state.distinctOn...)
				fp := fpU(rowFP, uint64(stageDistinct))
				fp = fpU(fp, uint64(len(cols)))
				for _, col := range cols {
					fp = fpS(fp, col)
					fp = fpU(fp, refFP(col))
				}
				stages = append(stages, stageNode{
					kind: stageDistinct, id: "distinct", name: "δ", fp: fp,
					deps:  depList(rowID, cols),
					run:   rowArtifact(runDistinctStage(cols)),
					apply: applyRow,
				})
				rowFP, rowID = fp, "distinct"
			}
		}
	}

	// Presentation order: each grouping level's relative basis in the
	// level's direction, then the finest-level keys — the Sec. II-A remark
	// that any recursive grouping can be emulated by one ordering.
	// Every grouping level contributes at least one key, so a sheet with no
	// λ stage has no grouping level either.
	keys := s.sortKeys()
	if len(keys) > 0 {
		fp := fpU(rowFP, uint64(stageOrder))
		// The base order's key (stage.go, baseOrder) folds in only what the
		// stable sort of every base row reads: the base and each key's
		// direction and column fingerprint, which for a base column is keyed
		// on the base and the column's name. The row spine and the level
		// split change the survivors and the group starts, not that order.
		ofp := fpS(baseFP, "base-order")
		refs := make([]string, 0, len(keys))
		for _, k := range keys {
			kfp := refFP(k.Column)
			fp = fpS(fp, k.Column)
			fp = fpDir(fp, k.Desc)
			fp = fpU(fp, kfp)
			ofp = fpU(fpDir(ofp, k.Desc), kfp)
			refs = append(refs, k.Column)
		}
		// The artifact carries the group tree's level boundaries, so the key
		// folds in how the keys split into levels: one level {Model, Year}
		// and levels {Model}→{Year} sort identically but group differently.
		// Each level's arity and its group-order column (OrderGroupsBy, which
		// leads the level's keys) place every level's basis within the keys.
		fp = fpU(fp, uint64(len(s.state.grouping)))
		for _, g := range s.state.grouping {
			fp = fpU(fp, uint64(len(g.Rel)))
			fp = fpS(fp, g.By)
		}
		stages = append(stages, stageNode{
			kind: stageOrder, id: "order", name: "λ", fp: fp,
			deps:  depList(rowID, refs),
			run:   runOrderStage(keys, ofp),
			apply: applyOrder,
		})
	}
	return ev, stages, nil
}

// applyOrder folds the λ artifact into the running snapshot: the
// presentation order plus the group starts assembly reads.
func applyOrder(cur *stageSnap, art *stageArtifact) *stageSnap {
	next := cur.extend()
	next.idx = art.idx
	next.starts = art.starts
	return next
}

// sortKeys derives the presentation sort keys from the grouping and
// finest-order state.
func (s *Spreadsheet) sortKeys() []relation.SortKey {
	var keys []relation.SortKey
	for _, g := range s.state.grouping {
		if g.By != "" {
			// OrderGroupsBy extension: groups sort by a per-group-constant
			// column, with the relative basis as the tiebreak.
			keys = append(keys, relation.SortKey{Column: g.By, Desc: g.Dir == Desc})
			for _, a := range g.Rel {
				keys = append(keys, relation.SortKey{Column: a})
			}
			continue
		}
		for _, a := range g.Rel {
			keys = append(keys, relation.SortKey{Column: a, Desc: g.Dir == Desc})
		}
	}
	for _, k := range s.state.finest {
		keys = append(keys, relation.SortKey{Column: k.Column, Desc: k.Dir == Desc})
	}
	return keys
}
