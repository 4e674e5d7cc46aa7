package core

import (
	"strings"
	"time"

	"sheetmusiq/internal/obs"
	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

// Evaluation-pipeline metrics, recorded once per (uncached) replay — per
// evaluation and per stage, never per row. evalReplayOps accumulates the
// replayed operator count (selections + computed columns + grouping +
// ordering), so evalReplayOps/evalCount is the mean replay length.
// evalMergeFallback counts aggregate passes relation.GroupAggregate kept
// sequential because chunked merging would not be bit-identical — the
// determinism contract of the parallel pipeline. evalPlanSec times
// buildPipeline: stratification, fingerprints and graph edges (expressions
// compile inside the stage bodies, and only on recompute). The stage-cache
// series (stage_hits, stage_recomputes, snapshot_bytes) live in
// snapcache.go.
var (
	evalCount         = obs.Default.Counter("core.eval.count")
	evalCacheHits     = obs.Default.Counter("core.eval.cache_hits")
	evalReplayOps     = obs.Default.Counter("core.eval.replay_ops")
	evalMergeFallback = obs.Default.Counter("core.eval.merge_fallback")
	evalPlanSec       = obs.Default.Histogram("core.eval.plan_seconds")
	evalSec           = obs.Default.Histogram("core.eval.seconds")
)

// Group is one node of the recursive grouping tree (Sec. II-A). The root is
// level 1 (the paper's grouping by {NULL}); each child level refines its
// parent by the level's relative basis. Start/End delimit the group's rows
// in Result.Table ([Start, End)).
type Group struct {
	Level    int
	Key      []value.Value // values of this level's relative basis
	Children []*Group      // nil at the finest level
	Start    int
	End      int
}

// Rows returns how many tuples the group spans.
func (g *Group) Rows() int { return g.End - g.Start }

// Result is a fully evaluated spreadsheet: the visible table in display
// order plus the group tree over it.
type Result struct {
	Table  *relation.Relation
	Root   *Group
	Levels []GroupLevel // the grouping specification the tree reflects
}

// Evaluate replays the query state against the base relation and returns
// the resulting spreadsheet view.
//
// The state is unordered, so evaluation follows the deterministic staged
// semantics of DESIGN.md §3.1: columns and predicates are stratified by
// aggregate depth; stage d first materialises aggregate columns of depth d
// over the rows surviving all shallower selections, then formula columns of
// depth d, then applies the depth-d selections (duplicate elimination runs
// at the end of stage 0). This realises the paper's "computed columns
// update when the underlying data changes" and makes the unary operators
// commute exactly as Theorem 2 states.
//
// Both the result and an evaluation error are memoised until the next
// operator: direct manipulation re-renders constantly, and an erroring
// state (a cyclic computed column, a runtime type error) would otherwise
// re-run the full replay on every render. Treat the result as read-only
// (copy the table before mutating it).
func (s *Spreadsheet) Evaluate() (*Result, error) {
	if s.cacheVersion == s.version && (s.cacheResult != nil || s.cacheErr != nil) {
		evalCacheHits.Inc()
		return s.cacheResult, s.cacheErr
	}
	res, err := s.evaluate()
	s.cacheVersion = s.version
	s.cacheResult, s.cacheErr = res, err
	return res, err
}

// evaluate is the uncached evaluation: build the stage pipeline (plan.go),
// serve each stage from its cached artifact where the DAG-keyed fingerprint
// still matches and re-run the rest (stage.go), and assemble the visible
// table and group tree from the final snapshot. Stage bodies run data-parallel over contiguous row
// chunks above relation.ParallelThreshold; chunk-local results are
// concatenated (or merged) in chunk order, so the output is identical to
// the sequential scan.
func (s *Spreadsheet) evaluate() (*Result, error) {
	evalCount.Inc()
	evalReplayOps.Add(int64(len(s.state.selections) + len(s.state.computed) +
		len(s.state.hidden) + len(s.state.grouping) + len(s.state.finest)))
	evalStart := obs.StartTimer()
	defer evalSec.Since(evalStart)

	s.checkBaseGeneration()

	planStart := obs.StartTimer()
	ev, stages, err := s.buildPipeline()
	evalPlanSec.Since(planStart)
	if err != nil {
		s.lastPlan = nil
		return nil, err
	}

	plan := make([]StageInfo, len(stages))
	for i, st := range stages {
		plan[i] = StageInfo{ID: st.id, Name: st.name, Fingerprint: st.fp}
	}

	// Run the pipeline, probing the artifact cache per stage. Fingerprints
	// are DAG-keyed (plan.go), so a hit at stage i is independent of
	// whether earlier stages hit: editing one σ part leaves its siblings'
	// fingerprints — and artifacts — intact, and only the stages whose
	// dependency cone contains the edit recompute.
	cache := s.snaps()
	var cur *stageSnap
	for i := range stages {
		if art := cache.get(stages[i].fp); art != nil {
			plan[i].Cached = true
			evalStageHits.Inc()
			cur = stages[i].apply(cur, art)
			plan[i].Rows = stageRows(cur, art)
			continue
		}
		stageStart := time.Now()
		art, err := stages[i].run(ev, cur)
		if err != nil {
			s.lastPlan = &EvalPlan{Version: s.version, Stages: plan, Error: err.Error()}
			return nil, err
		}
		evalStageRecomputes.Inc()
		if art != nil { // σ parts report nil on a swallowed predicate error
			art.fp = stages[i].fp
			cache.put(art)
			cur = stages[i].apply(cur, art)
			plan[i].Rows = stageRows(cur, art)
		}
		plan[i].Duration = time.Since(stageStart)
	}
	s.lastPlan = &EvalPlan{Version: s.version, Stages: plan}

	// Final assembly from the last snapshot: the visible table over the
	// view (relation.MaterializeView defers the gather, so a page costs
	// only its rows) and the group tree from the starts the λ stage
	// recorded. Neither scans the rows. Assembly is not snapshot-cached —
	// the whole-Result memo above covers the unchanged-version case.
	view := ev.viewOf(cur)
	visible := s.VisibleSchema()
	visPos, err := ev.positions(visible.Names())
	if err != nil {
		return nil, err
	}
	table := relation.MaterializeView(view, visPos, s.name, visible)
	root, err := ev.groupTree(view, cur.starts)
	if err != nil {
		return nil, err
	}
	return &Result{Table: table, Root: root, Levels: s.Grouping()}, nil
}

// stageRows reports the row count a stage's plan line shows: row stages own
// their survivor index, column stages inherit the running snapshot's.
func stageRows(cur *stageSnap, art *stageArtifact) int {
	if art.idx != nil {
		return len(art.idx)
	}
	if cur != nil {
		return len(cur.idx)
	}
	return 0
}

// groupTree builds the recursive group tree from the λ stage's group
// starts in O(groups × basis arity): level li's starts refine level li−1's,
// so a group's children are the next level's starts inside its row range,
// and each group ends where the next group of its level starts. Keys read
// the level's relative basis at the group's first row. Without a λ stage
// there is no grouping level, and the tree is the root alone.
func (ev *evalCtx) groupTree(view *relation.IndexView, starts [][]int32) (*Group, error) {
	n := view.Len()
	levelPos := make([][]int, len(starts))
	for li := range starts {
		pos, err := ev.positions(ev.s.state.grouping[li].Rel)
		if err != nil {
			return nil, err
		}
		levelPos[li] = pos
	}
	next := make([]int, len(starts)) // per level, the first start not yet placed
	var build func(g *Group, li int)
	build = func(g *Group, li int) {
		if li == len(starts) {
			return
		}
		st := starts[li]
		for ; next[li] < len(st) && int(st[next[li]]) < g.End; next[li]++ {
			k := next[li]
			end := n
			if k+1 < len(st) {
				end = int(st[k+1])
			}
			child := &Group{Level: li + 2, Key: make([]value.Value, len(levelPos[li])), Start: int(st[k]), End: end}
			for j, p := range levelPos[li] {
				child.Key[j] = view.At(child.Start, p)
			}
			build(child, li+1)
			g.Children = append(g.Children, child)
		}
	}
	root := &Group{Level: 1, Start: 0, End: n}
	build(root, 0)
	return root, nil
}

// Render formats the result as an aligned text table; golden tests compare
// it against the paper's printed tables.
func (r *Result) Render() string { return r.Table.String() }

// RenderGrouped formats the result with one blank line between top-level
// groups, the way a grouped spreadsheet reads.
func (r *Result) RenderGrouped() string {
	if len(r.Root.Children) == 0 {
		return r.Table.String()
	}
	full := strings.Split(strings.TrimRight(r.Table.String(), "\n"), "\n")
	header, body := full[0], full[1:]
	var b strings.Builder
	b.WriteString(header)
	b.WriteByte('\n')
	for gi, g := range r.Root.Children {
		if gi > 0 {
			b.WriteByte('\n')
		}
		for i := g.Start; i < g.End && i < len(body); i++ {
			b.WriteString(body[i])
			b.WriteByte('\n')
		}
	}
	return b.String()
}
