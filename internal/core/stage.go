package core

import (
	"fmt"
	"strings"

	"sheetmusiq/internal/expr"
	"sheetmusiq/internal/relation"
)

// Stage bodies. Every stage consumes and produces a stageSnap and reads
// rows through a relation.IndexView — base and computed-column vectors
// behind a surviving-row index vector — instead of materialised working
// tuples. Stage bodies run data-parallel over contiguous row chunks
// above relation.ParallelThreshold with chunk-local results concatenated
// (or merged) in chunk order, so the output is bit-identical to the
// sequential scan — the same determinism contract the monolithic replay
// carried, now held per stage.

// evalCtx is the per-evaluation context stage bodies run against: the
// working schema (base columns, hidden ones included, then computed
// columns) and its derived lookups. It is rebuilt per evaluation, never
// cached — only snapshots are.
type evalCtx struct {
	s     *Spreadsheet
	work  relation.Schema
	ix    *relation.NameIndex
	cols  []*relation.Col
	nBase int
	width int
	// groups caches dense groupings within one evaluation, keyed on the
	// identity of the index vector and of every key column's backing
	// storage. Consecutive η stages at one level share a basis and an index
	// vector (TPC-H Q1 runs seven over the same grouping), so the hash pass
	// over millions of key cells runs once instead of once per stage.
	groups map[string]*relation.Grouping
}

// pos resolves a column name to its working-schema position, or -1, through
// the schema's cached name index.
func (ev *evalCtx) pos(name string) int { return ev.ix.IndexOf(name) }

// positions resolves a column-name list, erroring on the first unknown.
func (ev *evalCtx) positions(names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		p := ev.pos(n)
		if p < 0 {
			return nil, fmt.Errorf("core: unknown column %q", n)
		}
		out[i] = p
	}
	return out, nil
}

// batchResolver exposes the view's typed columns (base vectors plus
// computed-column vectors) to the vectorized expression compiler, keyed by
// working-schema name.
func (ev *evalCtx) batchResolver(view *relation.IndexView) expr.BatchResolver {
	return func(name string) (*relation.Col, bool) {
		p := ev.pos(name)
		if p < 0 {
			return nil, false
		}
		return view.ColAt(p), true
	}
}

// groupCached returns the dense grouping of the view's rows by the given
// working positions, reusing the one computed by an earlier stage of this
// evaluation when both the index vector and every key column's backing
// storage are identical. Groupings are immutable once built, and stages run
// sequentially within an evaluation, so the cache needs no locking.
func (ev *evalCtx) groupCached(view *relation.IndexView, pos []int) *relation.Grouping {
	if view.Len() == 0 {
		return relation.GroupView(view, pos)
	}
	key := ev.groupKey(view, pos)
	if gr, ok := ev.groups[key]; ok {
		return gr
	}
	gr := relation.GroupView(view, pos)
	if ev.groups == nil {
		ev.groups = map[string]*relation.Grouping{}
	}
	ev.groups[key] = gr
	return gr
}

// groupKey builds the grouping-cache key for the view's index vector and
// key columns' backing storage.
func (ev *evalCtx) groupKey(view *relation.IndexView, pos []int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%p:%d", view.Idx, len(pos))
	for _, p := range pos {
		if p < view.Split {
			fmt.Fprintf(&sb, "|b%d", p)
		} else {
			// A computed column's identity is its filled column; an unfilled
			// one reads as all-NULL and is keyed by position alone.
			fmt.Fprintf(&sb, "|o%d:%p", p, view.Over[p-view.Split])
		}
	}
	return sb.String()
}

// cachedGrouping returns the grouping an earlier stage of this evaluation
// computed for exactly these keys over exactly this index vector, or nil —
// it never computes one. The ordering stage uses it to decide whether the
// grouping-rank counting sort is free to engage.
func (ev *evalCtx) cachedGrouping(view *relation.IndexView, pos []int) *relation.Grouping {
	if view.Len() == 0 || len(ev.groups) == 0 {
		return nil
	}
	return ev.groups[ev.groupKey(view, pos)]
}

// viewOf wraps a snapshot as an IndexView over the working schema. Computed
// columns not yet filled by any upstream stage read as NULL, exactly like
// the zero-Value cells of the old materialised working rows.
func (ev *evalCtx) viewOf(snap *stageSnap) *relation.IndexView {
	over := make([]*relation.Col, ev.width-ev.nBase)
	for _, c := range snap.cols {
		if p := ev.pos(c.name); p >= ev.nBase {
			over[p-ev.nBase] = c.col
		}
	}
	return &relation.IndexView{
		Cols:  ev.cols,
		Base:  ev.s.base.Len(),
		Idx:   snap.idx,
		Over:  over,
		Split: ev.nBase,
	}
}

// runBase materialises the identity snapshot: every base row survives, no
// computed column is filled. Its only storage is the index vector.
func runBase(ev *evalCtx, _ *stageSnap) (*stageSnap, error) {
	n := ev.s.base.Len()
	idx := make([]int32, n)
	_ = relation.ForChunks(n, func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			idx[i] = int32(i)
		}
		return nil
	})
	return &stageSnap{idx: idx, ownBytes: int64(4 * n)}, nil
}

// runAggStage computes one η column over the input snapshot's rows, writing
// the group's value into every member row's slot of a fresh column vector
// (Def. 11 / Table III). Rows map to dense group IDs once
// (relation.GroupView). The accumulate pass is relation.GroupAggregate,
// which returns one cell per group: above the parallel threshold it merges
// per-chunk partials in chunk order, and where that merge would not be
// bit-identical (float or mixed-kind summing, float MIN/MAX) it stays
// sequential and the stage records the fallback. relation.Place then writes
// each row's group cell at the row's base index.
func runAggStage(c *ComputedColumn, outPos int) func(*evalCtx, *stageSnap) (*stageSnap, error) {
	return func(ev *evalCtx, in *stageSnap) (*stageSnap, error) {
		inPos := ev.pos(c.Input)
		if outPos < 0 || inPos < 0 {
			return nil, fmt.Errorf("core: aggregate %s references missing column", c.Name)
		}
		bpos, err := ev.positions(ev.s.state.cumulativeBasis(c.Level))
		if err != nil {
			return nil, err
		}
		snap := in.extend()
		nBase := ev.s.base.Len()
		view := ev.viewOf(in)
		n := view.Len()
		out := relation.AllNullCol()
		if n > 0 {
			gr := ev.groupCached(view, bpos)
			res, err := ev.runAggKernel(c, view, inPos, gr.IDs, gr.NumGroups(), n)
			if err != nil {
				return nil, err
			}
			out = relation.Place(res, gr.IDs, in.idx, nBase, c.ResultKind)
		}
		snap.cols = append(snap.cols, stageCol{name: c.Name, col: out})
		snap.ownBytes = out.MemBytes()
		return snap, nil
	}
}

// runAggKernel computes the per-group column through
// relation.GroupAggregate, which reads the input column in place — typed
// payloads, or one boxed accumulator per group over a mixed-kind computed
// column — and counts the passes it keeps sequential for bit-identity.
func (ev *evalCtx) runAggKernel(c *ComputedColumn, view *relation.IndexView, inPos int, gids []int32, ng, n int) (*relation.Col, error) {
	res, seqFallback, err := relation.GroupAggregate(c.Agg, view.ColAt(inPos), gids, view.Idx, n, ng)
	if err != nil {
		return nil, fmt.Errorf("core: aggregate %s: %w", c.Name, err)
	}
	if seqFallback {
		evalMergeFallback.Inc()
	}
	return res, nil
}

// runFormulaStage computes one θ column row-locally (Def. 12) into a fresh
// column vector through a batch program over the typed column vectors
// (BatchProgram.EvalCol). Each chunk writes its lanes' payloads straight
// into the result column — nothing is boxed. Where lanes leave the inferred
// kind (a result whose kinds really mix, such as COALESCE(I, S)) the
// values rule (relation.ValuesCol) decides the column's form, and an
// erring lane yields the interpreter's exact error.
func runFormulaStage(c *ComputedColumn, outPos int) func(*evalCtx, *stageSnap) (*stageSnap, error) {
	return func(ev *evalCtx, in *stageSnap) (*stageSnap, error) {
		if outPos < 0 {
			return nil, fmt.Errorf("core: formula %s column missing", c.Name)
		}
		snap := in.extend()
		nBase := ev.s.base.Len()
		view := ev.viewOf(in)
		n := view.Len()
		bp, err := expr.CompileBatch(c.Formula, ev.batchResolver(view))
		if err != nil {
			return nil, fmt.Errorf("core: formula %s: %w", c.Name, err)
		}
		out := relation.AllNullCol()
		if n > 0 {
			if out, err = bp.EvalCol(view.Idx, n, nBase, c.ResultKind, false, true); err != nil {
				return nil, fmt.Errorf("core: formula %s: %w", c.Name, err)
			}
		}
		snap.cols = append(snap.cols, stageCol{name: c.Name, col: out})
		snap.ownBytes = out.MemBytes()
		return snap, nil
	}
}

// runWindowStage computes one ω column over the input snapshot's rows.
// Partition IDs come from the same dense grouping the η stages use
// (relation.GroupView); order keys and the argument lane are gathered
// view-aligned and handed to the columnar kernel (relation.WindowEval),
// whose lane-aligned column relation.Place writes at the lanes' base rows.
// Determinism is the kernel's contract: stable (partition, key)
// sorting and sequential per-partition accumulation make the output
// independent of the parallel split.
func runWindowStage(c *ComputedColumn, outPos int) func(*evalCtx, *stageSnap) (*stageSnap, error) {
	return func(ev *evalCtx, in *stageSnap) (*stageSnap, error) {
		w, ok := c.Formula.(*expr.WindowCall)
		if outPos < 0 || !ok {
			return nil, fmt.Errorf("core: window %s column missing", c.Name)
		}
		// The argument and keys are plain column references (checkWindow).
		var err error
		pos := func(e expr.Expr) int {
			if ref, ok := e.(*expr.ColumnRef); ok && ev.pos(ref.Name) >= 0 {
				return ev.pos(ref.Name)
			}
			if err == nil {
				err = fmt.Errorf("core: window %s: unknown column %s", c.Name, e.SQL())
			}
			return -1
		}
		ppos := make([]int, len(w.PartitionBy))
		for i, p := range w.PartitionBy {
			ppos[i] = pos(p)
		}
		opos := make([]int, len(w.OrderBy))
		desc := make([]bool, len(w.OrderBy))
		for i, k := range w.OrderBy {
			opos[i], desc[i] = pos(k.X), k.Desc
		}
		inPos := -1
		if w.Arg != nil {
			inPos = pos(w.Arg)
		}
		if err != nil {
			return nil, err
		}
		snap := in.extend()
		nBase := ev.s.base.Len()
		view := ev.viewOf(in)
		n := view.Len()
		out := relation.AllNullCol()
		if n > 0 {
			win := relation.WindowInput{N: n, K: len(opos), Desc: desc, Rows: view.Idx}
			if len(ppos) > 0 {
				win.Parts = ev.groupCached(view, ppos)
			}
			// Typed lanes: the kernel reads order keys and the argument
			// straight off the column vectors through the index vector — no
			// boxed gather at all.
			if k := len(opos); k > 0 {
				win.KeyCols = make([]*relation.Col, k)
				for j, p := range opos {
					win.KeyCols[j] = view.ColAt(p)
				}
			}
			if inPos >= 0 {
				win.ArgCol = view.ColAt(inPos)
			}
			expr.NoteWindowBatch()
			res, werr := relation.WindowEval(relation.WindowSpec{Func: w.Func, Frame: w.Frame}, win)
			if werr != nil {
				return nil, fmt.Errorf("core: window %s: %w", c.Name, werr)
			}
			out = relation.Place(res, nil, in.idx, nBase, c.ResultKind)
		}
		snap.cols = append(snap.cols, stageCol{name: c.Name, col: out})
		snap.ownBytes = out.MemBytes()
		return snap, nil
	}
}

// runSelectStage filters the input snapshot's index vector by one σ
// predicate through a batch program (BatchProgram.Select): chunks compact
// their survivors in chunk order, so the surviving multiset order — and the
// first erring lane, whose interpreter error Select returns — are identical
// to the sequential scan.
func runSelectStage(sel Selection) func(*evalCtx, *stageSnap) (*stageSnap, error) {
	return func(ev *evalCtx, in *stageSnap) (*stageSnap, error) {
		view := ev.viewOf(in)
		bp, err := expr.CompileBatch(sel.Pred, ev.batchResolver(view))
		if err != nil {
			return nil, fmt.Errorf("core: selection %s: %w", sel.Pred.SQL(), err)
		}
		kept, err := bp.Select(view.Idx, view.Len())
		if err != nil {
			return nil, fmt.Errorf("core: selection %s: %w", sel.Pred.SQL(), err)
		}
		snap := in.extend()
		snap.idx = kept
		snap.ownBytes = int64(4 * len(kept))
		return snap, nil
	}
}

// runDistinctStage keeps the first row of each duplicate group over the
// recorded dedup column set (DESIGN.md §3.2). Group-first positions are
// ascending in view order, so the kept multiset order matches the
// sequential compaction.
func runDistinctStage(cols []string) func(*evalCtx, *stageSnap) (*stageSnap, error) {
	return func(ev *evalCtx, in *stageSnap) (*stageSnap, error) {
		pos, err := ev.positions(cols)
		if err != nil {
			return nil, fmt.Errorf("core: distinct: %w", err)
		}
		view := ev.viewOf(in)
		gr := relation.GroupView(view, pos)
		idx := make([]int32, len(gr.First))
		for g, vi := range gr.First {
			idx[g] = in.idx[vi]
		}
		snap := in.extend()
		snap.idx = idx
		snap.ownBytes = int64(4 * len(idx))
		return snap, nil
	}
}

// runOrderStage stably sorts the index vector by the presentation keys and,
// while it holds the sorted view, records where each grouping level's
// groups start (groupStarts). Assembly builds the group tree from those
// offsets, so a cached λ artifact serves the tree without a row scan.
// orderFP keys the keys' σ-independent base order (baseOrder).
func runOrderStage(keys []relation.SortKey, orderFP uint64) func(*evalCtx, *stageSnap) (*stageArtifact, error) {
	return func(ev *evalCtx, in *stageSnap) (*stageArtifact, error) {
		pos := make([]int, len(keys))
		desc := make([]bool, len(keys))
		for i, k := range keys {
			p := ev.pos(k.Column)
			if p < 0 {
				return nil, fmt.Errorf("sort: no column %q in %s", k.Column, ev.s.name)
			}
			pos[i], desc[i] = p, k.Desc
		}
		view := ev.viewOf(in)
		sorted := *view
		sorted.Idx = ev.orderedIdx(view, pos, desc, orderFP)
		starts, err := ev.groupStarts(&sorted)
		if err != nil {
			return nil, err
		}
		own := int64(4 * len(sorted.Idx))
		for _, st := range starts {
			own += int64(4 * len(st))
		}
		return &stageArtifact{idx: sorted.Idx, starts: starts, ownBytes: own}, nil
	}
}

// groupStarts partitions the presentation-ordered view into the recursive
// group tree's levels: entry li lists, ascending, the view offsets where a
// level-(li+2) group starts. A group runs while rows agree with its first
// row on the level's relative basis (viewEqualOn), and never past its
// parent's end, so every level's starts include its parent level's. Basis
// columns are read through the view, which keeps hidden ones addressable.
func (ev *evalCtx) groupStarts(view *relation.IndexView) ([][]int32, error) {
	levels := ev.s.state.grouping
	starts := make([][]int32, len(levels))
	n := view.Len()
	parent := []int32{0}
	if n == 0 {
		parent = nil
	}
	for li, g := range levels {
		pos, err := ev.positions(g.Rel)
		if err != nil {
			return nil, err
		}
		cols := make([]*relation.Col, len(pos))
		for k, p := range pos {
			cols[k] = view.ColAt(p)
		}
		var out []int32
		for pi, lo := range parent {
			hi := int32(n)
			if pi+1 < len(parent) {
				hi = parent[pi+1]
			}
			first := lo
			out = append(out, first)
			for i := lo + 1; i < hi; i++ {
				if !viewEqualOn(view, int(i), int(first), cols) {
					first = i
					out = append(out, first)
				}
			}
		}
		starts[li] = out[:len(out):len(out)]
		parent = out
	}
	return starts, nil
}

// viewEqualOn reports whether two view rows agree on the given key
// columns — the adjacency probe groupStarts applies to the ordered view.
// It compares raw payloads (Col.CellEqual — NULL equals NULL, multiset
// identity, exactly the sort's notion of adjacency).
func viewEqualOn(v *relation.IndexView, a, b int, cols []*relation.Col) bool {
	ra, rb := int(v.Idx[a]), int(v.Idx[b])
	for _, c := range cols {
		if !c.CellEqual(ra, rb) {
			return false
		}
	}
	return true
}

// orderedIdx sorts the view's rows by the key positions. When an earlier
// stage of this evaluation already grouped by exactly these keys — the
// standard spreadsheet shape: presentation order after grouping is the
// grouping basis itself — and every key column's compare-equal relation
// coincides with group equality, the rows counting-sort by group rank in
// O(n) instead of comparison-sorting; the result is bit-identical to the
// stable merge sort. Otherwise, when the keys' base order is at hand, the
// survivors filter it (filterOrder). Everything else takes
// relation.SortView.
func (ev *evalCtx) orderedIdx(view *relation.IndexView, pos []int, desc []bool, orderFP uint64) []int32 {
	if gr := ev.cachedGrouping(view, pos); gr != nil && len(pos) > 0 {
		kc := make([]*relation.Col, len(pos))
		ok := true
		for i, p := range pos {
			kc[i] = view.ColAt(p)
			if !relation.CountingSortable(kc[i]) {
				ok = false
				break
			}
		}
		if ok {
			return relation.SortViewByGrouping(view, kc, desc, gr)
		}
	}
	if order := ev.baseOrder(pos, desc, orderFP); order != nil {
		if idx := filterOrder(order, view.Idx, view.Base); idx != nil {
			evalOrderFiltered.Inc()
			return idx
		}
	}
	return relation.SortView(view, pos, desc)
}

// baseOrder returns the keys' base order — the stable sort of every base
// row by the keys — from the sheet's artifact cache, building it on the
// second λ recompute in a row under the same key (orderMemo), or nil. A
// first sighting sorts its survivors, so a cold sheet, a one-off λ flip or
// a τ edit costs no more than it did; an edit that recomputes λ under a
// standing key set (a σ or δ edit) filters from then on.
//
// Only keys that are all base columns and compare as a strict weak order
// over the whole base qualify. An η, ω or θ column is filled over the rows
// that reach its stage, not over the base; and under a key that is not a
// strict weak order (a NaN in a FLOAT key, or a Boxed key) the stable sort
// of the survivors need not be the filtered sort of the base.
func (ev *evalCtx) baseOrder(pos []int, desc []bool, fp uint64) []int32 {
	keyCols := make([]*relation.Col, len(pos))
	for i, p := range pos {
		if p >= ev.nBase {
			return nil
		}
		keyCols[i] = ev.cols[p]
	}
	s := ev.s
	cache := s.snaps()
	if art := cache.get(fp); art != nil {
		return art.idx
	}
	if s.orderMemo != fp {
		s.orderMemo = fp
		return nil
	}
	n := s.base.Len()
	if !relation.StrictWeakOrder(keyCols, nil, n) {
		return nil
	}
	order := relation.SortPermCols(keyCols, nil, n, desc)
	cache.put(&stageArtifact{fp: fp, idx: order, ownBytes: int64(4 * n)})
	evalOrderBuilt.Inc()
	return order
}

// filterOrder keeps, in order, the base order's entries whose row is in
// idx. Stages before λ keep their survivors in ascending base order, and
// under that precondition the result is exactly the stable sort of idx
// (Theorem 2: σ commutes with λ): equal keys keep base order either way.
// filterOrder checks the precondition while it marks the survivors and
// returns nil when it does not hold.
func filterOrder(order, idx []int32, nBase int) []int32 {
	keep := relation.NewBitmap(nBase)
	prev := int32(-1)
	for _, r := range idx {
		if r <= prev {
			return nil
		}
		relation.BitSet(keep, int(r))
		prev = r
	}
	out := make([]int32, 0, len(idx))
	for _, r := range order {
		if relation.BitGet(keep, int(r)) {
			out = append(out, r)
		}
	}
	return out
}
