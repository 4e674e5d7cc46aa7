package relation

import (
	"fmt"
	"math"

	"sheetmusiq/internal/obs"
	"sheetmusiq/internal/value"
)

// Grouped-aggregation kernel, the one aggregation entry point (GroupAggregate)
// behind η, SQL's aggregates and Relation.Aggregate. groupedAggState holds one
// aggregate function's per-group state as flat typed arrays — int64 sums,
// float64 sum/sum-of-squares, per-kind min/max bests, dense distinct tables —
// and is fed whole column payloads through lane loops instead of boxing each
// cell into a value.Value and calling accumulator.Add row by row. The contract
// is bit-identity: feeding lanes [lo,hi) in ascending order produces exactly
// the values the boxed accumulator produces from the same cells in the same
// order, including float summation order, MIN/MAX first-seen tie-breaks,
// int64 wrap-around on SUM, and the COUNT/COUNT_DISTINCT empty-group rules.
// A Boxed (mixed-kind) column runs the boxed lane instead: one accumulator
// per group, fed cell by cell, under the same chunk/merge driver.
//
// Per-group exactness needs no per-group flag here: a typed column is
// single-kind, so an Int column's SUM is always exact in int64 (the boxed
// intExact invariant) and a Float column's never is (any non-NULL add clears
// intExact); NULL-only groups return NULL before exactness is consulted.
//
// Chunked parallel accumulation builds one state per chunk and folds them in
// chunk order with Merge, mirroring the accumulator.Merge idiom: counts and
// sums add, bests keep the earlier chunk on compare-equal (first-seen),
// distinct tables union. mergeExact gates which functions may chunk at all.
//
// relation.agg.vectorized counts typed runs and relation.agg.declined counts
// boxed-lane runs; the repository benchmark reads the second under that
// name, so renaming it is a change to the benchmark.
var (
	aggVectorized = obs.Default.Counter("relation.agg.vectorized")
	aggBoxed      = obs.Default.Counter("relation.agg.declined")
)

// groupedAggState is the per-group state of one aggregate function over one
// column. Construct with newGroupedAggState, feed lane ranges with Update,
// combine chunk partials with Merge, and read per-group values with Results.
type groupedAggState struct {
	fn   AggFunc
	in   *Col    // nil for COUNT with no argument column
	rows []int32 // lane → cell index (nil = identity)
	ng   int

	count   []int64 // COUNT: tuples per group, NULLs included
	nonNull []int64
	sum     []float64
	sumSq   []float64 // STDDEV only
	intSum  []int64   // SUM over an Int column
	has     []bool    // MIN/MAX: group has a non-NULL best
	bestI   []int64
	bestF   []float64
	bestS   []string
	dt      *distinctTable // COUNT_DISTINCT
	accs    []accumulator  // the boxed lane: one per group over a Boxed column
}

// newGroupedAggState builds the state for fn over in with ng groups; rows
// maps accumulation lanes to cell indexes of in (nil = identity). A nil in
// is COUNT with no argument (COUNT(*)). COUNT never reads a cell, so it
// counts typed over any column; every other function over a Boxed column
// gets the boxed lane.
func newGroupedAggState(fn AggFunc, in *Col, rows []int32, ng int) (*groupedAggState, error) {
	st := &groupedAggState{fn: fn, in: in, rows: rows, ng: ng}
	switch fn {
	case AggCount:
		st.count = make([]int64, ng)
		return st, nil
	case AggSum, AggAvg, AggMin, AggMax, AggCountDistinct, AggStdDev:
	default:
		return nil, fmt.Errorf("relation: unknown aggregate function %q", fn)
	}
	if in == nil {
		return nil, fmt.Errorf("relation: %s requires an argument column", fn)
	}
	if in.Boxed != nil {
		st.accs = make([]accumulator, ng)
		for g := range st.accs {
			st.accs[g].reset(fn)
		}
		return st, nil
	}
	switch fn {
	case AggCountDistinct:
		st.dt = newDistinctTable(in, rows, ng)
	case AggMin, AggMax:
		st.has = make([]bool, ng)
		switch in.Kind {
		case value.KindFloat:
			st.bestF = make([]float64, ng)
		case value.KindString:
			st.bestS = make([]string, ng)
		default: // Int, Bool, Date share the Ints payload; KindNull needs none
			st.bestI = make([]int64, ng)
		}
	case AggSum, AggAvg, AggStdDev:
		st.nonNull = make([]int64, ng)
		if fn == AggSum && in.Kind == value.KindInt {
			st.intSum = make([]int64, ng)
		} else {
			st.sum = make([]float64, ng)
		}
		if fn == AggStdDev {
			st.sumSq = make([]float64, ng)
		}
	}
	return st, nil
}

// Update feeds lanes [lo,hi): lane k belongs to group gids[k] and reads the
// cell st.rows maps it to. Lanes must be fed in ascending order within one
// state for float sums and tie-breaks to match the boxed scan. The boxed
// lane errs as its accumulator does, at the first cell it rejects.
func (st *groupedAggState) Update(gids []int32, lo, hi int) error {
	if st.accs != nil {
		for k := lo; k < hi; k++ {
			if err := st.accs[gids[k]].Add(st.in.Boxed[laneCell(st.rows, k)]); err != nil {
				return err
			}
		}
		return nil
	}
	switch st.fn {
	case AggCount:
		// COUNT counts tuples per group, NULLs included, column or not.
		for k := lo; k < hi; k++ {
			st.count[gids[k]]++
		}
		return nil
	case AggCountDistinct:
		st.dt.update(gids, lo, hi)
		return nil
	case AggMin, AggMax:
		st.updateMinMax(gids, lo, hi)
		return nil
	}
	return st.updateSums(gids, lo, hi)
}

// updateSums feeds SUM/AVG/STDDEV. The kind switch, null-bitmap branch and
// lane→cell indirection are hoisted out of the per-lane loops (the HashInto
// idiom), so the no-null fast loops are a load, the adds, and a group index.
func (st *groupedAggState) updateSums(gids []int32, lo, hi int) error {
	in := st.in
	switch in.Kind {
	case value.KindNull:
		return nil // every cell NULL: nothing accumulates
	case value.KindInt:
		ints := in.Ints
		switch {
		case st.intSum != nil: // SUM
			if in.Nulls == nil && st.rows == nil {
				for k := lo; k < hi; k++ {
					g := gids[k]
					st.nonNull[g]++
					st.intSum[g] += ints[k]
				}
				return nil
			}
			if in.Nulls == nil {
				for k := lo; k < hi; k++ {
					g := gids[k]
					st.nonNull[g]++
					st.intSum[g] += ints[st.rows[k]]
				}
				return nil
			}
			for k := lo; k < hi; k++ {
				i := laneCell(st.rows, k)
				if BitGet(in.Nulls, i) {
					continue
				}
				g := gids[k]
				st.nonNull[g]++
				st.intSum[g] += ints[i]
			}
		case st.sumSq != nil: // STDDEV
			for k := lo; k < hi; k++ {
				i := laneCell(st.rows, k)
				if BitGet(in.Nulls, i) {
					continue
				}
				g, f := gids[k], float64(ints[i])
				st.nonNull[g]++
				st.sum[g] += f
				st.sumSq[g] += f * f
			}
		default: // AVG
			if in.Nulls == nil && st.rows == nil {
				for k := lo; k < hi; k++ {
					g := gids[k]
					st.nonNull[g]++
					st.sum[g] += float64(ints[k])
				}
				return nil
			}
			for k := lo; k < hi; k++ {
				i := laneCell(st.rows, k)
				if BitGet(in.Nulls, i) {
					continue
				}
				g := gids[k]
				st.nonNull[g]++
				st.sum[g] += float64(ints[i])
			}
		}
		return nil
	case value.KindFloat:
		fs := in.Floats
		if st.sumSq != nil { // STDDEV
			for k := lo; k < hi; k++ {
				i := laneCell(st.rows, k)
				if BitGet(in.Nulls, i) {
					continue
				}
				g, f := gids[k], fs[i]
				st.nonNull[g]++
				st.sum[g] += f
				st.sumSq[g] += f * f
			}
			return nil
		}
		if in.Nulls == nil && st.rows == nil {
			for k := lo; k < hi; k++ {
				g := gids[k]
				st.nonNull[g]++
				st.sum[g] += fs[k]
			}
			return nil
		}
		if in.Nulls == nil {
			for k := lo; k < hi; k++ {
				g := gids[k]
				st.nonNull[g]++
				st.sum[g] += fs[st.rows[k]]
			}
			return nil
		}
		for k := lo; k < hi; k++ {
			i := laneCell(st.rows, k)
			if BitGet(in.Nulls, i) {
				continue
			}
			g := gids[k]
			st.nonNull[g]++
			st.sum[g] += fs[i]
		}
		return nil
	}
	// Non-numeric kinds error exactly where the boxed accumulator does: at
	// the first non-NULL cell fed (an all-NULL range accumulates nothing).
	for k := lo; k < hi; k++ {
		if !in.IsNull(laneCell(st.rows, k)) {
			return fmt.Errorf("relation: %s over non-numeric %s", st.fn, in.Kind)
		}
	}
	return nil
}

// updateMinMax feeds MIN/MAX with strict-compare replacement, keeping the
// group's first occurrence among compare-equal cells exactly as the boxed
// MustCompare path does (for floats the strict < and > arms coincide with
// MustCompare, NaN-unordered included).
func (st *groupedAggState) updateMinMax(gids []int32, lo, hi int) {
	in := st.in
	wantMin := st.fn == AggMin
	switch in.Kind {
	case value.KindNull:
		return
	case value.KindFloat:
		fs := in.Floats
		for k := lo; k < hi; k++ {
			i := laneCell(st.rows, k)
			if BitGet(in.Nulls, i) {
				continue
			}
			g, v := gids[k], fs[i]
			if !st.has[g] {
				st.has[g], st.bestF[g] = true, v
			} else if (wantMin && v < st.bestF[g]) || (!wantMin && v > st.bestF[g]) {
				st.bestF[g] = v
			}
		}
	case value.KindString:
		ss := in.Strs
		for k := lo; k < hi; k++ {
			i := laneCell(st.rows, k)
			if BitGet(in.Nulls, i) {
				continue
			}
			g, v := gids[k], ss[i]
			if !st.has[g] {
				st.has[g], st.bestS[g] = true, v
			} else if (wantMin && v < st.bestS[g]) || (!wantMin && v > st.bestS[g]) {
				st.bestS[g] = v
			}
		}
	default: // Int, Bool, Date share the Ints payload
		ints := in.Ints
		for k := lo; k < hi; k++ {
			i := laneCell(st.rows, k)
			if BitGet(in.Nulls, i) {
				continue
			}
			g, v := gids[k], ints[i]
			if !st.has[g] {
				st.has[g], st.bestI[g] = true, v
			} else if (wantMin && v < st.bestI[g]) || (!wantMin && v > st.bestI[g]) {
				st.bestI[g] = v
			}
		}
	}
}

// Merge folds o — the same function over a later lane chunk of the same
// column — into st, in chunk order, mirroring accumulator.Merge: counts and
// sums add, bests keep the receiver on compare-equal (the earlier chunk saw
// the cell first), distinct entries union. The boxed lane merges group by
// group.
func (st *groupedAggState) Merge(o *groupedAggState) {
	if st.accs != nil {
		for g := range st.accs {
			st.accs[g].Merge(&o.accs[g])
		}
		return
	}
	switch st.fn {
	case AggCount:
		for g, c := range o.count {
			st.count[g] += c
		}
	case AggCountDistinct:
		st.dt.absorb(o.dt)
	case AggMin, AggMax:
		// Only bestI and bestS merge: MIN and MAX over a FLOAT column never
		// chunk (mergeExact).
		wantMin := st.fn == AggMin
		for g, oh := range o.has {
			if !oh {
				continue
			}
			if !st.has[g] {
				st.has[g] = true
				if st.bestS != nil {
					st.bestS[g] = o.bestS[g]
				} else {
					st.bestI[g] = o.bestI[g]
				}
				continue
			}
			if st.bestS != nil {
				if v := o.bestS[g]; (wantMin && v < st.bestS[g]) || (!wantMin && v > st.bestS[g]) {
					st.bestS[g] = v
				}
			} else if v := o.bestI[g]; (wantMin && v < st.bestI[g]) || (!wantMin && v > st.bestI[g]) {
				st.bestI[g] = v
			}
		}
	default:
		for g, c := range o.nonNull {
			st.nonNull[g] += c
		}
		if st.intSum != nil {
			for g, s := range o.intSum {
				st.intSum[g] += s
			}
		}
		if st.sum != nil {
			for g, s := range o.sum {
				st.sum[g] += s
			}
		}
		if st.sumSq != nil {
			for g, s := range o.sumSq {
				st.sumSq[g] += s
			}
		}
	}
}

// Results finalises every group into an ng-cell column, exactly as
// accumulator.Result would per group: COUNT variants are INT counts (0 for
// empty groups), everything else is NULL for NULL-only groups, and SUM over
// an INT column stays exact in int64. The typed lanes build the column from
// the state's own arrays, boxing nothing (AVG and STDDEV finalise in place,
// so Results is called once); the boxed lane passes its accumulators'
// Result()s through the values rule (ValuesCol).
func (st *groupedAggState) Results() *Col {
	if st.accs != nil {
		vals := make([]value.Value, st.ng)
		for g := range vals {
			vals[g] = st.accs[g].Result()
		}
		return ValuesCol(vals)
	}
	switch st.fn {
	case AggCount:
		return &Col{Kind: value.KindInt, Ints: st.count}
	case AggCountDistinct:
		return &Col{Kind: value.KindInt, Ints: st.dt.counts}
	case AggMin, AggMax:
		if st.in.Kind == value.KindNull {
			return AllNullCol()
		}
		out := &Col{Kind: st.in.Kind, Ints: st.bestI, Floats: st.bestF, Strs: st.bestS}
		for g, h := range st.has {
			if !h {
				out.setNull(g, st.ng)
			}
		}
		return out
	}
	out := &Col{Kind: value.KindFloat, Floats: st.sum}
	if st.intSum != nil {
		out = &Col{Kind: value.KindInt, Ints: st.intSum}
	}
	for g, nn := range st.nonNull {
		if nn == 0 {
			out.setNull(g, st.ng)
			continue
		}
		n := float64(nn)
		switch st.fn {
		case AggAvg:
			st.sum[g] /= n
		case AggStdDev:
			mean := st.sum[g] / n
			varc := st.sumSq[g]/n - mean*mean
			if varc < 0 {
				varc = 0
			}
			st.sum[g] = math.Sqrt(varc)
		}
	}
	return out
}

// distinctTable is COUNT_DISTINCT's typed backing store: one open-addressing
// table over (group, cell) pairs for all groups at once, replacing one boxed
// valueSet per group. An entry stores the cell index, not the value, so
// probing compares raw payloads through CellEqual. Deduplication semantics
// match valueSet exactly — same payload hash, hash-then-equality probe —
// so the per-group distinct counts coincide with the boxed path, NaN and
// signed-zero handling included.
type distinctTable struct {
	in     *Col
	rows   []int32
	slots  []int32 // entry index + 1; 0 marks empty
	mask   uint64
	gids   []int32
	cells  []int32
	hashes []uint64 // cell hashes (value.Hash image of the boxed cell)
	counts []int64  // per-group distinct count
}

func newDistinctTable(in *Col, rows []int32, ng int) *distinctTable {
	return &distinctTable{
		in:     in,
		rows:   rows,
		slots:  make([]int32, 64),
		mask:   63,
		counts: make([]int64, ng),
	}
}

// cellHash is value.Hash of the boxed cell, computed from the typed payload.
func cellHash(c *Col, i int) uint64 {
	switch c.Kind {
	case value.KindInt:
		return value.HashInt(c.Ints[i])
	case value.KindFloat:
		return value.HashFloat(c.Floats[i])
	case value.KindString:
		return value.HashString(c.Strs[i])
	case value.KindBool:
		return value.HashBool(c.Ints[i] != 0)
	case value.KindDate:
		return value.HashDate(c.Ints[i])
	}
	return value.HashNull()
}

func (t *distinctTable) update(gids []int32, lo, hi int) {
	in := t.in
	for k := lo; k < hi; k++ {
		i := laneCell(t.rows, k)
		if in.IsNull(i) {
			continue // COUNT_DISTINCT skips NULL inputs
		}
		t.add(gids[k], int32(i), cellHash(in, i))
	}
}

func (t *distinctTable) add(gid, cell int32, h uint64) {
	// The probe seed folds the group in so one table serves every group.
	p := value.Mix64(h^uint64(uint32(gid))*0x9e3779b97f4a7c15) & t.mask
	for {
		sl := t.slots[p]
		if sl == 0 {
			break
		}
		if j := sl - 1; t.gids[j] == gid && t.hashes[j] == h && t.in.CellEqual(int(t.cells[j]), int(cell)) {
			return
		}
		p = (p + 1) & t.mask
	}
	t.gids = append(t.gids, gid)
	t.cells = append(t.cells, cell)
	t.hashes = append(t.hashes, h)
	t.slots[p] = int32(len(t.gids))
	t.counts[gid]++
	if 4*len(t.gids) >= 3*len(t.slots) {
		t.grow()
	}
}

func (t *distinctTable) grow() {
	slots := make([]int32, 2*len(t.slots))
	mask := uint64(len(slots) - 1)
	for j, h := range t.hashes {
		p := value.Mix64(h^uint64(uint32(t.gids[j]))*0x9e3779b97f4a7c15) & mask
		for slots[p] != 0 {
			p = (p + 1) & mask
		}
		slots[p] = int32(j) + 1
	}
	t.slots = slots
	t.mask = mask
}

// absorb unions o's entries (same column, later chunk) into t.
func (t *distinctTable) absorb(o *distinctTable) {
	for j, gid := range o.gids {
		t.add(gid, o.cells[j], o.hashes[j])
	}
}

// GroupAggregate computes fn over column in for every group and returns the
// results as an ng-cell column (Results): lane k in [0,n) belongs to group
// gids[k] and reads cell rows[k] (nil rows = identity). A nil in is COUNT
// with no argument. The accumulation chunks in parallel when the merge is
// bit-exact (mergeExact, asked about a Boxed column as about a FLOAT one);
// otherwise it stays sequential and the returned flag reports the fallback.
// Every column is accepted: a Boxed one runs the boxed lane, whose error is
// the accumulator's.
func GroupAggregate(fn AggFunc, in *Col, gids, rows []int32, n, ng int) (*Col, bool, error) {
	kind, runs := value.KindNull, aggVectorized
	switch {
	case in != nil && in.Boxed != nil && fn != AggCount:
		kind, runs = value.KindFloat, aggBoxed
	case in != nil:
		kind = in.Kind
	}
	bounds := Chunks(n)
	seqFallback := false
	if len(bounds) > 1 && !mergeExact(fn, kind) {
		bounds = [][2]int{{0, n}}
		seqFallback = true
	}
	if len(bounds) <= 1 {
		st, err := newGroupedAggState(fn, in, rows, ng)
		if err != nil {
			return nil, false, err
		}
		if err := st.Update(gids, 0, n); err != nil {
			return nil, false, err
		}
		runs.Inc()
		return st.Results(), seqFallback, nil
	}
	parts := make([]*groupedAggState, len(bounds))
	err := RunChunks(bounds, func(ch, lo, hi int) error {
		st, err := newGroupedAggState(fn, in, rows, ng)
		if err != nil {
			return err
		}
		if err := st.Update(gids, lo, hi); err != nil {
			return err
		}
		parts[ch] = st
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	st := parts[0]
	for _, p := range parts[1:] {
		st.Merge(p)
	}
	runs.Inc()
	return st.Results(), false, nil
}
