package relation

import (
	"sheetmusiq/internal/obs"
	"sheetmusiq/internal/value"
)

// Joins over typed columns. Every join keys and gathers on column vectors:
// the equi-hash-join (HashJoin) builds a key table on the smaller side's key
// columns and probes with the other side, so only key-matching candidate
// pairs are enumerated; the theta-join (Join) enumerates the product in
// blocks. Either way the candidates are gathered into typed columns
// (MaterializePairs) and a PairFilter — the rest of the join predicate, run
// by the caller as a batch program over the candidates' columns — keeps the
// survivors. No cell is boxed.
//
// The key match is SQL `=`: value.Equal over non-NULL cells (so INT 3 meets
// FLOAT 3.0 in a Boxed or cross-kind key), and a NULL key cell never
// matches. The typed hash replicates value.Hash bit for bit and the typed
// equality is value.Equal's, so the candidates are exactly the pairs whose
// keys compare equal. Callers extract the key pairs from the predicate's
// top-level conjuncts, so the predicate implies them, and the result is
// identical, in product order, to filtering the product with the same
// predicate. One caveat: a predicate that would *error* on a non-candidate
// pair (say a residual conjunct comparing incompatible kinds) reports that
// error only on the theta path.
var (
	joinHash     = obs.Default.Counter("relation.join.hash")
	joinFallback = obs.Default.Counter("relation.join.fallback")
)

// PairFilter is the part of a join predicate the join kernels do not
// evaluate themselves. cand holds candidate pairs, in product order and
// product layout, as a column-built relation; the filter returns the
// ascending positions of the candidates to keep, or the error of the first
// failing candidate.
type PairFilter func(cand *Relation) ([]int32, error)

// colPairEqual reports value.Equal of cell i of column a and cell j of
// column b without boxing, falling back to boxed comparison for dynamic
// columns or mismatched kinds (where cross-kind numeric equality applies).
func colPairEqual(a *Col, i int, b *Col, j int) bool {
	if a.Boxed != nil || b.Boxed != nil || a.Kind != b.Kind {
		return value.Equal(a.Value(i), b.Value(j))
	}
	ni, nj := a.IsNull(i), b.IsNull(j)
	if ni || nj {
		return ni == nj
	}
	switch a.Kind {
	case value.KindFloat:
		x, y := a.Floats[i], b.Floats[j]
		return !(x < y) && !(x > y)
	case value.KindString:
		return a.Strs[i] == b.Strs[j]
	default:
		return a.Ints[i] == b.Ints[j]
	}
}

// findCross probes the table with a key drawn from a different column set
// (the join probe side); cols must align positionally with the table's own.
func (g *colGrouper) findCross(probe []*Col, cell int, h uint64) int32 {
	i := h & g.mask
	for {
		s := g.slots[i]
		if s == 0 {
			return -1
		}
		gid := s - 1
		if g.hash[gid] == h {
			eq := true
			for k, c := range g.cols {
				if !colPairEqual(c, int(g.reps[gid]), probe[k], cell) {
					eq = false
					break
				}
			}
			if eq {
				return gid
			}
		}
		grouperCollisions.Inc()
		i = (i + 1) & g.mask
	}
}

// keyColumns returns the relation's columns at the key positions.
func keyColumns(r *Relation, pos []int) []*Col {
	cols := r.Columns()
	out := make([]*Col, len(pos))
	for i, p := range pos {
		out[i] = cols[p]
	}
	return out
}

// nullKeys marks the rows whose key has a NULL cell, or returns nil when
// none has one.
func nullKeys(key []*Col, n int) []uint64 {
	var bm []uint64
	for _, c := range key {
		if c.Boxed == nil && c.Kind != value.KindNull && c.Nulls == nil {
			continue
		}
		for i := 0; i < n; i++ {
			if c.IsNull(i) {
				if bm == nil {
					bm = NewBitmap(n)
				}
				BitSet(bm, i)
			}
		}
	}
	return bm
}

// joinGids assigns both sides' rows the group ID of their key, building the
// key table on the smaller side and probing with the larger: -1 marks a row
// whose key is NULL or, on the probe side, absent from the table. Probing
// only reads the table, so it fans out across chunks. It returns the group
// count.
func joinGids(akey, bkey []*Col, agids, bgids []int32) int {
	build, probe := akey, bkey
	bgid, pgid := agids, bgids
	if len(agids) > len(bgids) {
		build, probe, bgid, pgid = bkey, akey, bgids, agids
	}
	nb, np := len(bgid), len(pgid)
	grouperBuilds.Inc()
	bh, bnull := hashLanes(build, nil, nb), nullKeys(build, nb)
	ph, pnull := hashLanes(probe, nil, np), nullKeys(probe, np)
	g := newColGrouper(build, nb)
	for i := 0; i < nb; i++ {
		if BitGet(bnull, i) {
			bgid[i] = -1
			continue
		}
		bgid[i], _ = g.add(i, bh[i])
	}
	_ = ForChunks(np, func(_, lo, hi int) error {
		for j := lo; j < hi; j++ {
			if BitGet(pnull, j) {
				pgid[j] = -1
				continue
			}
			pgid[j] = g.findCross(probe, j, ph[j])
		}
		return nil
	})
	return len(g.reps)
}

// HashJoin joins r and s on the column-equality pairs lcols[i] = rcols[i]
// under SQL `=`, then keeps the candidate pairs that residual accepts (the
// rest of the join predicate; nil keeps every candidate). Output rows
// appear in product order — left rows in order, each with its matching
// right rows ascending — bit-identical to Join with the whole predicate.
func (r *Relation) HashJoin(s *Relation, lcols, rcols []int, residual PairFilter) (*Relation, error) {
	joinHash.Inc()
	name, schema := r.Name+"_x_"+s.Name, productSchema(r, s)
	na, nb := r.Len(), s.Len()
	if na == 0 || nb == 0 {
		return MaterializePairs(name, schema, r, s, nil, nil), nil
	}
	agids := make([]int32, na)
	bgids := make([]int32, nb)
	ngroups := joinGids(keyColumns(r, lcols), keyColumns(s, rcols), agids, bgids)
	// Posting lists: the right rows of each group, ascending, in CSR layout —
	// one flat entry array sliced per group by offsets, not one slice per
	// group.
	starts := make([]int32, ngroups+1)
	for _, gid := range bgids {
		if gid >= 0 {
			starts[gid+1]++
		}
	}
	for gid := 0; gid < ngroups; gid++ {
		starts[gid+1] += starts[gid]
	}
	entries := make([]int32, starts[ngroups])
	cursor := make([]int32, ngroups)
	copy(cursor, starts[:ngroups])
	for j, gid := range bgids {
		if gid >= 0 {
			entries[cursor[gid]] = int32(j)
			cursor[gid]++
		}
	}
	// Enumerate the candidate pairs per chunk of left rows; concatenated in
	// chunk order they are in product order.
	bounds := Chunks(na)
	pas := make([][]int32, len(bounds))
	pbs := make([][]int32, len(bounds))
	_ = RunChunks(bounds, func(c, lo, hi int) error {
		var pa, pb []int32
		for a := lo; a < hi; a++ {
			gid := agids[a]
			if gid < 0 {
				continue
			}
			for _, b := range entries[starts[gid]:starts[gid+1]] {
				pa = append(pa, int32(a))
				pb = append(pb, b)
			}
		}
		pas[c], pbs[c] = pa, pb
		return nil
	})
	total := 0
	for _, pa := range pas {
		total += len(pa)
	}
	pa := make([]int32, 0, total)
	pb := make([]int32, 0, total)
	for c := range pas {
		pa = append(pa, pas[c]...)
		pb = append(pb, pbs[c]...)
	}
	cand := MaterializePairs(name, schema, r, s, pa, pb)
	if residual == nil {
		return cand, nil
	}
	keep, err := residual(cand)
	if err != nil {
		return nil, err
	}
	if len(keep) == len(pa) {
		return cand, nil
	}
	return cand.Pick(keep), nil
}

// joinBlockPairs bounds the candidates one theta-join block gathers: the
// product streams through the filter in blocks of whole left rows, so a
// large product is never materialised at once.
const joinBlockPairs = 1 << 16

// Join computes the theta-join of r and s: the product, in product order
// and productSchema layout, filtered by on. A nil filter degenerates to the
// product. Blocks of whole left rows gather their pairs and run the filter
// in product order, so the first error reported is the first failing pair's.
func (r *Relation) Join(s *Relation, on PairFilter) (*Relation, error) {
	if on == nil {
		return r.Product(s), nil
	}
	joinFallback.Inc()
	name, schema := r.Name+"_x_"+s.Name, productSchema(r, s)
	na, nb := r.Len(), s.Len()
	var pa, pb []int32
	if nb > 0 {
		step := max(1, joinBlockPairs/nb)
		for lo := 0; lo < na; lo += step {
			ba, bb := productPairs(lo, min(lo+step, na), nb)
			keep, err := on(MaterializePairs(name, schema, r, s, ba, bb))
			if err != nil {
				return nil, err
			}
			for _, k := range keep {
				pa = append(pa, ba[k])
				pb = append(pb, bb[k])
			}
		}
	}
	return MaterializePairs(name, schema, r, s, pa, pb), nil
}

// productPairs enumerates the product's pairs for left rows [lo, hi) against
// nb right rows, in product order.
func productPairs(lo, hi, nb int) (pa, pb []int32) {
	n := (hi - lo) * nb
	pa, pb = make([]int32, n), make([]int32, n)
	k := 0
	for a := lo; a < hi; a++ {
		for b := 0; b < nb; b++ {
			pa[k], pb[k] = int32(a), int32(b)
			k++
		}
	}
	return pa, pb
}

// Product returns the Cartesian product r × s with productSchema naming,
// gathered typed over the product's pairs.
func (r *Relation) Product(s *Relation) *Relation {
	pa, pb := productPairs(0, r.Len(), s.Len())
	return MaterializePairs(r.Name+"_x_"+s.Name, productSchema(r, s), r, s, pa, pb)
}

// MaterializePairs returns the relation whose row k concatenates row pa[k]
// of r and row pb[k] of s: each output column gathers its payload through
// the pair vector of its side, chunked across columns — no cell is boxed.
// schema must be the product layout (r's columns then s's).
func MaterializePairs(name string, schema Schema, r, s *Relation, pa, pb []int32) *Relation {
	cols := append(GatherCols(r.Columns(), pa), GatherCols(s.Columns(), pb)...)
	return FromColumns(name, schema, cols, len(pa))
}
