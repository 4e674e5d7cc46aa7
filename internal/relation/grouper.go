package relation

import (
	"sheetmusiq/internal/obs"
	"sheetmusiq/internal/value"
)

// Hash-grouping kernel. Every replay of the spreadsheet algebra partitions
// rows — aggregation (η), duplicate elimination (δ), SQL GROUP BY/DISTINCT —
// and used to do so through per-row formatted string keys (Tuple.Key/KeyOn),
// the dominant allocation cost of those stages. The Grouper replaces the
// string keys with a dense group-ID kernel: a 64-bit value hash
// (value.Hash), an open-addressing table probed linearly, and direct
// value.Equal collision checks against the group's first-occurrence
// representative. Group IDs are dense int32s assigned in first-occurrence
// order, so "group by" consumers index flat arrays instead of maps and
// first-appearance ordering is preserved exactly as with string keys.
//
// Equality is value.Equal — the same notion the sort and the group-tree
// adjacency probe use — so -0 and +0 (and numerically equal int/float
// pairs) now group together everywhere; the retired string keys treated
// -0/+0 as distinct, disagreeing with the sort. NaN hashes to one canonical
// bucket and groups with itself.

// Grouping metrics: table builds (one per logical grouping pass, batch or
// incremental) and linear-probe collisions (occupied slots stepped over —
// a hash-quality signal, normally a tiny fraction of rows).
var (
	grouperBuilds     = obs.Default.Counter("relation.grouper.builds")
	grouperCollisions = obs.Default.Counter("relation.grouper.collisions")
)

// Grouper maps tuples (restricted to a column set) to dense group IDs in
// first-insertion order. The zero value is not usable; construct with
// NewGrouper. Not safe for concurrent use; the batch entry point
// GroupRowsOn builds per-chunk tables and merges them instead.
type Grouper struct {
	cols  []int   // key columns; nil means every column
	slots []int32 // gid+1; 0 marks an empty slot
	mask  uint64
	hash  []uint64 // per group: its key hash
	reps  []Tuple  // per group: first-occurrence tuple (not cloned)
}

// NewGrouper returns an empty table keyed on cols (nil = whole tuple),
// pre-sized for about sizeHint distinct keys.
func NewGrouper(cols []int, sizeHint int) *Grouper {
	grouperBuilds.Inc()
	return newGrouper(cols, sizeHint)
}

func newGrouper(cols []int, sizeHint int) *Grouper {
	n := 16
	for n < 2*sizeHint {
		n <<= 1
	}
	return &Grouper{cols: cols, slots: make([]int32, n), mask: uint64(n - 1)}
}

// Len returns the number of distinct groups inserted so far.
func (g *Grouper) Len() int { return len(g.reps) }

// Rep returns the first-occurrence tuple of a group.
func (g *Grouper) Rep(gid int32) Tuple { return g.reps[gid] }

// hashRow hashes t restricted to cols (nil = all values).
func hashRow(t Tuple, cols []int) uint64 {
	h := hashSeed
	if cols == nil {
		for _, v := range t {
			h = value.HashCombine(h, v)
		}
		return h
	}
	for _, c := range cols {
		h = value.HashCombine(h, t[c])
	}
	return h
}

// equalRows reports whether a and b, restricted to cols, are equal under
// value.Equal. A nil column set means the whole tuple.
func equalRows(a, b Tuple, cols []int) bool {
	if cols == nil {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !value.Equal(a[i], b[i]) {
				return false
			}
		}
		return true
	}
	for _, c := range cols {
		if !value.Equal(a[c], b[c]) {
			return false
		}
	}
	return true
}

// Add inserts t's key, returning its group ID and whether the group is new.
func (g *Grouper) Add(t Tuple) (int32, bool) {
	return g.addHashed(t, hashRow(t, g.cols))
}

// addHashed is Add with the key hash already computed.
func (g *Grouper) addHashed(t Tuple, h uint64) (int32, bool) {
	i := h & g.mask
	for {
		s := g.slots[i]
		if s == 0 {
			break
		}
		gid := s - 1
		if g.hash[gid] == h && equalRows(g.reps[gid], t, g.cols) {
			return gid, false
		}
		grouperCollisions.Inc()
		i = (i + 1) & g.mask
	}
	gid := int32(len(g.reps))
	g.reps = append(g.reps, t)
	g.hash = append(g.hash, h)
	g.slots[i] = gid + 1
	if 4*len(g.reps) >= 3*len(g.slots) {
		g.grow()
	}
	return gid, true
}

// Find returns the group ID of t's key, or -1 when absent.
func (g *Grouper) Find(t Tuple) int32 {
	h := hashRow(t, g.cols)
	i := h & g.mask
	for {
		s := g.slots[i]
		if s == 0 {
			return -1
		}
		gid := s - 1
		if g.hash[gid] == h && equalRows(g.reps[gid], t, g.cols) {
			return gid
		}
		grouperCollisions.Inc()
		i = (i + 1) & g.mask
	}
}

// grow doubles the table and reinserts from the stored group hashes; key
// values are never re-hashed.
func (g *Grouper) grow() {
	slots := make([]int32, 2*len(g.slots))
	mask := uint64(len(slots) - 1)
	for gid, h := range g.hash {
		i := h & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = int32(gid) + 1
	}
	g.slots = slots
	g.mask = mask
}

// Grouping is the batch result of GroupRowsOn: each row's dense group ID
// and, per group in first-occurrence order, the index of its first row.
type Grouping struct {
	IDs   []int32
	First []int32
}

// NumGroups returns the number of distinct groups.
func (gr *Grouping) NumGroups() int { return len(gr.First) }

// GroupRowsOn partitions rows by the key columns (nil = whole tuple),
// assigning dense group IDs in first-occurrence order. Above
// ParallelThreshold the build fans out: row hashes and per-chunk tables are
// computed concurrently, and the chunk tables merge in chunk order —
// first-occurrence group numbering is therefore identical to the
// sequential build (a group first seen in chunk c cannot have appeared in
// any earlier chunk).
func GroupRowsOn(rows []Tuple, cols []int) *Grouping {
	n := len(rows)
	gr := &Grouping{}
	if n == 0 {
		return gr
	}
	grouperBuilds.Inc()
	if cols != nil && len(cols) == 0 {
		// Empty key: one group holding every row (level-1 aggregation).
		gr.IDs = make([]int32, n)
		gr.First = []int32{0}
		return gr
	}
	hs := make([]uint64, n)
	_ = ForChunks(n, func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			hs[i] = hashRow(rows[i], cols)
		}
		return nil
	})
	gr.IDs = make([]int32, n)
	bounds := Chunks(n)
	if len(bounds) <= 1 {
		g := newGrouper(cols, n/4+1)
		for i, t := range rows {
			gid, fresh := g.addHashed(t, hs[i])
			gr.IDs[i] = gid
			if fresh {
				gr.First = append(gr.First, int32(i))
			}
		}
		return gr
	}
	// Parallel build: chunk-local tables with chunk-local IDs...
	type part struct {
		g     *Grouper
		first []int32 // absolute first row index per local group
	}
	parts := make([]part, len(bounds))
	_ = RunChunks(bounds, func(c, lo, hi int) error {
		g := newGrouper(cols, (hi-lo)/4+1)
		var first []int32
		for i := lo; i < hi; i++ {
			gid, fresh := g.addHashed(rows[i], hs[i])
			gr.IDs[i] = gid
			if fresh {
				first = append(first, int32(i))
			}
		}
		parts[c] = part{g: g, first: first}
		return nil
	})
	// ...merged into a global numbering in chunk order: local groups map to
	// global IDs through a remap table, appended in local first-occurrence
	// order, which is global first-occurrence order for unseen groups.
	total := 0
	for _, p := range parts {
		total += p.g.Len()
	}
	global := newGrouper(cols, total)
	remaps := make([][]int32, len(parts))
	for c, p := range parts {
		remap := make([]int32, p.g.Len())
		for lg := 0; lg < p.g.Len(); lg++ {
			gid, fresh := global.addHashed(p.g.reps[lg], p.g.hash[lg])
			remap[lg] = gid
			if fresh {
				gr.First = append(gr.First, p.first[lg])
			}
		}
		remaps[c] = remap
	}
	_ = RunChunks(bounds, func(c, lo, hi int) error {
		remap := remaps[c]
		for i := lo; i < hi; i++ {
			gr.IDs[i] = remap[gr.IDs[i]]
		}
		return nil
	})
	return gr
}
