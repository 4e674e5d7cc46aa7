package relation

import "sheetmusiq/internal/obs"

// Hash-grouping kernel. Every replay of the spreadsheet algebra partitions
// rows — aggregation (η), duplicate elimination (δ), ∪/−, SQL GROUP BY,
// DISTINCT and window partitions — and GroupCols is the one kernel that
// does it: a 64-bit hash of each row's key cells (Col.HashInto replicates
// value.HashCombine bit for bit, so a Boxed column hashes as its typed
// twin would), an open-addressing table probed linearly, and collision
// checks with Col.CellEqual against the group's first-occurrence row. Group
// IDs are dense int32s in first-occurrence order, so consumers index flat
// arrays instead of maps.
//
// Equality is value.Equal — the same notion the sort and the group-tree
// adjacency probe use — so -0 and +0 (and numerically equal int/float
// cells of a Boxed column) group together, NULL groups with NULL, and NaN
// hashes to one canonical bucket and groups with itself.

// Grouping metrics: table builds (one per logical grouping pass) and
// linear-probe collisions (occupied slots stepped over — a hash-quality
// signal, normally a tiny fraction of rows).
var (
	grouperBuilds     = obs.Default.Counter("relation.grouper.builds")
	grouperCollisions = obs.Default.Counter("relation.grouper.collisions")
)

// hashSeed is the seed of every row hash.
const hashSeed = uint64(0x51_7c_c1_b7_27_22_0a_95)

// Grouping is the result of GroupCols: each lane's dense group ID and, per
// group in first-occurrence order, the lane of its first row.
type Grouping struct {
	IDs   []int32
	First []int32
}

// NumGroups returns the number of distinct groups.
func (gr *Grouping) NumGroups() int { return len(gr.First) }

// colGrouper is the hash table of one grouping pass: group representatives
// are cell indexes into the key columns.
type colGrouper struct {
	cols  []*Col
	slots []int32 // gid+1; 0 marks an empty slot
	mask  uint64
	hash  []uint64 // per group: its key hash
	reps  []int32  // per group: cell index of the first-occurrence row
}

func newColGrouper(cols []*Col, sizeHint int) *colGrouper {
	// Cap the initial table: group counts are usually tiny next to the row
	// count, growing reinserts only the group representatives (cheap), and a
	// small table keeps probes in cache instead of zeroing hundreds of KB on
	// every build.
	const maxInitial = 8192
	n := 16
	for n < 2*sizeHint && n < maxInitial {
		n <<= 1
	}
	return &colGrouper{cols: cols, slots: make([]int32, n), mask: uint64(n - 1)}
}

// cellsEqual reports whether two rows agree on every key column.
func (g *colGrouper) cellsEqual(a, b int) bool {
	for _, c := range g.cols {
		if !c.CellEqual(a, b) {
			return false
		}
	}
	return true
}

// add inserts the key at cell index, returning its group ID and whether the
// group is new.
func (g *colGrouper) add(cell int, h uint64) (int32, bool) {
	i := h & g.mask
	for {
		s := g.slots[i]
		if s == 0 {
			break
		}
		gid := s - 1
		if g.hash[gid] == h && g.cellsEqual(int(g.reps[gid]), cell) {
			return gid, false
		}
		grouperCollisions.Inc()
		i = (i + 1) & g.mask
	}
	gid := int32(len(g.reps))
	g.reps = append(g.reps, int32(cell))
	g.hash = append(g.hash, h)
	g.slots[i] = gid + 1
	if 4*len(g.reps) >= 3*len(g.slots) {
		g.grow()
	}
	return gid, true
}

// grow doubles the table and reinserts from the stored group hashes.
func (g *colGrouper) grow() {
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

// hashLanes fills hs[k] for k in [0,n) with the row hash of lane k's key,
// chunk-parallel.
func hashLanes(keyCols []*Col, rows []int32, n int) []uint64 {
	hs := make([]uint64, n)
	_ = ForChunks(n, func(_, lo, hi int) error {
		for k := lo; k < hi; k++ {
			hs[k] = hashSeed
		}
		for _, c := range keyCols {
			c.HashInto(hs, rows, lo, hi)
		}
		return nil
	})
	return hs
}

// GroupCols partitions n lanes by the typed key columns, assigning dense
// group IDs in first-occurrence order. rows maps lanes to cell indexes (nil =
// identity), so a view's index vector groups without materializing. IDs and
// First are in lane space. An empty key column set yields one group. Above
// ParallelThreshold the build fans out: row hashes and chunk-local tables
// are computed concurrently, and the chunk tables merge in chunk order, so
// the numbering is identical to the sequential build (a group first seen
// in chunk c cannot have appeared in any earlier chunk).
func GroupCols(keyCols []*Col, rows []int32, n int) *Grouping {
	gr := &Grouping{}
	if n == 0 {
		return gr
	}
	grouperBuilds.Inc()
	if len(keyCols) == 0 {
		gr.IDs = make([]int32, n)
		gr.First = []int32{0}
		return gr
	}
	cell := func(k int) int {
		if rows == nil {
			return k
		}
		return int(rows[k])
	}
	hs := hashLanes(keyCols, rows, n)
	gr.IDs = make([]int32, n)
	bounds := Chunks(n)
	if len(bounds) <= 1 {
		g := newColGrouper(keyCols, n/4+1)
		for k := 0; k < n; k++ {
			gid, fresh := g.add(cell(k), hs[k])
			gr.IDs[k] = gid
			if fresh {
				gr.First = append(gr.First, int32(k))
			}
		}
		return gr
	}
	// Parallel build: chunk-local tables with chunk-local IDs, merged into a
	// global numbering in chunk order: local groups map to global IDs
	// through a remap table, appended in local first-occurrence order, which
	// is global first-occurrence order for unseen groups.
	type part struct {
		g     *colGrouper
		first []int32 // lane of first occurrence per local group
	}
	parts := make([]part, len(bounds))
	_ = RunChunks(bounds, func(c, lo, hi int) error {
		g := newColGrouper(keyCols, (hi-lo)/4+1)
		var first []int32
		for k := lo; k < hi; k++ {
			gid, fresh := g.add(cell(k), hs[k])
			gr.IDs[k] = gid
			if fresh {
				first = append(first, int32(k))
			}
		}
		parts[c] = part{g: g, first: first}
		return nil
	})
	total := 0
	for _, p := range parts {
		total += len(p.g.reps)
	}
	global := newColGrouper(keyCols, total)
	for c := range parts {
		p := &parts[c]
		remap := make([]int32, len(p.g.reps))
		for lg := range p.g.reps {
			gid, fresh := global.add(int(p.g.reps[lg]), p.g.hash[lg])
			remap[lg] = gid
			if fresh {
				gr.First = append(gr.First, p.first[lg])
			}
		}
		p.first = remap // reuse the slot to carry the remap to the rewrite pass
	}
	_ = RunChunks(bounds, func(c, lo, hi int) error {
		remap := parts[c].first
		for k := lo; k < hi; k++ {
			gr.IDs[k] = remap[gr.IDs[k]]
		}
		return nil
	})
	return gr
}
