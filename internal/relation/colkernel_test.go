package relation

import (
	"math/rand"
	"testing"

	"sheetmusiq/internal/value"
)

// Tests for the typed column kernels: grouping and hashing over payload
// arrays must be indistinguishable from the boxed reference (same dense IDs,
// same first-occurrence order, same hash bits), and must allocate per
// group or per window — never per row.

// TestGroupColsMatchesBoxed: typed grouping over column vectors assigns
// exactly the IDs and first-occurrence lanes the string-key reference over
// the boxed rows does, with and without a row-index indirection.
func TestGroupColsMatchesBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 60; trial++ {
		rows := genRows(rng, 1+rng.Intn(300))
		r := makeRel("gc", rows)
		cols := r.Columns()
		keyPos := []int{0, 1}
		keyCols := []*Col{cols[0], cols[1]}
		wantIDs, wantFirst := refGroupIDs(rows, keyPos)

		got := GroupCols(keyCols, nil, len(rows))
		if !eqInt32(wantIDs, got.IDs) || !eqInt32(wantFirst, got.First) {
			t.Fatalf("trial %d: GroupCols diverges from boxed grouping", trial)
		}

		// Indirection: group a shuffled, duplicating subset of the rows.
		m := 1 + rng.Intn(2*len(rows))
		idx := make([]int32, m)
		sub := make([]Tuple, m)
		for i := range idx {
			idx[i] = int32(rng.Intn(len(rows)))
			sub[i] = rows[idx[i]]
		}
		wantIDs, wantFirst = refGroupIDs(sub, keyPos)
		got = GroupCols(keyCols, idx, m)
		if !eqInt32(wantIDs, got.IDs) || !eqInt32(wantFirst, got.First) {
			t.Fatalf("trial %d: indexed GroupCols diverges from boxed grouping", trial)
		}
	}
}

// TestHashIntoMatchesHashCombine pins the hoisted no-null fast loops: the
// columnar hash pass must produce bit-identical row hashes to folding each
// boxed cell through value.HashCombine, for every payload family, with and
// without null bitmaps and row indirection.
func TestHashIntoMatchesHashCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 40; trial++ {
		rows := genRows(rng, 1+rng.Intn(200))
		r := makeRel("hi", rows)
		cols := r.Columns()
		n := len(rows)

		var idx []int32
		if trial%2 == 1 {
			idx = make([]int32, n)
			for i := range idx {
				idx[i] = int32(rng.Intn(n))
			}
		}
		cell := func(k int) int {
			if idx == nil {
				return k
			}
			return int(idx[k])
		}

		got := hashLanes(cols, idx, n)
		for k := 0; k < n; k++ {
			h := hashSeed
			for _, c := range cols {
				h = value.HashCombine(h, c.Value(cell(k)))
			}
			if got[k] != h {
				t.Fatalf("trial %d: lane %d hash %#x, boxed combine %#x", trial, k, got[k], h)
			}
		}
	}
}

// TestGroupColsBoundedAllocs caps the typed grouping path: 10k rows must
// cost a bounded number of allocations (hash lanes, ID array, table
// doublings) — never one per row.
func TestGroupColsBoundedAllocs(t *testing.T) {
	old := ParallelThreshold
	ParallelThreshold = 1 << 30
	defer func() { ParallelThreshold = old }()
	rng := rand.New(rand.NewSource(61))
	r := makeRel("gca", genRows(rng, 10000))
	cols := r.Columns()
	keyCols := []*Col{cols[0], cols[1]}
	n := r.Len()
	allocs := testing.AllocsPerRun(5, func() {
		GroupCols(keyCols, nil, n)
	})
	if allocs > 100 {
		t.Fatalf("GroupCols allocates %.0f times for 10k rows; per-row allocation regressed", allocs)
	}
}

// TestColGatherBoundedAllocs: gathering a typed column allocates the output
// payload (plus bitmap bookkeeping), independent of row count.
func TestColGatherBoundedAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	r := makeRel("cga", genRows(rng, 10000))
	cols := r.Columns()
	idx := make([]int32, r.Len())
	for i := range idx {
		idx[i] = int32(rng.Intn(r.Len()))
	}
	for ci, c := range cols {
		allocs := testing.AllocsPerRun(5, func() {
			c.Gather(idx)
		})
		if allocs > 8 {
			t.Fatalf("column %d: Gather allocates %.0f times for 10k rows", ci, allocs)
		}
	}
}
