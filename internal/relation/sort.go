package relation

import (
	"fmt"
	"strings"
	"sync"

	"sheetmusiq/internal/obs"
	"sheetmusiq/internal/value"
)

// SortKey names a column and a direction for sorting.
type SortKey struct {
	Column string
	Desc   bool
}

// Presentation-sort kernel. The ordering operator λ runs on every replay, so
// the sort used to pay closure + interface dispatch per comparison through
// sort.SliceStable, re-indexing the key columns out of each row every time.
// The keyed sort extracts the sort columns once into a flat array, orders an
// int32 index permutation with a typed stable merge sort, and applies the
// permutation in one pass. SortPermCols is the columnar variant: it compares
// typed column payloads directly, with no boxed key extraction at all. Above
// ParallelThreshold the permutation is chunk-sorted concurrently and the
// sorted runs merge pairwise; every merge prefers the left (lower original
// index) run on ties, so the result is stable and bit-identical to the
// sequential sort.
var (
	sortKeyed    = obs.Default.Counter("relation.sort.keyed")
	sortParallel = obs.Default.Counter("relation.sort.parallel")
)

// permSorter stably orders an int32 permutation under an arbitrary strict
// less. Both the boxed keyed sort and the typed columnar sort run through
// it, so their stability and parallel-merge determinism are identical.
type permSorter struct {
	less func(a, b int32) bool
}

// keyedSorter orders row indexes by precomputed key columns. keys holds k
// values per row, row-major; desc flips the direction per key position.
type keyedSorter struct {
	keys []value.Value
	k    int
	desc []bool
}

func (s *keyedSorter) less(a, b int32) bool {
	ka := s.keys[int(a)*s.k : int(a)*s.k+s.k]
	kb := s.keys[int(b)*s.k : int(b)*s.k+s.k]
	for i := 0; i < s.k; i++ {
		c := value.MustCompare(ka[i], kb[i])
		if c == 0 {
			continue
		}
		if s.desc[i] {
			return c > 0
		}
		return c < 0
	}
	return false
}

// sortRunCutoff is the run length below which the merge sort switches to
// insertion sort (stable, cache-friendly, no merge buffer traffic).
const sortRunCutoff = 24

// insertionSort stably orders a short run in place.
func (s *permSorter) insertionSort(p []int32) {
	for i := 1; i < len(p); i++ {
		for j := i; j > 0 && s.less(p[j], p[j-1]); j-- {
			p[j], p[j-1] = p[j-1], p[j]
		}
	}
}

// sortRun stably orders p using buf (same length) as merge scratch.
func (s *permSorter) sortRun(p, buf []int32) {
	if len(p) <= sortRunCutoff {
		s.insertionSort(p)
		return
	}
	mid := len(p) / 2
	s.sortRun(p[:mid], buf[:mid])
	s.sortRun(p[mid:], buf[mid:])
	if !s.less(p[mid], p[mid-1]) {
		return // halves already in order
	}
	// Copy the left half out and merge back into p. The write cursor can
	// never overtake the right half's read cursor, so the overlap is safe.
	copy(buf[:mid], p[:mid])
	s.mergeInto(buf[:mid], p[mid:], p)
}

// mergeInto merges sorted runs a and b into out, preferring a on ties.
// Stability follows because a always holds lower original positions than b.
func (s *permSorter) mergeInto(a, b, out []int32) {
	i, j, w := 0, 0, 0
	for i < len(a) && j < len(b) {
		if s.less(b[j], a[i]) {
			out[w] = b[j]
			j++
		} else {
			out[w] = a[i]
			i++
		}
		w++
	}
	copy(out[w:], a[i:])
	copy(out[w+len(a)-i:], b[j:])
}

// sort stably orders the full permutation, fanning out above the parallel
// threshold: chunks sort concurrently, then sorted runs merge pairwise (also
// concurrently) until one run remains.
func (s *permSorter) sort(perm []int32) {
	n := len(perm)
	buf := make([]int32, n)
	bounds := Chunks(n)
	if len(bounds) <= 1 {
		s.sortRun(perm, buf)
		return
	}
	sortParallel.Inc()
	_ = RunChunks(bounds, func(_, lo, hi int) error {
		s.sortRun(perm[lo:hi], buf[lo:hi])
		return nil
	})
	src, dst := perm, buf
	for len(bounds) > 1 {
		next := make([][2]int, 0, (len(bounds)+1)/2)
		var wg sync.WaitGroup
		for i := 0; i < len(bounds); i += 2 {
			lo := bounds[i][0]
			if i+1 == len(bounds) {
				// Odd run out: carry it into the destination unchanged.
				hi := bounds[i][1]
				copy(dst[lo:hi], src[lo:hi])
				next = append(next, bounds[i])
				continue
			}
			mid, hi := bounds[i][1], bounds[i+1][1]
			next = append(next, [2]int{lo, hi})
			wg.Add(1)
			go func(lo, mid, hi int) {
				defer wg.Done()
				s.mergeInto(src[lo:mid], src[mid:hi], dst[lo:hi])
			}(lo, mid, hi)
		}
		wg.Wait()
		src, dst = dst, src
		bounds = next
	}
	if &src[0] != &perm[0] {
		copy(perm, src)
	}
}

// SortPermByKeys stably orders row indexes 0..n-1 by precomputed keys — k
// values per row, row-major, with desc flipping the direction per key
// position — and returns the permutation. Relation.Sort is this kernel
// applied to extracted column values; the SQL executor feeds it computed
// ORDER BY expression results.
func SortPermByKeys(keys []value.Value, k int, desc []bool) []int32 {
	n := len(keys) / k
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	if n < 2 {
		return perm
	}
	sortKeyed.Inc()
	s := &keyedSorter{keys: keys, k: k, desc: desc}
	(&permSorter{less: s.less}).sort(perm)
	return perm
}

// colCompare builds a three-way comparator over one key column's cells,
// mapping sort lanes to cell indexes through rows (nil = identity).
// Semantics are exactly value.MustCompare on the boxed cells: NULLs first,
// exact int64 comparison, float comparison that leaves NaN unordered,
// strings.Compare, bool/date by payload.
func colCompare(c *Col, rows []int32) func(a, b int32) int {
	cell := func(l int32) int {
		if rows == nil {
			return int(l)
		}
		return int(rows[l])
	}
	if c.Boxed != nil {
		return func(a, b int32) int {
			return value.MustCompare(c.Boxed[cell(a)], c.Boxed[cell(b)])
		}
	}
	// The no-null identity-lane combinations dominate sorting whole
	// relations; their comparators index the payload directly, with no lane
	// mapping or null branch on the compare path.
	if rows == nil && c.Nulls == nil && c.Kind != value.KindNull {
		switch c.Kind {
		case value.KindFloat:
			fs := c.Floats
			return func(a, b int32) int {
				x, y := fs[a], fs[b]
				switch {
				case x < y:
					return -1
				case x > y:
					return 1
				default:
					return 0
				}
			}
		case value.KindString:
			ss := c.Strs
			return func(a, b int32) int {
				return strings.Compare(ss[a], ss[b])
			}
		default:
			xs := c.Ints
			return func(a, b int32) int {
				x, y := xs[a], xs[b]
				switch {
				case x < y:
					return -1
				case x > y:
					return 1
				default:
					return 0
				}
			}
		}
	}
	nullCmp := func(i, j int) (int, bool) {
		ni, nj := c.IsNull(i), c.IsNull(j)
		switch {
		case ni && nj:
			return 0, true
		case ni:
			return -1, true
		case nj:
			return 1, true
		}
		return 0, false
	}
	switch c.Kind {
	case value.KindFloat:
		return func(a, b int32) int {
			i, j := cell(a), cell(b)
			if r, done := nullCmp(i, j); done {
				return r
			}
			x, y := c.Floats[i], c.Floats[j]
			switch {
			case x < y:
				return -1
			case x > y:
				return 1
			default:
				return 0
			}
		}
	case value.KindString:
		return func(a, b int32) int {
			i, j := cell(a), cell(b)
			if r, done := nullCmp(i, j); done {
				return r
			}
			return strings.Compare(c.Strs[i], c.Strs[j])
		}
	default: // Int, Bool, Date, and all-NULL columns share the int payload
		return func(a, b int32) int {
			i, j := cell(a), cell(b)
			if r, done := nullCmp(i, j); done {
				return r
			}
			x, y := c.Ints[i], c.Ints[j]
			switch {
			case x < y:
				return -1
			case x > y:
				return 1
			default:
				return 0
			}
		}
	}
}

// SortPermCols stably orders sort lanes 0..n-1 by the typed key columns,
// reading cell indexes through rows (nil = identity), and returns the
// permutation — SortPermByKeys without the boxed key extraction.
func SortPermCols(keyCols []*Col, rows []int32, n int, desc []bool) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	if n < 2 || len(keyCols) == 0 {
		return perm
	}
	sortKeyed.Inc()
	cmps := make([]func(a, b int32) int, len(keyCols))
	for i, c := range keyCols {
		cmps[i] = colCompare(c, rows)
	}
	less := func(a, b int32) bool {
		for i, cmp := range cmps {
			c := cmp(a, b)
			if c == 0 {
				continue
			}
			if desc[i] {
				return c > 0
			}
			return c < 0
		}
		return false
	}
	(&permSorter{less: less}).sort(perm)
	return perm
}

// sortPlan resolves keys against the schema into column indexes and
// per-key directions.
func (r *Relation) sortPlan(keys []SortKey) (idx []int, desc []bool, err error) {
	idx = make([]int, len(keys))
	desc = make([]bool, len(keys))
	for i, k := range keys {
		j := r.Schema.IndexOf(k.Column)
		if j < 0 {
			return nil, nil, fmt.Errorf("sort: no column %q in %s", k.Column, r.Name)
		}
		idx[i] = j
		desc[i] = k.Desc
	}
	return idx, desc, nil
}

// Sort stably orders the relation's rows by the given keys, NULLs first
// within ascending order. The receiver is modified in place (Rows is
// replaced with a newly ordered slice; a columnar cache is invalidated).
// When the column vectors are already built the permutation orders through
// the typed lane comparators (SortPermCols) with no boxed key extraction;
// otherwise the keys extract once into a flat boxed array.
func (r *Relation) Sort(keys []SortKey) error {
	idx, desc, err := r.sortPlan(keys)
	if err != nil {
		return err
	}
	src := r.TupleRows()
	n := len(src)
	if n < 2 || len(keys) == 0 {
		return nil
	}
	var perm []int32
	if cols := r.CachedColumns(); cols != nil {
		keyCols := make([]*Col, len(idx))
		for i, j := range idx {
			keyCols[i] = cols[j]
		}
		perm = SortPermCols(keyCols, nil, n, desc)
	} else {
		k := len(idx)
		flat := make([]value.Value, n*k)
		_ = ForChunks(n, func(_, lo, hi int) error {
			for i := lo; i < hi; i++ {
				row, out := src[i], flat[i*k:(i+1)*k]
				for j, c := range idx {
					out[j] = row[c]
				}
			}
			return nil
		})
		perm = SortPermByKeys(flat, k, desc)
	}
	rows := make([]Tuple, n)
	_ = ForChunks(n, func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			rows[i] = src[perm[i]]
		}
		return nil
	})
	r.invalidateColumns()
	r.Rows = rows
	return nil
}

// SortedClone returns a sorted copy, leaving the receiver untouched. Above
// the columnar threshold the copy is built column-wise: the permutation
// orders typed lanes (SortPermCols) and each column gathers through it, so
// the whole operation allocates O(columns), not O(rows) — no boxed sort key
// and no per-row clone. The result is column-built; its rows materialize
// lazily through TupleRows.
func (r *Relation) SortedClone(keys []SortKey) (*Relation, error) {
	n := r.Len()
	if n >= autoColumnarThreshold && len(keys) > 0 {
		idx, desc, err := r.sortPlan(keys)
		if err != nil {
			return nil, err
		}
		cols := r.Columns()
		keyCols := make([]*Col, len(idx))
		for i, j := range idx {
			keyCols[i] = cols[j]
		}
		perm := SortPermCols(keyCols, nil, n, desc)
		return FromColumns(r.Name, r.Schema, GatherCols(cols, perm), n), nil
	}
	out := r.Clone()
	if err := out.Sort(keys); err != nil {
		return nil, err
	}
	return out, nil
}
