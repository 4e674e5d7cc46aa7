package relation

import (
	"fmt"
	"runtime"
	"strings"

	"sheetmusiq/internal/obs"
	"sheetmusiq/internal/value"
)

// Window-function kernel. WindowEval computes one window function —
// RANK/DENSE_RANK/ROW_NUMBER or a moving/running SUM/AVG/MIN/MAX/COUNT —
// over n lanes partitioned by a Grouping and ordered by precomputed key
// vectors. The kernel is deliberately deterministic:
//
//   - lanes sort stably by (partition ID, order keys), so rows that tie on
//     every order key keep their incoming lane order — ROW_NUMBER over ties
//     is reproducible, and every aggregate accumulates its frame's rows in
//     ascending sorted position, matching a sequential scan bit for bit;
//   - partitions evaluate independently with disjoint result writes, so the
//     cross-partition parallel fan-out cannot reorder any accumulation;
//   - the running-frame fast path (UNBOUNDED PRECEDING .. CURRENT ROW) feeds
//     one accumulator the same rows in the same ascending order a naive
//     per-row recompute would, so both strategies agree exactly, floats
//     included.
//
// Comparison semantics are value.MustCompare throughout (NULLs first, NaN
// unordered), identical to the sort and grouping kernels, so SQL-layer and
// algebra-layer windows that share inputs share outputs.

// WindowFunc names a window function.
type WindowFunc string

// The supported window functions. The ranking trio requires an ORDER BY and
// takes no argument; the aggregate five accept an optional frame and reuse
// the aggregate accumulator's semantics (COUNT counts frame rows including
// NULLs when no argument column is given, mirroring COUNT(*)).
const (
	WinRank      WindowFunc = "RANK"
	WinDenseRank WindowFunc = "DENSE_RANK"
	WinRowNumber WindowFunc = "ROW_NUMBER"
	WinSum       WindowFunc = "SUM"
	WinAvg       WindowFunc = "AVG"
	WinMin       WindowFunc = "MIN"
	WinMax       WindowFunc = "MAX"
	WinCount     WindowFunc = "COUNT"
)

// ParseWindowFunc resolves a case-insensitive window-function name.
func ParseWindowFunc(name string) (WindowFunc, error) {
	switch strings.ToUpper(name) {
	case "RANK":
		return WinRank, nil
	case "DENSE_RANK":
		return WinDenseRank, nil
	case "ROW_NUMBER":
		return WinRowNumber, nil
	case "SUM":
		return WinSum, nil
	case "AVG", "MEAN":
		return WinAvg, nil
	case "MIN":
		return WinMin, nil
	case "MAX":
		return WinMax, nil
	case "COUNT":
		return WinCount, nil
	}
	return "", fmt.Errorf("relation: unknown window function %q", name)
}

// Ranking reports whether f is one of the ranking functions (argument-free,
// ORDER BY mandatory, frame meaningless).
func (f WindowFunc) Ranking() bool {
	switch f {
	case WinRank, WinDenseRank, WinRowNumber:
		return true
	}
	return false
}

// NeedsArg reports whether f requires an argument column. COUNT works with
// or without one (COUNT(*) counts frame rows).
func (f WindowFunc) NeedsArg() bool {
	switch f {
	case WinSum, WinAvg, WinMin, WinMax:
		return true
	}
	return false
}

// AggFunc returns the plain-aggregate counterpart of an aggregate window
// function ("" for the ranking functions).
func (f WindowFunc) AggFunc() AggFunc {
	switch f {
	case WinSum:
		return AggSum
	case WinAvg:
		return AggAvg
	case WinMin:
		return AggMin
	case WinMax:
		return AggMax
	case WinCount:
		return AggCount
	}
	return ""
}

// ResultKind returns the kind f produces over an input of the given kind.
func (f WindowFunc) ResultKind(input value.Kind) value.Kind {
	if f.Ranking() {
		return value.KindInt
	}
	return f.AggFunc().ResultKind(input)
}

// FrameBoundKind enumerates the five SQL frame-bound forms.
type FrameBoundKind uint8

const (
	BoundUnboundedPreceding FrameBoundKind = iota
	BoundPreceding
	BoundCurrentRow
	BoundFollowing
	BoundUnboundedFollowing
)

// String renders the bound in SQL spelling.
func (b FrameBound) String() string {
	switch b.Kind {
	case BoundUnboundedPreceding:
		return "UNBOUNDED PRECEDING"
	case BoundPreceding:
		return fmt.Sprintf("%d PRECEDING", b.Offset)
	case BoundCurrentRow:
		return "CURRENT ROW"
	case BoundFollowing:
		return fmt.Sprintf("%d FOLLOWING", b.Offset)
	}
	return "UNBOUNDED FOLLOWING"
}

// FrameBound is one end of a ROWS frame; Offset is used only by the
// PRECEDING/FOLLOWING kinds.
type FrameBound struct {
	Kind   FrameBoundKind
	Offset int64
}

// Frame is an explicit ROWS frame (physical offsets from the current row).
// A nil *Frame means the SQL default: the whole partition without ORDER BY,
// or the running frame — start of partition through the current row's last
// peer — with one.
type Frame struct {
	Lo, Hi FrameBound
}

// String renders the frame in SQL spelling.
func (f *Frame) String() string {
	return fmt.Sprintf("ROWS BETWEEN %s AND %s", f.Lo, f.Hi)
}

// Validate rejects frames no row set can satisfy the ordering of.
func (f *Frame) Validate() error {
	if f.Lo.Kind == BoundUnboundedFollowing || f.Hi.Kind == BoundUnboundedPreceding {
		return fmt.Errorf("relation: frame bound order is inverted (%s)", f)
	}
	if (f.Lo.Kind == BoundPreceding || f.Lo.Kind == BoundFollowing) && f.Lo.Offset < 0 {
		return fmt.Errorf("relation: negative frame offset %d", f.Lo.Offset)
	}
	if (f.Hi.Kind == BoundPreceding || f.Hi.Kind == BoundFollowing) && f.Hi.Offset < 0 {
		return fmt.Errorf("relation: negative frame offset %d", f.Hi.Offset)
	}
	return nil
}

// WindowSpec selects the function and (for aggregates) an optional explicit
// ROWS frame.
type WindowSpec struct {
	Func  WindowFunc
	Frame *Frame
}

// WindowInput carries the lane-aligned inputs of one evaluation. Lanes are
// the caller's row order (the order ROW_NUMBER falls back to on full ties).
// KeyCols holds the K order-key columns, Desc flipping per key position, and
// ArgCol the aggregate argument (nil means COUNT(*)); both read lane k at
// cell Rows[k] (nil Rows = identity). Parts assigns each lane its partition
// (nil = a single partition).
//
// Comparisons run on raw payloads (colCompare, value.MustCompare on the
// cells). Every frame accumulates through one accumulator fed cell by cell
// (addCell: typed payloads in place, Boxed cells and non-numeric SUM/AVG
// arguments through Add), so an error's text and erring position are the
// accumulator's.
type WindowInput struct {
	N       int
	ArgCol  *Col
	Parts   *Grouping
	KeyCols []*Col
	Rows    []int32
	K       int
	Desc    []bool
}

// Window-kernel metrics, recorded per evaluation (never per row).
var (
	windowEvals      = obs.Default.Counter("relation.window.evals")
	windowRows       = obs.Default.Counter("relation.window.rows")
	windowPartitions = obs.Default.Counter("relation.window.partitions")
)

// WindowEval computes the window function over every lane and returns the
// lane-aligned result column: the ranking functions write INT payloads
// directly, and the aggregate frames' results become one column through
// the values rule (ValuesCol).
func WindowEval(spec WindowSpec, in WindowInput) (*Col, error) {
	n := in.N
	if spec.Func.Ranking() {
		if in.K == 0 {
			return nil, fmt.Errorf("relation: %s requires an ORDER BY", spec.Func)
		}
		if spec.Frame != nil {
			return nil, fmt.Errorf("relation: %s does not take a frame", spec.Func)
		}
	}
	if spec.Frame != nil {
		if in.K == 0 {
			return nil, fmt.Errorf("relation: a frame requires an ORDER BY")
		}
		if err := spec.Frame.Validate(); err != nil {
			return nil, err
		}
	}
	if in.ArgCol == nil && spec.Func.NeedsArg() {
		return nil, fmt.Errorf("relation: %s window requires an argument column", spec.Func)
	}
	windowEvals.Inc()
	windowRows.Add(int64(n))
	if n == 0 {
		return AllNullCol(), nil
	}
	// Exactly one of ranks (the ranking functions) and res (the aggregate
	// frames) is filled, lane by lane.
	var ranks []int64
	var res []value.Value
	if spec.Func.Ranking() {
		ranks = make([]int64, n)
	} else {
		res = make([]value.Value, n)
	}

	// keyCmp is the per-key three-way comparator over lanes: colCompare,
	// exactly MustCompare on the boxed cells, Boxed columns included.
	keyCmp := make([]func(a, b int32) int, len(in.KeyCols))
	for j, c := range in.KeyCols {
		keyCmp[j] = colCompare(c, in.Rows)
	}

	// Stable sort of lanes by (partition, order keys): partitions become
	// contiguous runs and in-partition order is the frame order. With no
	// partitioning and no keys the identity permutation stands.
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	pid := func(l int32) int32 {
		if in.Parts == nil {
			return 0
		}
		return in.Parts.IDs[l]
	}
	if in.Parts != nil || len(keyCmp) > 0 {
		less := func(a, b int32) bool {
			if pa, pb := pid(a), pid(b); pa != pb {
				return pa < pb
			}
			for j, cmp := range keyCmp {
				c := cmp(a, b)
				if c == 0 {
					continue
				}
				if in.Desc[j] {
					return c > 0
				}
				return c < 0
			}
			return false
		}
		sequential := !StrictWeakOrder(in.KeyCols, in.Rows, n)
		(&permSorter{less: less, sequential: sequential}).sort(perm)
	}

	// Partition bounds over the sorted permutation.
	var parts [][2]int
	lo := 0
	for i := 1; i <= n; i++ {
		if i == n || pid(perm[i]) != pid(perm[lo]) {
			parts = append(parts, [2]int{lo, i})
			lo = i
		}
	}
	windowPartitions.Add(int64(len(parts)))

	// peers reports whether two lanes tie on every order key — the peer
	// (RANGE) grouping ranking and default running frames share.
	peers := func(a, b int32) bool {
		for _, cmp := range keyCmp {
			if cmp(a, b) != 0 {
				return false
			}
		}
		return true
	}
	// feed adds the argument cells of sorted positions [s, e) to acc in
	// ascending order; with no argument column (COUNT(*)) each lane counts
	// as Add(1) does.
	aggFn := spec.Func.AggFunc()
	one := value.NewInt(1)
	feed := func(acc *accumulator, s, e int) error {
		if in.ArgCol == nil {
			for i := s; i < e; i++ {
				_ = acc.Add(one) // a COUNT never errs
			}
			return nil
		}
		for i := s; i < e; i++ {
			if err := acc.addCell(in.ArgCol, laneCell(in.Rows, int(perm[i]))); err != nil {
				return err
			}
		}
		return nil
	}

	evalPart := func(lo, hi int) error {
		switch spec.Func {
		case WinRowNumber:
			for i := lo; i < hi; i++ {
				ranks[perm[i]] = int64(i - lo + 1)
			}
			return nil
		case WinRank, WinDenseRank:
			dense := spec.Func == WinDenseRank
			rank := int64(0)
			for s := lo; s < hi; {
				e := s + 1
				for e < hi && peers(perm[s], perm[e]) {
					e++
				}
				if dense {
					rank++
				} else {
					rank = int64(s - lo + 1)
				}
				for i := s; i < e; i++ {
					ranks[perm[i]] = rank
				}
				s = e
			}
			return nil
		}
		// One accumulator per partition, reset per frame: used by value, it
		// stays off the heap however many frames the partition has.
		var acc accumulator
		acc.reset(aggFn)
		if spec.Frame == nil && in.K == 0 {
			// Whole-partition aggregate: one pass, broadcast.
			if err := feed(&acc, lo, hi); err != nil {
				return err
			}
			r := acc.Result()
			for i := lo; i < hi; i++ {
				res[perm[i]] = r
			}
			return nil
		}
		if spec.Frame == nil {
			// Default running frame with peers (RANGE UNBOUNDED PRECEDING ..
			// CURRENT ROW): one accumulator fed in ascending order, snapshot
			// at each peer-group boundary. Accumulation order is identical
			// to recomputing each frame from scratch, so the incremental
			// strategy is bit-identical to the naive one.
			for s := lo; s < hi; {
				e := s + 1
				for e < hi && peers(perm[s], perm[e]) {
					e++
				}
				if err := feed(&acc, s, e); err != nil {
					return err
				}
				r := acc.Result()
				for i := s; i < e; i++ {
					res[perm[i]] = r
				}
				s = e
			}
			return nil
		}
		// Explicit ROWS frame: physical offsets from the current row,
		// clamped to the partition; each frame accumulates fresh in
		// ascending order (empty frames yield the empty-accumulator result).
		// An offset is clamped before it is added, so its bound lands at
		// most one row outside the partition and never overflows: a frame
		// end beyond the partition leaves the frame empty, and the clamp
		// below pulls the other end back in.
		bound := func(b FrameBound, i int) int {
			switch b.Kind {
			case BoundUnboundedPreceding:
				return lo
			case BoundPreceding:
				return i - int(min(b.Offset, int64(i-lo+1)))
			case BoundCurrentRow:
				return i
			case BoundFollowing:
				return i + int(min(b.Offset, int64(hi-i)))
			}
			return hi - 1
		}
		for i := lo; i < hi; i++ {
			s, e := bound(spec.Frame.Lo, i), bound(spec.Frame.Hi, i)
			if s < lo {
				s = lo
			}
			if e > hi-1 {
				e = hi - 1
			}
			acc.reset(aggFn)
			if err := feed(&acc, s, e+1); err != nil {
				return err
			}
			res[perm[i]] = acc.Result()
		}
		return nil
	}

	// Partitions are independent and write disjoint lanes; fan out over the
	// partition list when the row count clears the parallel threshold. The
	// bounds are built over the partition list directly (Chunks sizes by row
	// count, which would keep small partition counts sequential forever).
	if len(parts) > 1 && n >= ParallelThreshold {
		bounds := partChunks(len(parts))
		err := RunChunks(bounds, func(_, plo, phi int) error {
			for p := plo; p < phi; p++ {
				if err := evalPart(parts[p][0], parts[p][1]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	} else {
		for _, p := range parts {
			if err := evalPart(p[0], p[1]); err != nil {
				return nil, err
			}
		}
	}
	if ranks != nil {
		return &Col{Kind: value.KindInt, Ints: ranks}, nil
	}
	return ValuesCol(res), nil
}

// partChunks splits m partitions into up to GOMAXPROCS contiguous bounds.
func partChunks(m int) [][2]int {
	procs := runtime.GOMAXPROCS(0)
	if procs < 1 {
		procs = 1
	}
	if procs > m {
		procs = m
	}
	size := (m + procs - 1) / procs
	bounds := make([][2]int, 0, procs)
	for lo := 0; lo < m; lo += size {
		hi := lo + size
		if hi > m {
			hi = m
		}
		bounds = append(bounds, [2]int{lo, hi})
	}
	return bounds
}
