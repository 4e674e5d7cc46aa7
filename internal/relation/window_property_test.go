package relation

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"sheetmusiq/internal/value"
)

// Property tests for the window kernel: WindowEval must agree bit for bit
// with a naive one-frame-per-row recompute over random specs (NULLs, -0,
// NaN arguments, heavy order-key ties, empty frames, unused partition IDs),
// and the cross-partition parallel fan-out must be invisible in the output.

// windowCase is one random evaluation's inputs as boxed lane vectors, which
// the naive reference reads: keys holds k values per lane, row-major, and
// arg the argument per lane (nil for COUNT(*)).
type windowCase struct {
	n, k  int
	keys  []value.Value
	arg   []value.Value
	parts *Grouping
	desc  []bool
}

// input hands the same cells to WindowEval: each order key as a column of
// its cells' kind (typed, or Boxed when all NULL) and the mixed-kind
// argument as a Boxed column.
func (c *windowCase) input() WindowInput {
	in := WindowInput{N: c.n, K: c.k, Parts: c.parts, Desc: c.desc, KeyCols: make([]*Col, c.k)}
	for j := range in.KeyCols {
		vals := make([]value.Value, c.n)
		kind := value.KindNull
		for i := range vals {
			vals[i] = c.keys[i*c.k+j]
			if kind == value.KindNull {
				kind = vals[i].Kind()
			}
		}
		in.KeyCols[j] = ColOf(kind, vals)
	}
	if c.arg != nil {
		in.ArgCol = BoxedCol(c.arg)
	}
	return in
}

// refWindowEval is the deliberately naive reference: stable-sort the lanes
// by (partition, keys) with sort.SliceStable, then recompute every row's
// rank or frame from scratch, feeding accumulators in ascending sorted
// position exactly as a sequential scan would.
func refWindowEval(t *testing.T, spec WindowSpec, in *windowCase) []value.Value {
	t.Helper()
	n := in.n
	res := make([]value.Value, n)
	pid := func(l int) int32 {
		if in.parts == nil {
			return 0
		}
		return in.parts.IDs[l]
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		a, b := order[x], order[y]
		if pid(a) != pid(b) {
			return pid(a) < pid(b)
		}
		for j := 0; j < in.k; j++ {
			c := value.MustCompare(in.keys[a*in.k+j], in.keys[b*in.k+j])
			if c == 0 {
				continue
			}
			if in.desc[j] {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	peers := func(a, b int) bool {
		for j := 0; j < in.k; j++ {
			if value.MustCompare(in.keys[a*in.k+j], in.keys[b*in.k+j]) != 0 {
				return false
			}
		}
		return true
	}
	argAt := func(l int) value.Value {
		if in.arg == nil {
			return value.NewInt(1)
		}
		return in.arg[l]
	}
	// inFrame reports whether sorted position j lies in the frame of the
	// row at sorted position at, by comparing distances to the offsets, so
	// no offset is ever added to a position and none can overflow.
	inFrame := func(f *Frame, j, at int) bool {
		d := int64(j - at) // j's distance after the current row
		lo, hi := true, true
		switch f.Lo.Kind {
		case BoundPreceding:
			lo = -d <= f.Lo.Offset
		case BoundCurrentRow:
			lo = d >= 0
		case BoundFollowing:
			lo = d >= f.Lo.Offset
		}
		switch f.Hi.Kind {
		case BoundPreceding:
			hi = -d >= f.Hi.Offset
		case BoundCurrentRow:
			hi = d <= 0
		case BoundFollowing:
			hi = d <= f.Hi.Offset
		}
		return lo && hi
	}
	// accumulate feeds the partition's sorted positions [lo, hi) that
	// member accepts, in ascending order.
	accumulate := func(lo, hi int, member func(j int) bool) value.Value {
		acc := newAccumulator(spec.Func.AggFunc())
		for j := lo; j < hi; j++ {
			if !member(j) {
				continue
			}
			if err := acc.Add(argAt(order[j])); err != nil {
				t.Fatalf("reference accumulate: %v", err)
			}
		}
		return acc.Result()
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && pid(order[hi]) == pid(order[lo]) {
			hi++
		}
		for i := lo; i < hi; i++ {
			switch spec.Func {
			case WinRowNumber:
				res[order[i]] = value.NewInt(int64(i - lo + 1))
			case WinRank, WinDenseRank:
				first := lo
				for !peers(order[first], order[i]) {
					first++
				}
				if spec.Func == WinRank {
					res[order[i]] = value.NewInt(int64(first - lo + 1))
				} else {
					dense := int64(1)
					for j := lo + 1; j <= first; j++ {
						if !peers(order[j-1], order[j]) {
							dense++
						}
					}
					res[order[i]] = value.NewInt(dense)
				}
			default:
				var member func(j int) bool
				switch {
				case spec.Frame == nil && in.k == 0:
					member = func(int) bool { return true }
				case spec.Frame == nil:
					// The running frame: up to the current row's last peer.
					e := i
					for e+1 < hi && peers(order[e+1], order[i]) {
						e++
					}
					member = func(j int) bool { return j <= e }
				default:
					member = func(j int) bool { return inFrame(spec.Frame, j, i) }
				}
				res[order[i]] = accumulate(lo, hi, member)
			}
		}
		lo = hi
	}
	return res
}

// bitEqual is stricter than value.Equal: floats must match to the bit, so
// -0 vs +0 and differing NaN payloads count as divergence.
func bitEqual(a, b value.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == value.KindFloat {
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return value.Equal(a, b)
}

// randWindowInput builds a random lane set: numeric arguments with NULLs,
// -0 and NaN; key columns with small tied domains; partition IDs drawn from
// a range wider than what is used, so some IDs never occur.
func randWindowInput(rng *rand.Rand, n, k int, withParts bool) *windowCase {
	in := &windowCase{n: n, k: k}
	floats := []float64{0, math.Copysign(0, -1), 1.5, -3.25, 7, math.NaN(), 1e15, -2.5}
	in.arg = make([]value.Value, n)
	for i := range in.arg {
		switch rng.Intn(6) {
		case 0:
			in.arg[i] = value.Null
		case 1, 2:
			in.arg[i] = value.NewFloat(floats[rng.Intn(len(floats))])
		default:
			in.arg[i] = value.NewInt(int64(rng.Intn(7) - 3))
		}
	}
	if withParts {
		ids := make([]int32, n)
		width := 1 + rng.Intn(6)
		for i := range ids {
			ids[i] = int32(rng.Intn(width) * 2) // even IDs only: odd ones are empty
		}
		in.parts = &Grouping{IDs: ids}
	}
	if k > 0 {
		in.keys = make([]value.Value, n*k)
		in.desc = make([]bool, k)
		kinds := make([]int, k)
		for j := 0; j < k; j++ {
			in.desc[j] = rng.Intn(2) == 0
			kinds[j] = rng.Intn(3)
		}
		strs := []string{"a", "b", "bb", "z"}
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				if rng.Intn(8) == 0 {
					in.keys[i*k+j] = value.Null
					continue
				}
				switch kinds[j] {
				case 0:
					in.keys[i*k+j] = value.NewInt(int64(rng.Intn(4)))
				case 1:
					// 0 and -0 compare equal: deliberate peer ties.
					in.keys[i*k+j] = value.NewFloat([]float64{0, math.Copysign(0, -1), 2.5}[rng.Intn(3)])
				default:
					in.keys[i*k+j] = value.NewString(strs[rng.Intn(len(strs))])
				}
			}
		}
	}
	return in
}

// randFrame draws a ROWS frame. One offset in five lies within two of
// math.MaxInt64, where adding it to a row position would overflow.
func randFrame(rng *rand.Rand) *Frame {
	off := func(k int) int64 {
		if rng.Intn(5) == 0 {
			return math.MaxInt64 - int64(rng.Intn(3))
		}
		return int64(rng.Intn(k))
	}
	lows := []FrameBound{
		{Kind: BoundUnboundedPreceding},
		{Kind: BoundPreceding, Offset: off(4)},
		{Kind: BoundCurrentRow},
		{Kind: BoundFollowing, Offset: off(3)},
	}
	his := []FrameBound{
		{Kind: BoundPreceding, Offset: off(3)},
		{Kind: BoundCurrentRow},
		{Kind: BoundFollowing, Offset: off(4)},
		{Kind: BoundUnboundedFollowing},
	}
	return &Frame{Lo: lows[rng.Intn(len(lows))], Hi: his[rng.Intn(len(his))]}
}

var allWindowFuncs = []WindowFunc{
	WinRank, WinDenseRank, WinRowNumber,
	WinSum, WinAvg, WinMin, WinMax, WinCount,
}

// TestWindowEvalMatchesNaiveReference: the kernel's column and the per-row
// recompute agree bit for bit across random functions, partitions,
// orderings and frames — including empty inputs, empty frames, frame
// offsets near math.MaxInt64 and all-NULL arguments — cell by cell in
// value, kind and NULL, and in form (colMismatch).
func TestWindowEvalMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 150; trial++ {
		n := rng.Intn(120) // includes n == 0
		fn := allWindowFuncs[rng.Intn(len(allWindowFuncs))]
		k := rng.Intn(3)
		if fn.Ranking() && k == 0 {
			k = 1 + rng.Intn(2)
		}
		var frame *Frame
		if !fn.Ranking() && k > 0 && rng.Intn(3) == 0 {
			frame = randFrame(rng)
		}
		wc := randWindowInput(rng, n, k, rng.Intn(4) != 0)
		if fn == WinCount && rng.Intn(3) == 0 {
			wc.arg = nil // COUNT(*)
		}
		spec := WindowSpec{Func: fn, Frame: frame}
		got, err := WindowEval(spec, wc.input())
		if err != nil {
			t.Fatalf("trial %d (%s, k=%d, frame=%v): %v", trial, fn, k, frame, err)
		}
		want := refWindowEval(t, spec, wc)
		if d := colMismatch(got, want); d != "" {
			t.Fatalf("trial %d (%s, k=%d, frame=%v): %s", trial, fn, k, frame, d)
		}
	}
}

// TestWindowEvalParallelMatchesSequential: forcing the cross-partition
// fan-out on and off must not change a single bit, and a warm re-run over
// the same input reproduces the cold run exactly.
func TestWindowEvalParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	old := ParallelThreshold
	defer func() { ParallelThreshold = old }()
	for trial := 0; trial < 8; trial++ {
		n := 3000 + rng.Intn(2000)
		fn := allWindowFuncs[rng.Intn(len(allWindowFuncs))]
		k := 1 + rng.Intn(2)
		var frame *Frame
		if !fn.Ranking() && rng.Intn(2) == 0 {
			frame = randFrame(rng)
		}
		in := randWindowInput(rng, n, k, true).input()
		spec := WindowSpec{Func: fn, Frame: frame}

		ParallelThreshold = 1 << 30
		cold, err := WindowEval(spec, in)
		if err != nil {
			t.Fatalf("trial %d sequential: %v", trial, err)
		}
		ParallelThreshold = 4
		par, err := WindowEval(spec, in)
		if err != nil {
			t.Fatalf("trial %d parallel: %v", trial, err)
		}
		warm, err := WindowEval(spec, in)
		if err != nil {
			t.Fatalf("trial %d warm: %v", trial, err)
		}
		if !colsMatch(cold, par, n) {
			t.Fatalf("trial %d (%s): sequential and parallel columns differ", trial, fn)
		}
		if !colsMatch(par, warm, n) {
			t.Fatalf("trial %d (%s): cold and warm columns differ", trial, fn)
		}
	}
}

// TestWindowEvalBoundedAllocs: the ranking and running-aggregate paths
// allocate per partition and per sort run, never per row.
func TestWindowEvalBoundedAllocs(t *testing.T) {
	old := ParallelThreshold
	ParallelThreshold = 1 << 30 // sequential: goroutine setup would dominate
	defer func() { ParallelThreshold = old }()
	rng := rand.New(rand.NewSource(83))
	const n, parts = 10000, 100
	wc := randWindowInput(rng, n, 1, false)
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(rng.Intn(parts))
	}
	wc.parts = &Grouping{IDs: ids}
	for i := range wc.arg { // keep the running-sum path NULL-free and exact
		wc.arg[i] = value.NewInt(int64(i % 97))
	}
	in := wc.input()

	allocs := testing.AllocsPerRun(5, func() {
		if _, err := WindowEval(WindowSpec{Func: WinRank}, in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("RANK allocates %.0f times for %d rows; per-row allocation regressed", allocs, n)
	}

	allocs = testing.AllocsPerRun(5, func() {
		if _, err := WindowEval(WindowSpec{Func: WinSum}, in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64+2*parts {
		t.Fatalf("running SUM allocates %.0f times for %d rows over %d partitions; per-row allocation regressed",
			allocs, n, parts)
	}
}
