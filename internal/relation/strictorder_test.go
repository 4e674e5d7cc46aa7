package relation

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"sheetmusiq/internal/value"
)

// nanFloatCol returns a FLOAT column of n cells drawn from a few values, so
// ties are common: about one cell in seven is NaN, one in ten NULL, and -0
// sits beside +0.
func nanFloatCol(rng *rand.Rand, n int) *Col {
	vals := make([]value.Value, n)
	pool := []float64{0, math.Copysign(0, -1), 1.5, -2, 3, 3, 7.25}
	for i := range vals {
		switch {
		case rng.Intn(7) == 0:
			vals[i] = value.NewFloat(math.NaN())
		case rng.Intn(10) == 0:
			vals[i] = value.Null
		default:
			vals[i] = value.NewFloat(pool[rng.Intn(len(pool))])
		}
	}
	return ColOf(value.KindFloat, vals)
}

// atThreshold runs fn with the parallel threshold at th and GOMAXPROCS at
// 2, restoring both afterwards.
func atThreshold(th int, fn func()) {
	old := ParallelThreshold
	oldProcs := runtime.GOMAXPROCS(2)
	defer func() {
		ParallelThreshold = old
		runtime.GOMAXPROCS(oldProcs)
	}()
	ParallelThreshold = th
	fn()
}

func TestStrictWeakOrder(t *testing.T) {
	nan := ColOf(value.KindFloat, []value.Value{value.NewFloat(1), value.NewFloat(math.NaN()), value.NewFloat(2)})
	nullOverNaN := &Col{Kind: value.KindFloat, Floats: []float64{1, math.NaN()}, Nulls: NewBitmap(2)}
	BitSet(nullOverNaN.Nulls, 1)
	ints := ColOf(value.KindInt, []value.Value{value.NewInt(3), value.Null, value.NewInt(1)})
	boxed := BoxedCol([]value.Value{value.NewInt(1), value.NewFloat(2)})
	for _, c := range []struct {
		name string
		cols []*Col
		rows []int32
		n    int
		want bool
	}{
		{"ints", []*Col{ints}, nil, 3, true},
		{"NaN lane", []*Col{ints, nan}, nil, 3, false},
		{"NaN cell off the lanes", []*Col{nan}, []int32{0, 2}, 2, true},
		{"NaN cell on a lane", []*Col{nan}, []int32{2, 1}, 2, false},
		{"NaN payload under a NULL", []*Col{nullOverNaN}, nil, 2, true},
		{"Boxed key", []*Col{boxed}, nil, 2, false},
		{"all-NULL key", []*Col{AllNullCol()}, nil, 5, true},
	} {
		if got := StrictWeakOrder(c.cols, c.rows, c.n); got != c.want {
			t.Errorf("%s: StrictWeakOrder = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSortPermColsNaNKeyMatchesSequential: a FLOAT key holding NaN is not a
// strict weak order, so a chunked sort's result would depend on the chunk
// split. The sort must return the sequential permutation whatever the
// threshold, alone and behind a tied INT key, through a lane mapping too.
func TestSortPermColsNaNKeyMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		n := 40 + rng.Intn(400)
		f := nanFloatCol(rng, n)
		g := &Col{Kind: value.KindInt, Ints: make([]int64, n)}
		for i := range g.Ints {
			g.Ints[i] = int64(rng.Intn(3))
		}
		keys, desc := []*Col{f}, []bool{trial%2 == 1}
		if trial%3 == 0 {
			keys, desc = []*Col{g, f}, []bool{false, trial%2 == 1}
		}
		var rows []int32
		if trial%4 == 0 {
			rows = make([]int32, n)
			for i := range rows {
				rows[i] = int32(n - 1 - i)
			}
		}
		var want, got []int32
		atThreshold(1<<30, func() { want = SortPermCols(keys, rows, n, desc) })
		atThreshold(4, func() { got = SortPermCols(keys, rows, n, desc) })
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d rows): chunked sort over a NaN key diverged from the sequential one", trial, n)
		}
	}
}

// TestSortPermColsBoxedKeyMatchesSequential: a Boxed key (ints past 2^53
// beside floats, whose MustCompare is not transitive) stays sequential too.
func TestSortPermColsBoxedKeyMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	big := int64(1) << 53
	for trial := 0; trial < 100; trial++ {
		n := 40 + rng.Intn(300)
		vals := make([]value.Value, n)
		for i := range vals {
			switch rng.Intn(3) {
			case 0:
				vals[i] = value.NewInt(big + int64(rng.Intn(3)))
			case 1:
				vals[i] = value.NewFloat(float64(big) + float64(2*rng.Intn(2)))
			default:
				vals[i] = value.NewFloat(math.NaN())
			}
		}
		keys := []*Col{BoxedCol(vals)}
		var want, got []int32
		atThreshold(1<<30, func() { want = SortPermCols(keys, nil, n, []bool{false}) })
		atThreshold(4, func() { got = SortPermCols(keys, nil, n, []bool{false}) })
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d rows): chunked sort over a Boxed key diverged from the sequential one", trial, n)
		}
	}
}

// TestWindowEvalNaNKeyMatchesSequential: ROW_NUMBER() OVER (ORDER BY x)
// numbers lanes in sort order, so over a NaN key the chunked (partition,
// keys) sort would hand out numbers by chunk split. It must not.
func TestWindowEvalNaNKeyMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 100; trial++ {
		n := 40 + rng.Intn(400)
		in := WindowInput{N: n, K: 1, Desc: []bool{trial%2 == 1}, KeyCols: []*Col{nanFloatCol(rng, n)}}
		spec := WindowSpec{Func: WinRowNumber}
		var want, got *Col
		var err1, err2 error
		atThreshold(1<<30, func() { want, err1 = WindowEval(spec, in) })
		atThreshold(4, func() { got, err2 = WindowEval(spec, in) })
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !slices.Equal(got.Ints, want.Ints) {
			t.Fatalf("trial %d (%d rows): chunked ROW_NUMBER over a NaN key diverged from the sequential one", trial, n)
		}
	}
}
