package relation

import (
	"math"
	"math/rand"
	"testing"

	"sheetmusiq/internal/value"
)

// Property tests for the grouped-aggregation kernel: groupedAggState fed
// whole columns must agree bit for bit with one boxed accumulator per group
// fed the same cells in the same ascending order — across every aggregate
// function, NaN/-0 floats, MinInt64 and ints beyond 2^53, NULL-only groups,
// empty inputs, lane indirection, chunked merges and Boxed (mixed-kind)
// columns, which run the boxed lane.

var allAggFuncs = []AggFunc{
	AggSum, AggAvg, AggMin, AggMax, AggCount, AggCountDistinct, AggStdDev,
}

// refGroupAggregate is the boxed reference: one accumulator per group, cells
// fed in ascending lane order, exactly the pre-kernel evaluation loop.
func refGroupAggregate(fn AggFunc, in *Col, gids, rows []int32, n, ng int) ([]value.Value, error) {
	accs := make([]*accumulator, ng)
	for g := range accs {
		accs[g] = newAccumulator(fn)
	}
	for k := 0; k < n; k++ {
		i := k
		if rows != nil {
			i = int(rows[k])
		}
		v := value.NewInt(1)
		if in != nil {
			v = in.Value(i)
		}
		if err := accs[gids[k]].Add(v); err != nil {
			return nil, err
		}
	}
	res := make([]value.Value, ng)
	for g := range res {
		res[g] = accs[g].Result()
	}
	return res, nil
}

// randAggCol builds a typed column of the given kind with adversarial
// payloads: NaN, both zero signs and giant magnitudes for floats; MinInt64,
// MaxInt64 and values past 2^53 for ints; and a NULL sprinkle throughout.
func randAggCol(rng *rand.Rand, kind value.Kind, n int) *Col {
	c := &Col{Kind: kind}
	floats := []float64{
		0, math.Copysign(0, -1), math.NaN(), 1.5, -3.25, 1e300, -1e300,
		math.Inf(1), math.Inf(-1), 0.1, 1e15,
	}
	ints := []int64{
		0, 1, -1, math.MinInt64, math.MaxInt64, 1 << 53, (1 << 53) + 1, -(1 << 60), 42,
	}
	strs := []string{"", "a", "bb", "z", "zz"}
	switch kind {
	case value.KindFloat:
		c.Floats = make([]float64, n)
	case value.KindString:
		c.Strs = make([]string, n)
	default:
		c.Ints = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		if rng.Intn(5) == 0 {
			if c.Nulls == nil {
				c.Nulls = NewBitmap(n)
			}
			BitSet(c.Nulls, i)
			continue
		}
		switch kind {
		case value.KindFloat:
			c.Floats[i] = floats[rng.Intn(len(floats))]
		case value.KindString:
			c.Strs[i] = strs[rng.Intn(len(strs))]
		case value.KindBool:
			c.Ints[i] = int64(rng.Intn(2))
		case value.KindDate:
			c.Ints[i] = int64(rng.Intn(2000) - 1000)
		default:
			c.Ints[i] = ints[rng.Intn(len(ints))]
		}
	}
	return c
}

// randBoxedCol builds a Boxed column mixing INT, FLOAT and NULL cells, plus
// STRING cells when withStrings is set. Its numbers are small ints and
// floats without NaN, so value.MustCompare orders them totally and chunked
// MIN/MAX merges stay exact (a NaN or an int past 2^53 next to a float
// breaks transitivity). The ints drift upward with the lane, so the later
// chunks of a long column hold MAX and distinct values the earlier ones
// lack, and a lost merge shows.
func randBoxedCol(rng *rand.Rand, n int, withStrings bool) *Col {
	floats := []float64{0, math.Copysign(0, -1), 1.5, -3.25, 2, math.Inf(-1), 0.1}
	strs := []string{"", "a", "zz"}
	vals := make([]value.Value, n)
	for i := range vals {
		switch r := rng.Intn(8); {
		case r == 0:
			vals[i] = value.Null
		case r < 4:
			vals[i] = value.NewInt(int64(rng.Intn(9) - 4 + i/64))
		case r < 7 || !withStrings:
			vals[i] = value.NewFloat(floats[rng.Intn(len(floats))])
		default:
			vals[i] = value.NewString(strs[rng.Intn(len(strs))])
		}
	}
	return BoxedCol(vals)
}

var aggColKinds = []value.Kind{
	value.KindInt, value.KindFloat, value.KindString, value.KindBool, value.KindDate,
}

// TestGroupAggregateMatchesAccumulator: the kernel and the boxed per-group
// reference agree bit for bit across random columns, group maps and lane
// indirections, for every aggregate function — and when a function rejects
// a kind, both paths produce the identical error. The last 200 trials draw
// Boxed columns of mixed INT/FLOAT/STRING/NULL cells (the boxed lane).
func TestGroupAggregateMatchesAccumulator(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 600; trial++ {
		kind := aggColKinds[rng.Intn(len(aggColKinds))]
		fn := allAggFuncs[rng.Intn(len(allAggFuncs))]
		m := rng.Intn(90) // base cells; includes 0
		in, desc := randAggCol(rng, kind, m), kind.String()
		if trial >= 400 {
			in, desc = randBoxedCol(rng, m, true), "Boxed"
		}
		// Half the trials read the column through a lane indirection with
		// repeats and gaps, as η over a filtered IndexView does.
		var rows []int32
		n := m
		if m > 0 && rng.Intn(2) == 0 {
			n = rng.Intn(2 * m)
			rows = make([]int32, n)
			for k := range rows {
				rows[k] = int32(rng.Intn(m))
			}
		}
		ng := 1 + rng.Intn(5) // some groups stay empty
		gids := make([]int32, n)
		for k := range gids {
			gids[k] = int32(rng.Intn(ng))
		}
		var col *Col
		if fn != AggCount || rng.Intn(2) == 0 {
			col = in
		}
		got, _, gotErr := GroupAggregate(fn, col, gids, rows, n, ng)
		want, wantErr := refGroupAggregate(fn, col, gids, rows, n, ng)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d (%s over %s): kernel err %v, reference err %v", trial, fn, desc, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("trial %d (%s over %s): error %q, reference %q", trial, fn, desc, gotErr, wantErr)
			}
			continue
		}
		for g := range want {
			if !bitEqual(got[g], want[g]) {
				t.Fatalf("trial %d (%s over %s, n=%d, ng=%d): group %d = %v, reference %v",
					trial, fn, desc, n, ng, g, got[g], want[g])
			}
		}
	}
}

// TestGroupAggregateMergedPartialsMatchSequential: splitting the lanes into
// chunks, accumulating each into its own state and merging in chunk order
// must reproduce the single sequential state bit for bit whenever mergeExact
// allows the function/kind pair to chunk at all.
func TestGroupAggregateMergedPartialsMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 200; trial++ {
		kind := aggColKinds[rng.Intn(len(aggColKinds))]
		fn := allAggFuncs[rng.Intn(len(allAggFuncs))]
		if !mergeExact(fn, kind) {
			continue
		}
		n := 1 + rng.Intn(120)
		in := randAggCol(rng, kind, n)
		ng := 1 + rng.Intn(4)
		gids := make([]int32, n)
		for k := range gids {
			gids[k] = int32(rng.Intn(ng))
		}
		seq, err := newGroupedAggState(fn, in, nil, ng)
		if err != nil {
			if fn != AggSum && fn != AggAvg && fn != AggStdDev {
				t.Fatalf("trial %d (%s over %s): %v", trial, fn, kind, err)
			}
			continue
		}
		if err := seq.Update(gids, 0, n); err != nil {
			continue // non-numeric sum family: covered by the error test above
		}
		nchunks := 2 + rng.Intn(3)
		var merged *groupedAggState
		ok := true
		for c := 0; c < nchunks; c++ {
			lo, hi := c*n/nchunks, (c+1)*n/nchunks
			st, err := newGroupedAggState(fn, in, nil, ng)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if err := st.Update(gids, lo, hi); err != nil {
				ok = false
				break
			}
			if merged == nil {
				merged = st
			} else {
				merged.Merge(st)
			}
		}
		if !ok {
			continue
		}
		a, b := seq.Results(), merged.Results()
		for g := range a {
			if !bitEqual(a[g], b[g]) {
				t.Fatalf("trial %d (%s over %s, %d chunks): group %d sequential %v != merged %v",
					trial, fn, kind, nchunks, g, a[g], b[g])
			}
		}
	}
}

// TestGroupAggregateParallelMatchesSequential: the chunked driver must be
// bit-identical to the forced-sequential run for every function — including
// float summing, which the driver keeps sequential via mergeExact. A Boxed
// mixed INT/FLOAT column runs the boxed lane: SUM, AVG and STDDEV stay
// sequential and report the fallback, as over a FLOAT column, while MIN,
// MAX, COUNT and COUNT_DISTINCT chunk; every run is counted as a boxed-lane
// run (relation.agg.declined), COUNT's typed count excepted.
func TestGroupAggregateParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	old := ParallelThreshold
	defer func() { ParallelThreshold = old }()
	for _, input := range []string{"INTEGER", "FLOAT", "Boxed"} {
		n := 5000
		var in *Col
		switch input {
		case "INTEGER":
			in = randAggCol(rng, value.KindInt, n)
		case "FLOAT":
			in = randAggCol(rng, value.KindFloat, n)
		default:
			in = randBoxedCol(rng, n, false)
		}
		ng := 7
		gids := make([]int32, n)
		for k := range gids {
			gids[k] = int32(rng.Intn(ng))
		}
		for _, fn := range allAggFuncs {
			ParallelThreshold = 1 << 30
			seq, _, err := GroupAggregate(fn, in, gids, nil, n, ng)
			if err != nil {
				t.Fatalf("%s over %s sequential: %v", fn, input, err)
			}
			ParallelThreshold = 64
			declined := aggBoxed.Value()
			par, fallback, err := GroupAggregate(fn, in, gids, nil, n, ng)
			if err != nil {
				t.Fatalf("%s over %s parallel: %v", fn, input, err)
			}
			if input == "Boxed" {
				sums := fn == AggSum || fn == AggAvg || fn == AggStdDev
				if chunked := len(Chunks(n)) > 1; fallback != (sums && chunked) {
					t.Fatalf("%s over Boxed: fallback %v over %d chunks", fn, fallback, len(Chunks(n)))
				}
				want := int64(1)
				if fn == AggCount {
					want = 0
				}
				if got := aggBoxed.Value() - declined; got != want {
					t.Fatalf("%s over Boxed: relation.agg.declined advanced by %d, want %d", fn, got, want)
				}
			}
			for g := range seq {
				if !bitEqual(seq[g], par[g]) {
					t.Fatalf("%s over %s: group %d sequential %v != parallel %v", fn, input, g, seq[g], par[g])
				}
			}
		}
	}
}

// TestGroupAggregateEdgeCases pins the boundary semantics the boxed
// accumulator defines: empty inputs, NULL-only groups, int64 wrap-around,
// and COUNT over a column still counting NULL tuples.
func TestGroupAggregateEdgeCases(t *testing.T) {
	// Empty input, one group: COUNT variants yield 0, the rest NULL.
	for _, fn := range allAggFuncs {
		in := &Col{Kind: value.KindInt, Ints: []int64{}}
		res, _, err := GroupAggregate(fn, in, nil, nil, 0, 1)
		if err != nil {
			t.Fatalf("%s over empty: %v", fn, err)
		}
		want := value.Null
		if fn == AggCount || fn == AggCountDistinct {
			want = value.NewInt(0)
		}
		if !bitEqual(res[0], want) {
			t.Fatalf("%s over empty = %v, want %v", fn, res[0], want)
		}
	}
	// A NULL-only group next to a live one.
	nulls := NewBitmap(4)
	BitSet(nulls, 2)
	BitSet(nulls, 3)
	in := &Col{Kind: value.KindInt, Ints: []int64{5, 7, 0, 0}, Nulls: nulls}
	gids := []int32{0, 0, 1, 1}
	res, _, err := GroupAggregate(AggSum, in, gids, nil, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Int() != 12 || !res[1].IsNull() {
		t.Fatalf("SUM groups = %v, %v; want 12, NULL", res[0], res[1])
	}
	res, _, err = GroupAggregate(AggCount, in, gids, nil, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Int() != 2 || res[1].Int() != 2 {
		t.Fatalf("COUNT groups = %v, %v; want 2, 2 (NULL tuples count)", res[0], res[1])
	}
	// Integer SUM wraps in int64 exactly as accumulator.intSum does.
	wrap := &Col{Kind: value.KindInt, Ints: []int64{math.MaxInt64, 1}}
	res, _, err = GroupAggregate(AggSum, wrap, []int32{0, 0}, nil, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Int() != math.MinInt64 {
		t.Fatalf("wrapping SUM = %v, want MinInt64", res[0])
	}
}

// TestGroupedAggStateUpdateAllocs: the accumulation loops allocate nothing —
// state arrays are built once and every Update is pure lane arithmetic.
func TestGroupedAggStateUpdateAllocs(t *testing.T) {
	const n, ng = 8192, 16
	rng := rand.New(rand.NewSource(94))
	gids := make([]int32, n)
	for k := range gids {
		gids[k] = int32(rng.Intn(ng))
	}
	for _, tc := range []struct {
		fn   AggFunc
		kind value.Kind
	}{
		{AggSum, value.KindInt},
		{AggSum, value.KindFloat},
		{AggAvg, value.KindFloat},
		{AggStdDev, value.KindFloat},
		{AggMin, value.KindString},
		{AggMax, value.KindInt},
		{AggCount, value.KindInt},
	} {
		in := randAggCol(rng, tc.kind, n)
		st, err := newGroupedAggState(tc.fn, in, nil, ng)
		if err != nil {
			t.Fatalf("%s over %s: %v", tc.fn, tc.kind, err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := st.Update(gids, 0, n); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s over %s: Update allocates %.0f times for %d lanes", tc.fn, tc.kind, allocs, n)
		}
	}
}

// TestWindowEvalTypedLanesMatchBoxed: feeding WindowEval typed argument and
// key columns (with and without a lane indirection) must be bit-identical
// to feeding it Boxed columns of the same cells, one per lane, which run the
// boxed comparator and the accumulator's boxed Add.
func TestWindowEvalTypedLanesMatchBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	argKinds := []value.Kind{value.KindInt, value.KindFloat}
	for trial := 0; trial < 120; trial++ {
		n := rng.Intn(100)
		fn := allWindowFuncs[rng.Intn(len(allWindowFuncs))]
		k := rng.Intn(3)
		if fn.Ranking() && k == 0 {
			k = 1
		}
		var frame *Frame
		if !fn.Ranking() && k > 0 && rng.Intn(3) == 0 {
			frame = randFrame(rng)
		}
		// Base cells, possibly wider than the lane set, read through rows.
		m := n
		var rows []int32
		if n > 0 && rng.Intn(2) == 0 {
			m = n + rng.Intn(n+1)
			rows = make([]int32, n)
			for i := range rows {
				rows[i] = int32(rng.Intn(m))
			}
		}
		argCol := randAggCol(rng, argKinds[rng.Intn(len(argKinds))], m)
		keyCols := make([]*Col, k)
		for j := range keyCols {
			keyCols[j] = randAggCol(rng, aggColKinds[rng.Intn(len(aggColKinds))], m)
		}
		cell := func(l int) int {
			if rows == nil {
				return l
			}
			return int(rows[l])
		}

		typed := WindowInput{N: n, K: k, Rows: rows, ArgCol: argCol, KeyCols: keyCols}
		boxed := WindowInput{N: n, K: k}
		boxedOf := func(c *Col) *Col {
			vals := make([]value.Value, n)
			for i := range vals {
				vals[i] = c.Value(cell(i))
			}
			return BoxedCol(vals)
		}
		boxed.ArgCol = boxedOf(argCol)
		if fn == WinCount && rng.Intn(2) == 0 {
			typed.ArgCol, boxed.ArgCol = nil, nil // COUNT(*)
		}
		if k > 0 {
			typed.Desc = make([]bool, k)
			for j := range typed.Desc {
				typed.Desc[j] = rng.Intn(2) == 0
			}
			boxed.Desc = typed.Desc
			boxed.KeyCols = make([]*Col, k)
			for j, c := range keyCols {
				boxed.KeyCols[j] = boxedOf(c)
			}
		}
		if rng.Intn(2) == 0 && n > 0 {
			ids := make([]int32, n)
			for i := range ids {
				ids[i] = int32(rng.Intn(4))
			}
			typed.Parts = &Grouping{IDs: ids}
			boxed.Parts = typed.Parts
		}
		spec := WindowSpec{Func: fn, Frame: frame}
		got, gotErr := WindowEval(spec, typed)
		want, wantErr := WindowEval(spec, boxed)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d (%s): typed err %v, boxed err %v", trial, fn, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("trial %d (%s): typed error %q, boxed %q", trial, fn, gotErr, wantErr)
			}
			continue
		}
		for i := range want {
			if !bitEqual(got[i], want[i]) {
				t.Fatalf("trial %d (%s, k=%d, frame=%v): lane %d typed %v != boxed %v",
					trial, fn, k, frame, i, got[i], want[i])
			}
		}
	}
}
