package relation

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"sheetmusiq/internal/value"
)

// forceParallel drops the threshold to 0 and raises GOMAXPROCS for the
// duration of a test so the chunked path runs multi-chunk even on tiny
// inputs and single-core hosts.
func forceParallel(t *testing.T) {
	t.Helper()
	old := ParallelThreshold
	ParallelThreshold = 0
	oldProcs := runtime.GOMAXPROCS(8)
	t.Cleanup(func() {
		ParallelThreshold = old
		runtime.GOMAXPROCS(oldProcs)
	})
}

func TestChunksCoverRange(t *testing.T) {
	forceParallel(t)
	for _, n := range []int{0, 1, 2, 3, 7, 100, 4097} {
		bounds := Chunks(n)
		if n == 0 {
			if len(bounds) != 0 {
				t.Fatalf("Chunks(0) = %v", bounds)
			}
			continue
		}
		covered := 0
		prev := 0
		for _, b := range bounds {
			if b[0] != prev || b[1] <= b[0] {
				t.Fatalf("Chunks(%d) = %v: not contiguous ascending", n, bounds)
			}
			covered += b[1] - b[0]
			prev = b[1]
		}
		if covered != n || prev != n {
			t.Fatalf("Chunks(%d) = %v: covers %d", n, bounds, covered)
		}
	}
}

func TestChunksSequentialBelowThreshold(t *testing.T) {
	old := ParallelThreshold
	ParallelThreshold = 1 << 30
	defer func() { ParallelThreshold = old }()
	if got := Chunks(100000); len(got) != 1 {
		t.Fatalf("Chunks below threshold = %v, want one chunk", got)
	}
}

func TestRunChunksFirstErrorInChunkOrder(t *testing.T) {
	forceParallel(t)
	// Rows 3 and 40 both fail; the reported error must be row 3's — the
	// same one the sequential scan would surface.
	err := ForChunks(64, func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			if i == 3 || i == 40 {
				return fmt.Errorf("row %d", i)
			}
		}
		return nil
	})
	if err == nil || err.Error() != "row 3" {
		t.Fatalf("err = %v, want row 3", err)
	}
}

// TestAccumulatorMergeEquivalence: feeding a value stream into one
// accumulator must equal splitting it into chunks, accumulating each, and
// merging the partials in chunk order — for every aggregate function.
func TestAccumulatorMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var stream []value.Value
	for i := 0; i < 500; i++ {
		switch rng.Intn(4) {
		case 0:
			stream = append(stream, value.Null)
		case 1:
			stream = append(stream, value.NewInt(int64(rng.Intn(100)-50)))
		default:
			stream = append(stream, value.NewInt(int64(rng.Intn(10))))
		}
	}
	fns := []AggFunc{AggSum, AggAvg, AggMin, AggMax, AggCount, AggCountDistinct, AggStdDev}
	for _, fn := range fns {
		for _, nChunks := range []int{1, 2, 3, 7, 16} {
			seq := newAccumulator(fn)
			for _, v := range stream {
				if err := seq.Add(v); err != nil {
					t.Fatal(err)
				}
			}
			size := (len(stream) + nChunks - 1) / nChunks
			var merged *accumulator
			for lo := 0; lo < len(stream); lo += size {
				hi := lo + size
				if hi > len(stream) {
					hi = len(stream)
				}
				part := newAccumulator(fn)
				for _, v := range stream[lo:hi] {
					if err := part.Add(v); err != nil {
						t.Fatal(err)
					}
				}
				if merged == nil {
					merged = part
				} else {
					merged.Merge(part)
				}
			}
			want, got := seq.Result(), merged.Result()
			if want.Kind() != got.Kind() || !value.Equal(want, got) {
				t.Errorf("%s over %d chunks: sequential %v, merged %v", fn, nChunks, want, got)
			}
		}
	}
}

// TestAccumulatorMergeFirstSeenTies pins the MIN/MAX tie-break: merging in
// chunk order keeps the earliest chunk's representative among
// compare-equal values, like the sequential first-seen scan.
func TestAccumulatorMergeFirstSeenTies(t *testing.T) {
	a := newAccumulator(AggMin)
	b := newAccumulator(AggMin)
	if err := a.Add(value.NewFloat(2)); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(value.NewInt(2)); err != nil { // compares equal to 2.0
		t.Fatal(err)
	}
	a.Merge(b)
	if got := a.Result(); got.Kind() != value.KindFloat {
		t.Fatalf("merged MIN = %v (%s), want the first chunk's 2.0", got, got.Kind())
	}
}
