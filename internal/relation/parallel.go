package relation

import (
	"os"
	"runtime"
	"strconv"
	"sync"

	"sheetmusiq/internal/obs"
)

// Data-parallel stage execution. The replay loop of the spreadsheet algebra
// (and the SQL executor) is a sequence of embarrassingly parallel per-row
// stages — selection filtering, formula fill, aggregate accumulation, key
// computation. The helpers here partition a row range into GOMAXPROCS-sized
// contiguous chunks and run a stage body over the chunks concurrently,
// while keeping every observable result deterministic:
//
//   - chunks are contiguous and ordered, so chunk-local outputs concatenated
//     in chunk order reproduce the sequential multiset order exactly;
//   - the first error in chunk order is returned, and each chunk aborts at
//     its first failing row, so the reported error is the error of the
//     globally first failing row — the same one the sequential loop hits.

// ParallelThreshold is the row count below which stages stay sequential;
// chunking overhead beats the win on small tables. Set it to 0 to force the
// parallel path (the equivalence tests do), or to a huge value to force the
// sequential path. It is read once per stage and must not be mutated while
// evaluations are in flight.
var ParallelThreshold = 2048

// init honours the SHEETMUSIQ_PARALLEL_THRESHOLD environment knob. CI races
// the core package with a tiny threshold so every chunked stage path runs
// under the race detector on ordinary test data (see `make test`).
func init() {
	if v := os.Getenv("SHEETMUSIQ_PARALLEL_THRESHOLD"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			ParallelThreshold = n
		}
	}
}

// Chunks partitions n rows into contiguous [lo, hi) bounds: one chunk when
// n is below ParallelThreshold or a single CPU is available, otherwise up
// to GOMAXPROCS equal chunks. n of zero yields no chunks.
func Chunks(n int) [][2]int {
	if n <= 0 {
		return nil
	}
	procs := runtime.GOMAXPROCS(0)
	if procs <= 1 || n < ParallelThreshold {
		return [][2]int{{0, n}}
	}
	if procs > n {
		procs = n
	}
	size := (n + procs - 1) / procs
	bounds := make([][2]int, 0, procs)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		bounds = append(bounds, [2]int{lo, hi})
	}
	return bounds
}

// Chunking metrics, recorded per stage pass (never per row): how many
// passes stayed sequential, how many fanned out, and the total number of
// chunk goroutine bodies spawned by the parallel passes.
var (
	chunkRunsSequential = obs.Default.Counter("relation.chunk_runs.sequential")
	chunkRunsParallel   = obs.Default.Counter("relation.chunk_runs.parallel")
	chunksSpawned       = obs.Default.Counter("relation.chunks.spawned")
)

// RunChunks invokes fn(chunk, lo, hi) for every chunk, concurrently when
// there is more than one. It returns the first error in chunk order.
func RunChunks(bounds [][2]int, fn func(chunk, lo, hi int) error) error {
	if len(bounds) == 1 {
		chunkRunsSequential.Inc()
		return fn(0, bounds[0][0], bounds[0][1])
	}
	if len(bounds) == 0 {
		return nil
	}
	chunkRunsParallel.Inc()
	chunksSpawned.Add(int64(len(bounds)))
	errs := make([]error, len(bounds))
	var wg sync.WaitGroup
	for c, b := range bounds {
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			errs[c] = fn(c, lo, hi)
		}(c, b[0], b[1])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ForChunks is RunChunks over Chunks(n).
func ForChunks(n int, fn func(chunk, lo, hi int) error) error {
	return RunChunks(Chunks(n), fn)
}
