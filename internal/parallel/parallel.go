// Package parallel provides the small, deterministic fan-out primitives the
// pipeline's hot paths share. Every helper preserves result order (workers
// race, outputs do not) and no helper folds results across iterations, so a
// computation run under GOMAXPROCS=1 and GOMAXPROCS=N produces bit-identical
// results. That invariant is what lets core.Build promise "parallel ==
// sequential graph" for a fixed seed.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the number of goroutines fan-outs use: the current
// GOMAXPROCS setting. Callers that want a sequential run set GOMAXPROCS=1
// rather than threading a width parameter through every layer.
func Workers() int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

// ForEach runs fn(i) for every i in [0, n), fanning out across Workers()
// goroutines. Iterations must be independent; fn writes to disjoint state
// (typically out[i]). Order of execution is unspecified, so fn must not
// fold floating-point results across iterations; reduce over the per-index
// outputs afterwards, in index order.
func ForEach(n int, fn func(i int)) {
	w := Workers()
	if w == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	if w > n {
		w = n
	}
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Map computes out[i] = fn(i) for i in [0, n) in parallel, preserving index
// order in the result.
func Map[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, func(i int) { out[i] = fn(i) })
	return out
}

// ForEachErr runs fn(i) for every i in [0, n) like ForEach and returns the
// error of the lowest failing index — the one a sequential loop would have
// stopped at — so error reporting does not depend on scheduling. Every
// iteration runs, even after one fails.
func ForEachErr(n int, fn func(i int) error) error {
	errs := Map(n, fn)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Do runs every task concurrently and returns the first error in argument
// order (not completion order), keeping error reporting deterministic.
func Do(tasks ...func() error) error {
	return ForEachErr(len(tasks), func(i int) error { return tasks[i]() })
}
