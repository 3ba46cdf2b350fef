// Package par provides the tiny deterministic fan-out primitive shared by
// the parallel solving engine: run n index-addressed jobs on a bounded pool
// of workers and wait. Callers write results into index i of a pre-sized
// slice, so assembly order — and therefore every downstream decision — is
// independent of goroutine scheduling.
package par

import "sync"

// ForEach runs f(0..n-1) on at most workers goroutines and returns when all
// calls complete. With workers <= 1 (or n <= 1) it runs inline, so the
// sequential path has zero goroutine overhead and identical stack traces to
// the pre-parallel engine.
func ForEach(n, workers int, f func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
