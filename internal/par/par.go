// Package par is the repository's one fan-out primitive: the sketches'
// independent decodes (the R forests of vertexconn, the layer clones and
// forest subtractions of a skeleton peel) run through ForEach.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n) on up to workers goroutines
// (0 means GOMAXPROCS) and returns the first error by index. It is an
// errgroup-style fan-out without cancellation: every index runs regardless
// of earlier failures, so callers that tolerate partial failure (e.g.
// vertexconn's redundant forest decodes) see all results, and the
// returned error is deterministic regardless of scheduling.
//
// fn must be safe to call concurrently for distinct indices; results should
// be written to per-index slots, never shared accumulators.
func ForEach(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
