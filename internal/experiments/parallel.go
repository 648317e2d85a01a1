package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The experiment grid is embarrassingly parallel: every cell (benchmark ×
// policy × worker count × seed) is an independent simulation whose engine,
// address spaces and solver are private to the run. The harness fans cells
// out over one bounded, process-wide pool of helper slots shared by every
// fan-out level (figure rows, policy columns, seed replicas, sweep points).
// A fan-out is work-pulling: its caller and every helper it recruits take
// the next index from a shared counter until none remain, and at each task
// boundary a runner recruits a helper into any free slot while tasks remain
// unclaimed. Nobody ever waits for a slot — a fan-out whose slots are all
// taken simply runs on its caller — so nested fan-outs can never deadlock,
// a slot freed mid-run is picked up at the next task boundary of any
// fan-out, and total concurrency stays at most the pool size plus the one
// top-level caller no matter how the levels compose.
//
// Results are always written to caller-owned, index-addressed slots and
// aggregated in input order afterwards, so the output of a parallel run is
// bit-identical to a serial one regardless of scheduling.

var (
	poolMu  sync.Mutex
	poolSem = make(chan struct{}, runtime.GOMAXPROCS(0))
)

// SetMaxParallel bounds the number of pooled worker goroutines the
// experiment harness uses; n <= 0 selects GOMAXPROCS. With n == 1 every
// task still runs, but at most one off-caller goroutine exists at a time.
// Call it before starting experiment runs; it does not affect fan-outs
// already in flight (their slot releases drain to the old pool).
func SetMaxParallel(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	poolMu.Lock()
	poolSem = make(chan struct{}, n)
	poolMu.Unlock()
}

// parallelFor runs fn(0) … fn(n-1) on the caller's goroutine and on any
// pool helpers it can recruit, and waits for all of them. It returns the
// error of the lowest failing index, so error reporting is as
// deterministic as the results.
func parallelFor(n int, fn func(i int) error) error {
	if n == 1 {
		return fn(0)
	}
	poolMu.Lock()
	sem := poolSem
	poolMu.Unlock()
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	var run func()
	run = func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if next.Load() < int64(n) {
				// Tasks remain past this one: recruit a helper if a slot is
				// free, without waiting for one.
				select {
				case sem <- struct{}{}:
					wg.Add(1)
					go func() {
						defer wg.Done()
						defer func() { <-sem }()
						run()
					}()
				default:
				}
			}
			errs[i] = fn(i)
		}
	}
	run()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
