package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"bwap/internal/workload"
)

// spinUntil yields until cond holds or a generous number of yields has
// passed, and reports whether cond held: a deadline without a wall clock,
// so a pool that never reaches the awaited state fails instead of hanging.
func spinUntil(cond func() bool) bool {
	for i := 0; i < 1_000_000; i++ {
		if cond() {
			return true
		}
		runtime.Gosched()
	}
	return cond()
}

// TestParallelForConcurrencyCap pins the pool bound: nested fan-outs run
// at most pool+1 fn calls at once (the pool's helpers plus the top-level
// caller), and they do reach it — every leaf waits until pool+1 are
// running, which only happens if runners recruit into every free slot
// without waiting for one.
func TestParallelForConcurrencyCap(t *testing.T) {
	defer SetMaxParallel(0)
	for _, pool := range []int{1, 2, 8} {
		SetMaxParallel(pool)
		var active, peak atomic.Int64
		err := parallelFor(4*(pool+1), func(int) error {
			return parallelFor(3, func(int) error {
				n := active.Add(1)
				defer active.Add(-1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				spinUntil(func() bool { return peak.Load() >= int64(pool+1) })
				return nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := peak.Load(); got != int64(pool+1) {
			t.Fatalf("pool %d: peak of %d concurrent calls, want %d", pool, got, pool+1)
		}
	}
}

// TestParallelForPullsRemainingWork pins work pulling: with one helper
// slot, a task that waits on a later task of the same fan-out completes,
// because whichever runner finishes first pulls the later task instead of
// leaving it undispatched behind the waiting one.
func TestParallelForPullsRemainingWork(t *testing.T) {
	SetMaxParallel(1)
	defer SetMaxParallel(0)
	var lastRan atomic.Bool
	err := parallelFor(3, func(i int) error {
		switch i {
		case 1:
			if !spinUntil(lastRan.Load) {
				return errors.New("task 2 never ran while task 1 waited for it")
			}
		case 2:
			lastRan.Store(true)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestParallelNestedTakesFreedSlots pins slot recruitment mid-run: the
// caller's task fans out while the outer helpers hold both slots, so its
// first leaf runs alone; once the helpers finish and free the slots, the
// inner fan-out recruits into them at its next task boundary and its later
// leaves run concurrently.
func TestParallelNestedTakesFreedSlots(t *testing.T) {
	SetMaxParallel(2)
	defer SetMaxParallel(0)
	sem := poolSem
	var holding, active, peak atomic.Int64
	var innerStarted atomic.Bool
	err := parallelFor(3, func(i int) error {
		if i != 0 {
			// Outer helpers: hold both slots until the inner fan-out runs.
			holding.Add(1)
			spinUntil(innerStarted.Load)
			return nil
		}
		if !spinUntil(func() bool { return holding.Load() == 2 && len(sem) == 2 }) {
			return errors.New("outer tasks 1 and 2 never held both slots")
		}
		return parallelFor(4, func(j int) error {
			if j == 0 {
				innerStarted.Store(true)
				if !spinUntil(func() bool { return len(sem) == 0 }) {
					return errors.New("outer helpers never freed their slots")
				}
				return nil
			}
			n := active.Add(1)
			defer active.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			spinUntil(func() bool { return peak.Load() >= 2 })
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got < 2 {
		t.Fatalf("inner leaves peaked at %d concurrent calls: freed slots were not taken", got)
	}
}

// TestParallelForRunsEverythingOnce covers the pool mechanics: all indices
// run exactly once whatever the pool size, including nested fan-outs.
func TestParallelForRunsEverythingOnce(t *testing.T) {
	for _, pool := range []int{1, 2, 8} {
		SetMaxParallel(pool)
		var count atomic.Int64
		hits := make([]atomic.Int64, 20)
		err := parallelFor(len(hits), func(i int) error {
			return parallelFor(3, func(int) error { // nested level must not deadlock
				count.Add(1)
				if i%3 == 0 {
					return nil
				}
				hits[i].Add(1)
				return nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := count.Load(); got != 60 {
			t.Fatalf("pool %d: ran %d tasks, want 60", pool, got)
		}
	}
	SetMaxParallel(0)
}

// TestParallelForReportsLowestError pins deterministic error selection.
func TestParallelForReportsLowestError(t *testing.T) {
	SetMaxParallel(4)
	defer SetMaxParallel(0)
	errOf := func(i int) error { return fmt.Errorf("task %d", i) }
	err := parallelFor(10, func(i int) error {
		if i == 3 || i == 7 {
			return errOf(i)
		}
		return nil
	})
	if err == nil || err.Error() != "task 3" {
		t.Fatalf("err = %v, want task 3", err)
	}
	if err := parallelFor(4, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := parallelFor(1, func(int) error { return errors.New("solo") }); err == nil {
		t.Fatal("serial error lost")
	}
}

// TestParallelRunMatchesSerial is the harness's equivalence contract: a
// parallel experiment cell grid produces results identical to a serial
// run — same Times, same DWPs — because aggregation is slot-indexed and
// every simulation is self-contained.
func TestParallelRunMatchesSerial(t *testing.T) {
	spec, err := workload.ByName("SC")
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func() ([]RunResult, *SpeedupFigure) {
		p := MachineA().Quick()
		p.Seeds = 2
		ws, err := p.Workers(2)
		if err != nil {
			t.Fatal(err)
		}
		var results []RunResult
		for _, pol := range []string{"uniform-workers", "bwap-uniform"} {
			r, err := p.Run(spec, ws, pol, true)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, r)
		}
		fig, err := RunCoScheduled(p, 1, "eq")
		if err != nil {
			t.Fatal(err)
		}
		return results, fig
	}

	SetMaxParallel(1)
	serialRes, serialFig := runOnce()
	SetMaxParallel(8)
	parallelRes, parallelFig := runOnce()
	SetMaxParallel(0)

	// Compare formatted representations: DeepEqual would treat the NaN
	// DWP placeholders of non-BWAP policies as unequal.
	if s, p := fmt.Sprintf("%+v", serialRes), fmt.Sprintf("%+v", parallelRes); s != p {
		t.Fatalf("parallel Run diverged from serial:\n serial  %s\n parallel %s", s, p)
	}
	if s, p := fmt.Sprintf("%+v", serialFig), fmt.Sprintf("%+v", parallelFig); s != p {
		t.Fatalf("parallel figure diverged from serial:\n serial  %s\n parallel %s", s, p)
	}
}
