package fleet

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// settleGoroutines waits, with a bound, for the goroutine count to fall
// back to want; the tick pool's helpers must not outlive run().
func settleGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(time.Millisecond) //bwap:wallclock poll interval for exiting goroutines
	}
	t.Fatalf("%s: %d goroutines still running, want at most %d", what, runtime.NumGoroutine(), want)
}

// TestTickPoolLifecycle pins that the tick pool lives inside run(): after
// a drained Run, and after each of a sequence of small Advance calls, the
// goroutine count is back to its value before the fleet ran. GOMAXPROCS
// is raised to at least 4 so that Workers 4 really starts three helpers
// (the pool is min(Workers, GOMAXPROCS) goroutines, the scheduler's own
// included). The stepped fleet must also write the Run fleet's log.
func TestTickPoolLifecycle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	for _, workers := range []int{2, 4} {
		before := runtime.NumGoroutine()
		ran, _ := runFleet(t, chaosShardConfig(4, workers, false), shardStreams())
		settleGoroutines(t, before, fmt.Sprintf("workers=%d after Run", workers))

		f, err := New(chaosShardConfig(4, workers, false))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.SubmitStream(shardStreams()); err != nil {
			t.Fatal(err)
		}
		for f.Now() < 30 {
			if err := f.Advance(0.35); err != nil {
				t.Fatal(err)
			}
			settleGoroutines(t, before, fmt.Sprintf("workers=%d after Advance to %.2f", workers, f.Now()))
		}
		if _, err := f.Run(); err != nil {
			t.Fatal(err)
		}
		settleGoroutines(t, before, fmt.Sprintf("workers=%d after stepped Run", workers))
		if !bytes.Equal(ran.LogBytes(), f.LogBytes()) {
			t.Fatalf("workers=%d: stepping with Advance changed the log", workers)
		}
	}
}

// TestTickPoolOneCore pins that a multi-worker fleet on one core neither
// spins nor deadlocks: the pool has no helper there, and the run writes
// the one-worker log. Not parallel: it changes GOMAXPROCS.
func TestTickPoolOneCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one, _ := runFleet(t, chaosShardConfig(4, 1, false), shardStreams())
	four, _ := runFleet(t, chaosShardConfig(4, 4, false), shardStreams())
	if !bytes.Equal(one.LogBytes(), four.LogBytes()) {
		t.Fatal("Workers 4 on one core wrote a different log than Workers 1")
	}
}

// BenchmarkAdvanceWindow measures the per-window barrier: an 8-machine
// fleet, one long-running job per machine, advanced in 1-tick Advance
// steps, so each step is one window of mostly replayed ticks and the
// window handoff (and the pool's start and stop per run) is a large
// share of its cost. Reported as ns/window at 1 and 2 workers.
//
// The jobs are as long as Submit's size bound allows (80 × 400 GB of
// work, 10× the largest built-in benchmark's), and their first
// completion comes 36,726 windows after admission, so a fresh fleet takes
// over, off the clock, every 30,000 windows: no measured window holds
// fewer than eight running jobs, however large b.N grows.
func BenchmarkAdvanceWindow(b *testing.B) {
	const windowsPerFleet = 30_000
	loaded := func(workers int) *Fleet {
		f, err := New(shardConfig(PolicyFirstTouch, AdmitMostFree, workers, workers, 1))
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if _, err := f.Submit(testSpec("long"), 2, 80, 0); err != nil {
				b.Fatal(err)
			}
		}
		// Admit every job and let the init bursts settle.
		if err := f.Advance(5); err != nil {
			b.Fatal(err)
		}
		if f.running != 8 {
			b.Fatalf("%d jobs running, want 8", f.running)
		}
		return f
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var f *Fleet
			var windows, start int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%windowsPerFleet == 0 {
					b.StopTimer()
					if f != nil {
						windows += f.batches - start
					}
					f = loaded(workers)
					start = f.batches
					b.StartTimer()
				}
				if err := f.Advance(f.dt); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if f.running != 8 {
				b.Fatalf("%d jobs running at the end, want 8", f.running)
			}
			if n := windows + f.batches - start; n > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/window")
			}
		})
	}
}
