// The multi-core scaling gates: hard pass/fail wrappers around the
// BenchmarkFleetThroughputSharded axis, run only by the CI multicore job.
// Benchmarks report numbers; these tests enforce two — a tick pool of
// width 4 must beat width 1 in wall time on the identical warm-cache
// stream at GOMAXPROCS >= 4, and width 2 must beat width 1 at GOMAXPROCS
// 2.
package bwap_test

import (
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"bwap"
)

// scalingJobs is the gates' stream length.
const scalingJobs = 48

// scalingRun times one drained run of the gates' stream — 48 Streamcluster
// jobs on 8 machines — at the given tick-pool width, with a shared (warm)
// tuning cache.
func scalingRun(t *testing.T, cache *bwap.TuningCache, width int) time.Duration {
	t.Helper()
	stream := []bwap.StreamSpec{{
		Workload: bwap.Streamcluster(),
		Arrival:  bwap.ArrivalSpec{Process: "poisson", Rate: 2.0, Count: scalingJobs},
		Workers:  2, WorkScale: 0.05,
	}}
	start := time.Now()
	f, err := bwap.NewFleet(bwap.FleetConfig{
		Machines: 8,
		Shards:   width,
		SimCfg:   bwap.Config{Seed: 1},
		Seed:     1,
		Cache:    cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SubmitStream(stream); err != nil {
		t.Fatal(err)
	}
	stats, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != scalingJobs {
		t.Fatalf("width %d completed %d/%d jobs", width, stats.Completed, scalingJobs)
	}
	return time.Since(start)
}

// TestShardScalingMultiCoreGate fails if the fleet engine does not scale
// with the tick pool's width. Guarded by BWAP_SCALING_TEST=1 so
// single-core development machines and the reference CI job skip it: on
// one core the widths tie modulo overhead and the comparison is
// meaningless.
func TestShardScalingMultiCoreGate(t *testing.T) {
	if os.Getenv("BWAP_SCALING_TEST") != "1" {
		t.Skip("set BWAP_SCALING_TEST=1 (CI multicore job) to run the scaling gate")
	}
	if n := runtime.NumCPU(); n < 4 {
		t.Skipf("scaling gate needs >= 4 CPUs, have %d", n)
	}

	cache := bwap.NewTuningCache(bwap.Config{Seed: 1}, 0, 1)
	run := func(width int) time.Duration { return scalingRun(t, cache, width) }
	run(1) // warm the shared tuning cache outside any measured run

	// Best-of-5 per width: the gate compares the machines' capability, not
	// a single run's scheduler luck.
	best := func(width int) time.Duration {
		b := run(width)
		for i := 0; i < 4; i++ {
			if d := run(width); d < b {
				b = d
			}
		}
		return b
	}
	t1, t4 := best(1), best(4)
	t.Logf("wall time: width 1 %v, width 4 %v (%.2fx)", t1, t4, float64(t1)/float64(t4))
	if t4 >= t1 {
		t.Fatalf("width 4 (%v) not faster than width 1 (%v) on a %d-CPU runner",
			t4, t1, runtime.NumCPU())
	}
}

// TestShardScalingTwoCoreGate is the two-core sibling of the gate above:
// at GOMAXPROCS 2, width 2 (a tick pool of the scheduler plus one
// helper) must beat width 1 in wall time. A run is ~10–15 ms, short
// enough that best-of-5 flips either way with host noise, so the gate
// compares medians of 41 interleaved runs per width, alternating which
// side goes first. Same BWAP_SCALING_TEST guard as the width-4 gate.
func TestShardScalingTwoCoreGate(t *testing.T) {
	if os.Getenv("BWAP_SCALING_TEST") != "1" {
		t.Skip("set BWAP_SCALING_TEST=1 (CI multicore job) to run the scaling gate")
	}
	if n := runtime.NumCPU(); n < 2 {
		t.Skipf("two-core gate needs >= 2 CPUs, have %d", n)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))

	cache := bwap.NewTuningCache(bwap.Config{Seed: 1}, 0, 1)
	scalingRun(t, cache, 1) // warm the shared tuning cache and code paths
	scalingRun(t, cache, 2)
	const runs = 41
	var t1, t2 []time.Duration
	for i := 0; i < runs; i++ {
		if i%2 == 0 {
			t1 = append(t1, scalingRun(t, cache, 1))
			t2 = append(t2, scalingRun(t, cache, 2))
		} else {
			t2 = append(t2, scalingRun(t, cache, 2))
			t1 = append(t1, scalingRun(t, cache, 1))
		}
	}
	slices.Sort(t1)
	slices.Sort(t2)
	m1, m2 := t1[runs/2], t2[runs/2]
	t.Logf("median wall time over %d runs: width 1 %v (quartiles %v–%v), width 2 %v (quartiles %v–%v), %.2fx",
		runs, m1, t1[runs/4], t1[3*runs/4], m2, t2[runs/4], t2[3*runs/4], float64(m1)/float64(m2))
	if m2 >= m1 {
		t.Fatalf("width 2 (median %v) not faster than width 1 (median %v) at GOMAXPROCS 2", m2, m1)
	}
}

// TestProbeBurstMultiCoreGate is the probe pool's hard pass/fail wrapper
// around BenchmarkColdCacheProbeBurst: on a multi-core runner, a cold
// cache hit by a burst of distinct workload classes must drain faster
// with four probe workers than with one. Every run builds a fresh fleet
// with a fresh cache, so each pays the full probe bill; the pool
// width is the only variable. Same guards as the pool gate — the
// comparison is meaningless on a single core.
func TestProbeBurstMultiCoreGate(t *testing.T) {
	if os.Getenv("BWAP_SCALING_TEST") != "1" {
		t.Skip("set BWAP_SCALING_TEST=1 (CI multicore job) to run the probe gate")
	}
	if n := runtime.NumCPU(); n < 4 {
		t.Skipf("probe gate needs >= 4 CPUs, have %d", n)
	}

	const sigs = 16
	streams := probeBurstStreams(sigs)
	run := func(probeWorkers int) time.Duration {
		start := time.Now()
		f, err := bwap.NewFleet(bwap.FleetConfig{
			Machines: 8,
			Shards:   2,
			SimCfg:   bwap.Config{Seed: 1},
			Seed:     1,
			Cache:    bwap.NewTuningCache(bwap.Config{Seed: 1}, 0, 1, bwap.ProbeWorkers(probeWorkers)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.SubmitStream(streams); err != nil {
			t.Fatal(err)
		}
		stats, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Completed != sigs {
			t.Fatalf("probe-workers=%d completed %d/%d jobs", probeWorkers, stats.Completed, sigs)
		}
		if stats.CacheMisses == 0 {
			t.Fatalf("probe-workers=%d recorded no probe misses; the burst is vacuous", probeWorkers)
		}
		return time.Since(start)
	}
	run(1) // one throwaway run to warm code paths, never the cache

	best := func(probeWorkers int) time.Duration {
		b := run(probeWorkers)
		for i := 0; i < 4; i++ {
			if d := run(probeWorkers); d < b {
				b = d
			}
		}
		return b
	}
	t1, t4 := best(1), best(4)
	t.Logf("cold-cache probe burst wall time: 1 worker %v, 4 workers %v (%.2fx)", t1, t4, float64(t1)/float64(t4))
	if t4 >= t1 {
		t.Fatalf("4 probe workers (%v) not faster than 1 (%v) on a %d-CPU runner",
			t4, t1, runtime.NumCPU())
	}
}
