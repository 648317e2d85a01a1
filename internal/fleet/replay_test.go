package fleet

import (
	"bytes"
	"testing"

	"bwap/internal/sim"
	"bwap/internal/topology"
	"bwap/internal/workload"
)

// The replay-equivalence tests pin the tick pool's acceptance criterion:
// for a fixed seed and job stream, the pool's width may not change the
// JSONL event log by a single byte. Machine selection is one fleet-wide
// rule (bestFit), and the pool only moves tick work between goroutines
// under the barrier.

func eightNodeMachine(int) *topology.Machine { return topology.Symmetric(4, 4, 40, 10) }

// denseStreams mixes worker demands and demand classes: alpha/beta are
// bandwidth-hungry (anti-affinity spreads them), modest falls back to
// most-free packing, and the beta class wants whole machines so the queue
// and backfill paths run too.
func denseStreams() []StreamSpec {
	modest := testSpec("modest")
	modest.ReadGBs, modest.WriteGBs = 3, 0.5 // below the anti-affinity threshold
	return []StreamSpec{
		{
			Workload: testSpec("alpha"),
			Arrival:  workload.ArrivalSpec{Process: workload.Poisson, Rate: 3, Count: 6},
			Workers:  2, WorkScale: 0.1,
		},
		{
			Workload: testSpec("beta"),
			Arrival:  workload.ArrivalSpec{Process: workload.Periodic, Rate: 2, Count: 4},
			Workers:  4, WorkScale: 0.1,
		},
		{
			Workload: modest,
			Arrival:  workload.ArrivalSpec{Process: workload.Poisson, Rate: 2, Start: 1, Count: 4},
			Workers:  1, WorkScale: 0.1,
		},
	}
}

// poolConfig is the 8-machine replay fixture at the given tick-pool width.
func poolConfig(placement, admission string, width int, seed uint64) Config {
	return Config{
		Machines:   8,
		Shards:     width,
		NewMachine: eightNodeMachine,
		SimCfg:     sim.Config{Seed: seed},
		Policy:     placement,
		Admission:  admission,
		Seed:       seed,
	}
}

// poolWidths are the tick-pool widths every replay and equivalence test
// covers.
var poolWidths = []int{1, 2, 4, 8}

// TestReplayShardWorkerEquivalence runs the same seed and stream at every
// pool width, table-driven over all three admission policies, and demands
// byte-identical logs and equal statistics.
func TestReplayShardWorkerEquivalence(t *testing.T) {
	for _, admission := range []string{AdmitMostFree, AdmitBestBandwidth, AdmitAntiAffinity} {
		t.Run(admission, func(t *testing.T) {
			var base []byte
			var baseStats *Stats
			for _, width := range poolWidths {
				f, stats := runFleet(t, poolConfig(PolicyFirstTouch, admission, width, 17), denseStreams())
				if stats.Completed != 14 {
					t.Fatalf("width=%d completed %d/14", width, stats.Completed)
				}
				if base == nil {
					base, baseStats = f.LogBytes(), stats
					continue
				}
				if !bytes.Equal(base, f.LogBytes()) {
					t.Fatalf("width=%d changed the log\n--- baseline ---\n%s\n--- got ---\n%s",
						width, base, f.LogBytes())
				}
				if stats.Completed != baseStats.Completed || stats.MeanTurnaround != baseStats.MeanTurnaround ||
					stats.LogRecords != baseStats.LogRecords || stats.Utilization != baseStats.Utilization {
					t.Fatalf("width=%d changed stats: %+v vs %+v", width, stats, baseStats)
				}
			}
		})
	}
}

// TestReplayShardEquivalenceBWAP covers the DWP path under every
// admission policy: with a shared tuning cache pre-warmed for that policy
// (placements, and so co-runner contexts, differ across policies) every
// admission and retune resolves the same cached values, so the full bwap
// log (dwp, cache_hit fields included) is invariant over the pool's
// width too.
func TestReplayShardEquivalenceBWAP(t *testing.T) {
	for _, admission := range []string{AdmitMostFree, AdmitBestBandwidth, AdmitAntiAffinity} {
		cache := NewTuningCache(sim.Config{Seed: 17}, 0, 17)
		warm := poolConfig(PolicyBWAP, admission, 1, 17)
		warm.Cache = cache
		runFleet(t, warm, denseStreams()) // populates every (sig, workers, co) key

		var base []byte
		for _, width := range poolWidths {
			cfg := poolConfig(PolicyBWAP, admission, width, 17)
			cfg.Cache = cache
			f, stats := runFleet(t, cfg, denseStreams())
			if stats.CacheMisses != 0 {
				t.Fatalf("%s width=%d: %d probes ran against a warm cache", admission, width, stats.CacheMisses)
			}
			if base == nil {
				base = f.LogBytes()
				continue
			}
			if !bytes.Equal(base, f.LogBytes()) {
				t.Fatalf("%s: bwap log differs at width=%d", admission, width)
			}
		}
	}
}

// TestReplaySeedStillMatters guards against the invariance tests passing
// vacuously: a different seed must produce a different log.
func TestReplaySeedStillMatters(t *testing.T) {
	f1, _ := runFleet(t, poolConfig(PolicyFirstTouch, AdmitMostFree, 8, 17), denseStreams())
	f2, _ := runFleet(t, poolConfig(PolicyFirstTouch, AdmitMostFree, 8, 18), denseStreams())
	if bytes.Equal(f1.LogBytes(), f2.LogBytes()) {
		t.Fatal("different seeds produced identical logs")
	}
}
