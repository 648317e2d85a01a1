package fleet

import (
	"bytes"
	"testing"

	"bwap/internal/sim"
	"bwap/internal/topology"
	"bwap/internal/workload"
)

// The replay-equivalence tests pin the sharding acceptance criterion:
// for a fixed seed and job stream, neither the shard count nor the worker
// count may change the merged JSONL event log by a single byte. Worker
// invariance holds for every routing policy (parallelism only moves tick
// work between goroutines under the barrier); shard invariance holds for
// the least-loaded router, whose shard choice composes with the shard-
// level machine selection into the same global argmax for any partition.

func eightNodeMachine(int) *topology.Machine { return topology.Symmetric(4, 4, 40, 10) }

// shardStreams mixes worker demands and demand classes: alpha/beta are
// bandwidth-hungry (anti-affinity spreads them), modest falls back to
// most-free packing, and the beta class wants whole machines so the queue
// and backfill paths run too.
func shardStreams() []StreamSpec {
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

func shardConfig(placement, admission string, shards, workers int, seed uint64) Config {
	return Config{
		Machines:   8,
		Shards:     shards,
		Workers:    workers,
		NewMachine: eightNodeMachine,
		SimCfg:     sim.Config{Seed: seed},
		Policy:     placement,
		Admission:  admission,
		Seed:       seed,
	}
}

var replayCombos = []struct{ shards, workers int }{
	{1, 1}, {2, 1}, {2, 2}, {8, 1}, {8, 4}, {8, 8},
}

// TestReplayShardWorkerEquivalence runs the same seed and stream at 1, 2
// and 8 shards with 1 and N workers, table-driven over all three
// admission policies, and demands byte-identical merged logs.
func TestReplayShardWorkerEquivalence(t *testing.T) {
	for _, admission := range []string{AdmitMostFree, AdmitBestBandwidth, AdmitAntiAffinity} {
		t.Run(admission, func(t *testing.T) {
			var base []byte
			var baseStats *Stats
			for _, c := range replayCombos {
				f, stats := runFleet(t, shardConfig(PolicyFirstTouch, admission, c.shards, c.workers, 17), shardStreams())
				if stats.Completed != 14 {
					t.Fatalf("shards=%d workers=%d completed %d/14", c.shards, c.workers, stats.Completed)
				}
				if base == nil {
					base, baseStats = f.LogBytes(), stats
					continue
				}
				if !bytes.Equal(base, f.LogBytes()) {
					t.Fatalf("shards=%d workers=%d changed the log\n--- baseline ---\n%s\n--- got ---\n%s",
						c.shards, c.workers, base, f.LogBytes())
				}
				if stats.Completed != baseStats.Completed || stats.MeanTurnaround != baseStats.MeanTurnaround ||
					stats.LogRecords != baseStats.LogRecords {
					t.Fatalf("shards=%d workers=%d changed stats: %+v vs %+v", c.shards, c.workers, stats, baseStats)
				}
			}
		})
	}
}

// TestReplayShardEquivalenceBWAP covers the DWP path under every
// admission policy: with a shared tuning cache pre-warmed for that policy
// (placements, and so co-runner contexts, differ across policies) every
// admission and retune resolves the same cached values, so the full bwap
// log (dwp, cache_hit fields included) is shard- and worker-invariant too.
func TestReplayShardEquivalenceBWAP(t *testing.T) {
	for _, admission := range []string{AdmitMostFree, AdmitBestBandwidth, AdmitAntiAffinity} {
		cache := NewTuningCache(sim.Config{Seed: 17}, 0, 17)
		warm := shardConfig(PolicyBWAP, admission, 1, 1, 17)
		warm.Cache = cache
		runFleet(t, warm, shardStreams()) // populates every (sig, workers, co) key

		var base []byte
		for _, c := range []struct{ shards, workers int }{{1, 1}, {4, 2}, {8, 8}} {
			cfg := shardConfig(PolicyBWAP, admission, c.shards, c.workers, 17)
			cfg.Cache = cache
			f, stats := runFleet(t, cfg, shardStreams())
			if stats.CacheMisses != 0 {
				t.Fatalf("%s shards=%d: %d probes ran against a warm cache", admission, c.shards, stats.CacheMisses)
			}
			if base == nil {
				base = f.LogBytes()
				continue
			}
			if !bytes.Equal(base, f.LogBytes()) {
				t.Fatalf("%s: bwap log differs at shards=%d workers=%d", admission, c.shards, c.workers)
			}
		}
	}
}

// TestReplayWorkerInvarianceStickyRouting checks the worker-count half of
// the contract for the shard-dependent routers: hash-affinity and
// round-robin change placement with the shard count (by design), but for
// a fixed shard count the worker pool size must still not leak into the
// log.
func TestReplayWorkerInvarianceStickyRouting(t *testing.T) {
	for _, routing := range []string{RouteHashAffinity, RouteRoundRobin} {
		t.Run(routing, func(t *testing.T) {
			var base []byte
			for _, workers := range []int{1, 4} {
				cfg := shardConfig(PolicyFirstTouch, AdmitMostFree, 4, workers, 23)
				cfg.Routing = routing
				f, stats := runFleet(t, cfg, shardStreams())
				if stats.Completed != 14 {
					t.Fatalf("workers=%d completed %d/14", workers, stats.Completed)
				}
				if base == nil {
					base = f.LogBytes()
					continue
				}
				if !bytes.Equal(base, f.LogBytes()) {
					t.Fatalf("%s: worker count changed the log", routing)
				}
			}
		})
	}
}

// TestReplaySeedStillMatters guards against the invariance tests passing
// vacuously: a different seed must produce a different log.
func TestReplaySeedStillMatters(t *testing.T) {
	f1, _ := runFleet(t, shardConfig(PolicyFirstTouch, AdmitMostFree, 8, 8, 17), shardStreams())
	f2, _ := runFleet(t, shardConfig(PolicyFirstTouch, AdmitMostFree, 8, 8, 18), shardStreams())
	if bytes.Equal(f1.LogBytes(), f2.LogBytes()) {
		t.Fatal("different seeds produced identical logs")
	}
}
