package fleet

import (
	"bytes"
	"testing"

	"bwap/internal/sim"
)

// The fleet fast-forward tests extend the PR 3 replay-equivalence table
// with the quiescent-interval axis: for every routing policy and shard
// count, the merged JSONL event log must be byte-identical with
// fast-forward on and off. The on-path batches barrier-free replay windows
// and memoizes per-machine solves; the off-path is the naive
// solve-every-tick reference kept alive by sim.Config.DisableFastForward.

func ffShardConfig(routing string, shards int, disable bool) Config {
	cfg := shardConfig(PolicyFirstTouch, AdmitMostFree, shards, shards, 29)
	cfg.Routing = routing
	cfg.SimCfg.DisableFastForward = disable
	return cfg
}

// TestFastForwardFleetEquivalence is the tentpole property test: all three
// routing policies at 1, 2 and 4 shards, fast-forward on vs. off,
// byte-identical logs and identical headline stats.
func TestFastForwardFleetEquivalence(t *testing.T) {
	for _, routing := range []string{RouteLeastLoaded, RouteHashAffinity, RouteRoundRobin} {
		t.Run(routing, func(t *testing.T) {
			for _, shards := range []int{1, 2, 4} {
				fOff, sOff := runFleet(t, ffShardConfig(routing, shards, true), shardStreams())
				fOn, sOn := runFleet(t, ffShardConfig(routing, shards, false), shardStreams())
				if !bytes.Equal(fOff.LogBytes(), fOn.LogBytes()) {
					t.Fatalf("shards=%d: fast-forward changed the log\n--- off ---\n%s\n--- on ---\n%s",
						shards, fOff.LogBytes(), fOn.LogBytes())
				}
				if sOff.Completed != sOn.Completed || sOff.MeanTurnaround != sOn.MeanTurnaround ||
					sOff.Utilization != sOn.Utilization || sOff.LogRecords != sOn.LogRecords {
					t.Fatalf("shards=%d: fast-forward changed stats: %+v vs %+v", shards, sOff, sOn)
				}
				if sOff.TickReplays != 0 {
					t.Fatalf("shards=%d: disabled fleet replayed %d ticks", shards, sOff.TickReplays)
				}
				if sOn.TickReplays == 0 {
					t.Fatalf("shards=%d: fast-forward never engaged (equivalence would be vacuous)", shards)
				}
			}
		})
	}
}

// TestFastForwardFleetEquivalenceBWAP covers the DWP policy path — cache
// hits, coalesced retunes (placement churn mid-run) and migration backlog
// draining — against a shared pre-warmed cache, so the dwp/cache_hit log
// fields are exercised too. The naive run must replay no tick and the
// fast-forward run must replay some, or the equivalence is vacuous.
func TestFastForwardFleetEquivalenceBWAP(t *testing.T) {
	var base []byte
	for _, disable := range []bool{true, false} {
		cache := NewTuningCache(sim.Config{Seed: 29}, 0, 29)
		warm := shardConfig(PolicyBWAP, AdmitMostFree, 1, 1, 29)
		warm.Cache = cache
		warm.SimCfg.DisableFastForward = disable
		runFleet(t, warm, shardStreams())

		cfg := shardConfig(PolicyBWAP, AdmitMostFree, 4, 4, 29)
		cfg.Cache = cache
		cfg.SimCfg.DisableFastForward = disable
		f, stats := runFleet(t, cfg, shardStreams())
		if stats.CacheMisses != 0 {
			t.Fatalf("disable=%v: %d probes against a warm cache", disable, stats.CacheMisses)
		}
		if disable && stats.TickReplays != 0 {
			t.Fatalf("naive run replayed %d ticks", stats.TickReplays)
		}
		if !disable && stats.TickReplays == 0 {
			t.Fatal("fast-forward run never replayed a tick")
		}
		if base == nil {
			base = f.LogBytes()
			continue
		}
		if !bytes.Equal(base, f.LogBytes()) {
			t.Fatal("fast-forward changed the bwap log")
		}
	}
}
