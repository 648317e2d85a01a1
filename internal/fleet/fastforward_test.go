package fleet

import (
	"bytes"
	"testing"

	"bwap/internal/sim"
)

// The fleet fast-forward tests extend the replay-equivalence table with
// the quiescent-interval axis: at every tick-pool width, the JSONL event
// log must be byte-identical with fast-forward on and off. The on-path
// batches barrier-free replay windows and memoizes per-machine solves; the
// off-path is the naive solve-every-tick reference kept alive by
// sim.Config.DisableFastForward.

func ffPoolConfig(width int, disable bool) Config {
	cfg := poolConfig(PolicyFirstTouch, AdmitMostFree, width, 29)
	cfg.SimCfg.DisableFastForward = disable
	return cfg
}

// TestFastForwardFleetEquivalence is the tentpole property test: the
// least-loaded machine-selection rule at every pool width, fast-forward on
// vs. off, byte-identical logs and identical headline stats.
func TestFastForwardFleetEquivalence(t *testing.T) {
	t.Run("least-loaded", func(t *testing.T) {
		for _, width := range poolWidths {
			fOff, sOff := runFleet(t, ffPoolConfig(width, true), denseStreams())
			fOn, sOn := runFleet(t, ffPoolConfig(width, false), denseStreams())
			if !bytes.Equal(fOff.LogBytes(), fOn.LogBytes()) {
				t.Fatalf("width=%d: fast-forward changed the log\n--- off ---\n%s\n--- on ---\n%s",
					width, fOff.LogBytes(), fOn.LogBytes())
			}
			if sOff.Completed != sOn.Completed || sOff.MeanTurnaround != sOn.MeanTurnaround ||
				sOff.Utilization != sOn.Utilization || sOff.LogRecords != sOn.LogRecords {
				t.Fatalf("width=%d: fast-forward changed stats: %+v vs %+v", width, sOff, sOn)
			}
			if sOff.TickReplays != 0 {
				t.Fatalf("width=%d: disabled fleet replayed %d ticks", width, sOff.TickReplays)
			}
			if sOn.TickReplays == 0 {
				t.Fatalf("width=%d: fast-forward never engaged (equivalence would be vacuous)", width)
			}
		}
	})
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
		warm := poolConfig(PolicyBWAP, AdmitMostFree, 1, 29)
		warm.Cache = cache
		warm.SimCfg.DisableFastForward = disable
		runFleet(t, warm, denseStreams())

		cfg := poolConfig(PolicyBWAP, AdmitMostFree, 4, 29)
		cfg.Cache = cache
		cfg.SimCfg.DisableFastForward = disable
		f, stats := runFleet(t, cfg, denseStreams())
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
