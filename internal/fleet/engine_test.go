package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"bwap/internal/workload"
)

// TestEngineReplayShardWorkerEquivalence is the determinism contract
// under the bwap policy with cold private caches: the (t, kind, seq) log
// is bit-identical at every tick-pool width, even though machines
// free-run through multi-tick windows between barriers.
func TestEngineReplayShardWorkerEquivalence(t *testing.T) {
	for _, admission := range []string{AdmitMostFree, AdmitBestBandwidth, AdmitAntiAffinity} {
		var base []byte
		for _, width := range poolWidths {
			f, stats := runFleet(t, poolConfig(PolicyBWAP, admission, width, 7), denseStreams())
			if stats.Completed != stats.Jobs {
				t.Fatalf("%s width=%d: %d of %d jobs completed", admission, width, stats.Completed, stats.Jobs)
			}
			if base == nil {
				base = f.LogBytes()
				continue
			}
			if !bytes.Equal(base, f.LogBytes()) {
				t.Fatalf("%s: log differs at width=%d", admission, width)
			}
		}
	}
}

// TestEngineReplaysMoreTicks pins the point of the latency-feedback snap
// and the windowed advance: on the dense stream the engines replay
// most of their ticks instead of chasing sub-ULP feedback drift after
// every perturbation (latEpoch churn blocks the replay path).
func TestEngineReplaysMoreTicks(t *testing.T) {
	_, stats := runFleet(t, poolConfig(PolicyBWAP, AdmitMostFree, 2, 7), denseStreams())
	total := stats.TickSolves + stats.TickReplays
	if total == 0 {
		t.Fatal("no ticks ran")
	}
	// The dense stream measures ~0.678; the gate sits at the honest floor
	// with a small margin so a regression that costs more than a few
	// points of replay share fails loudly.
	fraction := float64(stats.TickReplays) / float64(total)
	if fraction < 0.6 {
		t.Fatalf("engines replay %.1f%% of ticks on the dense stream, want > 60%%", 100*fraction)
	}
	if stats.Completed != stats.Jobs {
		t.Fatalf("run completed %d of %d jobs", stats.Completed, stats.Jobs)
	}
	// Memo hits are solves answered without filling: a subset of them.
	if stats.TickMemoHits <= 0 || stats.TickMemoHits > stats.TickSolves {
		t.Fatalf("%d memo hits for %d tick solves, want a non-empty subset", stats.TickMemoHits, stats.TickSolves)
	}
	t.Logf("replay fraction %.3f, memo hits %d of %d solves", fraction, stats.TickMemoHits, stats.TickSolves)
}

// TestEnginePhaseAwareHorizon pins the fleet-visible effect of the
// per-phase completion bound (sim.appCompletionHorizon): a demand peak
// the workload has already passed must stop haunting the free-run
// windows. Two streams differ only in where a 3× demand phase sits — at
// 5% of the work (passed almost immediately, factor 1 thereafter) or at
// 90% (genuinely gating completion). A lifetime-peak-majorized horizon
// sizes both runs' windows by the same factor 3; the per-phase bound
// gives the early-peak run factor-1 windows for the ~95% of its life
// after the boundary, which shows up as a strictly larger mean advance
// window (AdvanceTicks/AdvanceBatches) than the late-peak run, whose
// short windows near the end are honest.
func TestEnginePhaseAwareHorizon(t *testing.T) {
	meanWindow := func(phases []workload.Phase) float64 {
		spec := testSpec("phased")
		spec.Phases = phases
		// Sparse arrivals: with few scheduled events on the heap, the
		// completion horizon is what actually bounds the free-run windows.
		streams := []StreamSpec{{
			Workload: spec,
			Arrival:  workload.ArrivalSpec{Process: workload.Periodic, Rate: 0.2, Count: 3},
			Workers:  2, WorkScale: 0.1,
		}}
		_, stats := runFleet(t, poolConfig(PolicyBWAP, AdmitMostFree, 2, 7), streams)
		if stats.Completed != stats.Jobs {
			t.Fatalf("phases %v: %d of %d jobs completed", phases, stats.Completed, stats.Jobs)
		}
		if stats.AdvanceBatches == 0 {
			t.Fatal("no advance batches recorded")
		}
		return float64(stats.AdvanceTicks) / float64(stats.AdvanceBatches)
	}
	late := meanWindow([]workload.Phase{
		{AtWorkFraction: 0.9, DemandFactor: 3, LatencyFactor: 1},
	})
	early := meanWindow([]workload.Phase{
		{AtWorkFraction: 0.05, DemandFactor: 3, LatencyFactor: 1},
		{AtWorkFraction: 0.15, DemandFactor: 1, LatencyFactor: 1},
	})
	t.Logf("mean advance window: early-peak %.1f ticks, late-peak %.1f ticks", early, late)
	if early <= late {
		t.Fatalf("early-peak mean window %.1f not above late-peak %.1f; a passed peak still haunts the horizon", early, late)
	}
}

// TestEngineLogFrozen pins the engine's bytes: the log for a fixed chaos
// config and stream is frozen across changes, so any drift in the
// simulated semantics — however the advance machinery evolves — fails
// loudly rather than silently moving the reference. The same bytes come
// out at every pool width, each with fast-forward on and off (the naive
// solve-every-tick loop is the reference the replay path must match).
func TestEngineLogFrozen(t *testing.T) {
	const want = "5b3684cc48ddc2c5f0d5c5b3e627310c0ba9b38068b09f56faa4dadfe2c75c35"
	for _, width := range poolWidths {
		for _, disableFF := range []bool{false, true} {
			f, _ := runFleet(t, chaosPoolConfig(width, disableFF), denseStreams())
			sum := sha256.Sum256(f.LogBytes())
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Fatalf("width=%d disableFF=%v: reference log hash drifted:\n got %s\nwant %s",
					width, disableFF, got, want)
			}
		}
	}
}
