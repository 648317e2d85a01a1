package sim_test

import (
	"math"
	"testing"

	"bwap/internal/policy"
	"bwap/internal/sim"
	"bwap/internal/topology"
	"bwap/internal/workload"
)

// TestCompletionHorizonNeverContainsACompletion pins the conservative-
// lookahead bound the fleet engine is built on: ticks inside a
// predicted horizon must not complete any app, under full Step dynamics —
// phase curves, init bursts, co-runners, migration backlogs — and with
// fast-forward both on and off. The horizon needs no quiescence, so it is
// re-queried after every window and must also make progress (the run may
// not be starved by an always-zero horizon).
func TestCompletionHorizonNeverContainsACompletion(t *testing.T) {
	for _, sc := range ffScenarios() {
		if sc.name == "autonuma-churn" {
			continue // hook-driven; covered by TestCompletionHorizonZeroWithHooks
		}
		for _, disable := range []bool{false, true} {
			e := sim.New(topology.MachineB(), sim.Config{Seed: 7, DisableFastForward: disable})
			sc.build(t, e)
			var apps []*sim.App
			for _, app := range e.Apps() {
				if err := e.PlaceApp(app); err != nil {
					t.Fatal(err)
				}
				if !app.Background {
					apps = append(apps, app)
				}
			}
			if len(apps) == 0 {
				t.Fatalf("%s: no foreground apps found", sc.name)
			}
			doneCount := func() int {
				n := 0
				for _, a := range apps {
					if a.Done() {
						n++
					}
				}
				return n
			}
			horizonSum, windows := 0, 0
			for tick := 0; doneCount() < len(apps); {
				if tick > 1_000_000 {
					t.Fatalf("%s: run did not finish within 1M ticks", sc.name)
				}
				h := e.CompletionHorizonTicks(1 << 20)
				before := doneCount()
				for i := 0; i < h; i++ {
					e.Step()
					tick++
					if got := doneCount(); got != before {
						t.Fatalf("%s (disableFF=%v): app completed %d ticks into a %d-tick horizon",
							sc.name, disable, i+1, h)
					}
				}
				horizonSum += h
				windows++
				// One unguarded tick past the horizon keeps the loop moving
				// even when a completion is imminent (h == 0).
				e.Step()
				tick++
			}
			if horizonSum == 0 {
				t.Fatalf("%s (disableFF=%v): horizon never exceeded zero; the bound is vacuous", sc.name, disable)
			}
		}
	}
}

// TestCompletionHorizonPhaseAware pins the sharpening of the per-phase
// completion bound: demand peaks the app has already moved past — an
// expired init burst, an early high-demand phase — must no longer shrink
// the horizon. The old bound majorized by the lifetime peak, so an app
// that burned 3× demand in its first 5% of work kept a 3×-too-small
// horizon for the remaining 95%. Each pair advances a phased/bursty app
// and a plain one to the same progress point, where both provably face
// only factor-1 demand until completion; the horizons must then agree to
// well within the old peak factor.
func TestCompletionHorizonPhaseAware(t *testing.T) {
	horizonAt := func(spec workload.Spec, minFrac, minNow float64) int {
		e := sim.New(topology.MachineB(), sim.Config{Seed: 7})
		app := addApp(t, e, "a", spec, []topology.NodeID{0, 1}, testPlacer{"uniform-workers"})
		if err := e.PlaceApp(app); err != nil {
			t.Fatal(err)
		}
		for app.Progress()/spec.WorkGB < minFrac || e.Now() < minNow {
			if app.Done() {
				t.Fatalf("%s finished before reaching the probe point", spec.Name)
			}
			e.Step()
		}
		return e.CompletionHorizonTicks(1 << 20)
	}

	plain := horizonAt(ffSpec(40), 0.1, 0)
	if plain == 0 {
		t.Fatal("plain horizon is zero; the comparison is vacuous")
	}

	phased := ffSpec(40)
	phased.Name = "early-peak"
	phased.Phases = []workload.Phase{
		{AtWorkFraction: 0.02, DemandFactor: 3, LatencyFactor: 1},
		{AtWorkFraction: 0.08, DemandFactor: 1, LatencyFactor: 1},
	}
	if h := horizonAt(phased, 0.1, 0); h < plain/2 {
		t.Errorf("passed 3x phase still shrinks the horizon: %d vs plain %d", h, plain)
	}

	bursty := ffSpec(40)
	bursty.Name = "init-burst"
	bursty.InitSeconds = 0.5
	bursty.InitDemandFactor = 5
	if h := horizonAt(bursty, 0.1, 1.0); h < plain/2 {
		t.Errorf("expired init burst still shrinks the horizon: %d vs plain %d", h, plain)
	}
}

// TestCompletionHorizonZeroWithHooks: hooks may mutate placement (and in
// principle progress) mid-window, so the horizon must refuse to predict.
func TestCompletionHorizonZeroWithHooks(t *testing.T) {
	e := sim.New(topology.MachineB(), sim.Config{Seed: 7})
	app := addApp(t, e, "a", ffSpec(30), []topology.NodeID{0, 1}, &policy.AutoNUMA{})
	e.AddAppHook(app, &policy.AutoNUMA{})
	if h := e.CompletionHorizonTicks(100); h != 0 {
		t.Fatalf("horizon %d with hooks registered, want 0", h)
	}
}

// TestSnapLatFeedbackConvergence pins the fleet bit-compat break's two
// claims: with SnapLatFeedback the engine replays strictly more ticks on
// a perturbed workload (the sub-ULP latEpoch churn is gone), and the
// simulated outcome moves by at most a hair — the multipliers freeze
// within 64 ULPs of the exact fixed point, so completion times shift at
// most in the last couple of float digits.
func TestSnapLatFeedbackConvergence(t *testing.T) {
	run := func(snap bool) (*sim.Result, *sim.Engine) {
		e := sim.New(topology.MachineB(), sim.Config{Seed: 7, SnapLatFeedback: snap})
		spec := ffSpec(200) // long enough for the feedback to converge at all
		spec.Phases = []workload.Phase{
			{AtWorkFraction: 0.25, DemandFactor: 1.6, LatencyFactor: 0.8},
			{AtWorkFraction: 0.7, DemandFactor: 0.5, LatencyFactor: 1.4},
		}
		addApp(t, e, "a", spec, []topology.NodeID{0, 1}, testPlacer{"uniform-workers"})
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, e
	}
	base, be := run(false)
	snap, se := run(true)
	_, baseReplays := be.FastForwardStats()
	_, snapReplays := se.FastForwardStats()
	if snapReplays <= baseReplays {
		t.Fatalf("snap replays %d ticks, base %d — the snap bought nothing", snapReplays, baseReplays)
	}
	bt, st := base.Times["a"], snap.Times["a"]
	if math.Abs(bt-st) > 1e-6*bt {
		t.Fatalf("snap moved the completion time materially: %.12g vs %.12g", bt, st)
	}
	t.Logf("replays %d -> %d, finish %.9g -> %.9g", baseReplays, snapReplays, bt, st)
}
