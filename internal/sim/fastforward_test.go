package sim_test

import (
	"math"
	"testing"

	"bwap/internal/perf"
	"bwap/internal/policy"
	"bwap/internal/sim"
	"bwap/internal/topology"
	"bwap/internal/workload"
)

// The fast-forward equivalence tests pin the tentpole acceptance
// criterion at the engine layer: with fast-forward on, every Result,
// counter and clock value must be byte-identical to the naive
// solve-every-tick loop, across phase changes, init bursts, co-scheduled
// contention, migration backlogs and hook-driven placement churn.

// ffScenario populates an engine with a workload mix; the same function
// runs once with fast-forward enabled and once disabled.
type ffScenario struct {
	name  string
	build func(t *testing.T, e *sim.Engine)
}

func ffSpec(workGB float64) workload.Spec {
	return workload.Spec{
		Name: "ff", ReadGBs: 7, WriteGBs: 1.5, PrivateFrac: 0.4,
		LatencySensitivity: 0.6, WorkGB: workGB,
		SharedGB: 0.016, PrivateGBPerNode: 0.016,
	}
}

func addApp(t *testing.T, e *sim.Engine, name string, spec workload.Spec, workers []topology.NodeID, p sim.Placer) *sim.App {
	t.Helper()
	app, err := e.AddApp(name, spec, workers, p)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func ffScenarios() []ffScenario {
	return []ffScenario{
		{"steady", func(t *testing.T, e *sim.Engine) {
			addApp(t, e, "a", ffSpec(40), []topology.NodeID{0, 1}, testPlacer{"uniform-workers"})
		}},
		{"init-burst", func(t *testing.T, e *sim.Engine) {
			spec := ffSpec(30).WithInitPhase(1.7, 0.5)
			addApp(t, e, "a", spec, []topology.NodeID{0}, testPlacer{"local"})
		}},
		{"phase-curve", func(t *testing.T, e *sim.Engine) {
			spec := ffSpec(35)
			spec.Phases = []workload.Phase{
				{AtWorkFraction: 0.25, DemandFactor: 1.6, LatencyFactor: 0.8},
				{AtWorkFraction: 0.7, DemandFactor: 0.5, LatencyFactor: 1.4},
			}
			addApp(t, e, "a", spec, []topology.NodeID{0, 1}, testPlacer{"uniform-all"})
		}},
		{"co-scheduled-background", func(t *testing.T, e *sim.Engine) {
			addApp(t, e, "fg", ffSpec(25), []topology.NodeID{0, 1}, testPlacer{"uniform-workers"})
			bg := ffSpec(0)
			bg.Name = "bg"
			bg.ComputeBound = true
			addApp(t, e, "bg", bg, []topology.NodeID{2, 3}, testPlacer{"local"})
		}},
		{"staggered-completions", func(t *testing.T, e *sim.Engine) {
			addApp(t, e, "short", ffSpec(12), []topology.NodeID{0}, testPlacer{"local"})
			long := ffSpec(45)
			long.Name = "long"
			addApp(t, e, "long", long, []topology.NodeID{2, 3}, testPlacer{"uniform-workers"})
		}},
		{"autonuma-churn", func(t *testing.T, e *sim.Engine) {
			// A per-tick hook that migrates pages: placement epochs must
			// invalidate the cached solve exactly when migrations land.
			addApp(t, e, "a", ffSpec(30), []topology.NodeID{0, 1}, &policy.AutoNUMA{})
		}},
	}
}

func runFF(t *testing.T, sc ffScenario, disable bool) (*sim.Result, *sim.Engine) {
	t.Helper()
	e := sim.New(topology.MachineB(), sim.Config{Seed: 7, DisableFastForward: disable})
	sc.build(t, e)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, e
}

// sameCounters fails unless the two apps' PMU state is bit-identical.
func sameCounters(t *testing.T, name string, a, b *perf.Counters) {
	t.Helper()
	if a.Time != b.Time || a.StalledCycles != b.StalledCycles || a.Cycles != b.Cycles ||
		a.Instructions != b.Instructions || a.BytesRead != b.BytesRead ||
		a.BytesWritten != b.BytesWritten || a.SharedBytes != b.SharedBytes ||
		a.PrivateBytes != b.PrivateBytes {
		t.Fatalf("%s: scalar counters diverge:\n%+v\n%+v", name, a, b)
	}
	for n := range a.NodeOutBytes {
		if a.NodeOutBytes[n] != b.NodeOutBytes[n] {
			t.Fatalf("%s: NodeOutBytes[%d] %v != %v", name, n, a.NodeOutBytes[n], b.NodeOutBytes[n])
		}
		for d := range a.PairBytes[n] {
			if a.PairBytes[n][d] != b.PairBytes[n][d] {
				t.Fatalf("%s: PairBytes[%d][%d] %v != %v", name, n, d, a.PairBytes[n][d], b.PairBytes[n][d])
			}
		}
	}
}

// TestFastForwardEquivalence pins byte-equality of the memoized tick loop
// against the naive reference across every scenario class the engine
// models.
func TestFastForwardEquivalence(t *testing.T) {
	for _, sc := range ffScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			on, onEng := runFF(t, sc, false)
			off, offEng := runFF(t, sc, true)

			if on.Elapsed != off.Elapsed || on.TimedOut != off.TimedOut {
				t.Fatalf("run shape diverges: %+v vs %+v", on, off)
			}
			for name, tOn := range on.Times {
				if tOff, ok := off.Times[name]; !ok || tOn != tOff {
					t.Fatalf("Times[%s]: %v (on) != %v (off)", name, tOn, tOff)
				}
			}
			for name, sOn := range on.AvgStallRate {
				if sOff := off.AvgStallRate[name]; sOn != sOff {
					t.Fatalf("AvgStallRate[%s]: %v (on) != %v (off)", name, sOn, sOff)
				}
			}
			if onEng.Now() != offEng.Now() || onEng.Ticks() != offEng.Ticks() {
				t.Fatalf("clock diverges: %v/%d vs %v/%d",
					onEng.Now(), onEng.Ticks(), offEng.Now(), offEng.Ticks())
			}
			for i, appOn := range onEng.Apps() {
				appOff := offEng.Apps()[i]
				if appOn.Progress() != appOff.Progress() {
					t.Fatalf("%s: progress %v != %v", appOn.Name, appOn.Progress(), appOff.Progress())
				}
				sameCounters(t, appOn.Name, appOn.Counters, appOff.Counters)
			}
			if _, replays := offEng.FastForwardStats(); replays != 0 {
				t.Fatalf("disabled engine replayed %d ticks", replays)
			}
		})
	}
}

// TestFastForwardEngages guards the equivalence suite against passing
// vacuously: once the latency feedback reaches its floating-point fixed
// point (a few dozen ticks), a long quiescent run must replay the
// overwhelming majority of its ticks.
func TestFastForwardEngages(t *testing.T) {
	sc := ffScenario{"long-steady", func(t *testing.T, e *sim.Engine) {
		addApp(t, e, "a", ffSpec(2000), []topology.NodeID{0, 1}, testPlacer{"uniform-workers"})
	}}
	_, eng := runFF(t, sc, false)
	solves, replays := eng.FastForwardStats()
	if replays == 0 {
		t.Fatal("fast-forward never engaged")
	}
	if solves > eng.Ticks()/10 {
		t.Fatalf("only %d of %d ticks replayed (%d solves) on a quiescent run",
			replays, eng.Ticks(), solves)
	}
}

// TestAdvanceToFastForwardMatchesNaive drives two engines through the
// same uneven advance schedule — one on the naive solve-every-tick loop,
// one greedily replaying memoized stretches — and demands identical
// clocks, progress and completion times.
func TestAdvanceToFastForwardMatchesNaive(t *testing.T) {
	build := func(disable bool) (*sim.Engine, *sim.App) {
		e := sim.New(topology.MachineB(), sim.Config{Seed: 3, DisableFastForward: disable})
		app := addApp(t, e, "a", ffSpec(40).WithInitPhase(1.1, 0.6), []topology.NodeID{0, 1},
			testPlacer{"uniform-workers"})
		if err := e.PlaceApp(app); err != nil {
			t.Fatal(err)
		}
		return e, app
	}
	ref, refApp := build(true)
	fast, fastApp := build(false)
	for _, target := range []float64{0.5, 1.05, 2.0, 7.33, 30, 200} {
		ref.AdvanceTo(target)
		fast.AdvanceTo(target)
		if ref.Now() != fast.Now() || ref.Ticks() != fast.Ticks() {
			t.Fatalf("at target %v: clock %v/%d vs %v/%d",
				target, ref.Now(), ref.Ticks(), fast.Now(), fast.Ticks())
		}
		if refApp.Progress() != fastApp.Progress() {
			t.Fatalf("at target %v: progress %v vs %v", target, refApp.Progress(), fastApp.Progress())
		}
	}
	if !refApp.Done() || !fastApp.Done() {
		t.Fatal("apps did not finish")
	}
	if refApp.FinishTime() != fastApp.FinishTime() {
		t.Fatalf("finish %v vs %v", refApp.FinishTime(), fastApp.FinishTime())
	}
	if _, replays := ref.FastForwardStats(); replays != 0 {
		t.Fatalf("naive engine replayed %d ticks", replays)
	}
	if _, replays := fast.FastForwardStats(); replays == 0 {
		t.Fatal("AdvanceTo never replayed")
	}
	sameCounters(t, "a", refApp.Counters, fastApp.Counters)
}

// TestAdvanceToIntegerTicks pins the float-drift fix: the tick count of a
// long advance must equal the drift-free count computed from (t-now)/DT,
// and chunked advances must land on the same total as one big advance.
func TestAdvanceToIntegerTicks(t *testing.T) {
	e := sim.New(topology.MachineB(), sim.Config{})
	app := addApp(t, e, "a", ffSpec(0.001), []topology.NodeID{0}, testPlacer{"local"})
	if err := e.PlaceApp(app); err != nil {
		t.Fatal(err)
	}
	const target = 5000.0
	e.AdvanceTo(target)
	if want := int(math.Round(target / 0.1)); e.Ticks() != want {
		t.Fatalf("AdvanceTo(%v) ran %d ticks, want %d", target, e.Ticks(), want)
	}

	chunked := sim.New(topology.MachineB(), sim.Config{})
	app2 := addApp(t, chunked, "a", ffSpec(0.001), []topology.NodeID{0}, testPlacer{"local"})
	if err := chunked.PlaceApp(app2); err != nil {
		t.Fatal(err)
	}
	for at := 0.7; at < target; at += 13.7 {
		chunked.AdvanceTo(at)
	}
	chunked.AdvanceTo(target)
	if chunked.Ticks() != e.Ticks() {
		t.Fatalf("chunked advance ran %d ticks, single advance %d", chunked.Ticks(), e.Ticks())
	}
}
