package core

import (
	"math"
	"testing"

	"bwap/internal/sim"
	"bwap/internal/topology"
	"bwap/internal/workload"
)

// runToCompletion executes a stand-alone app and returns it.
func runToCompletion(t *testing.T, m *topology.Machine, spec workload.Spec, placer sim.Placer) (*sim.Engine, *sim.App) {
	t.Helper()
	e := sim.New(m, sim.Config{Seed: 21})
	app, err := e.AddApp(spec.Name, spec, []topology.NodeID{0}, placer)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e, app
}

func TestMAPIClassifiesBenchmarksVsSwaptions(t *testing.T) {
	m := topology.MachineB()
	// A memory-hungry benchmark classifies as memory-intensive.
	sc := workload.Streamcluster.Scaled(0.02)
	_, app := runToCompletion(t, m, sc, StaticDWP{Uniform: true, DWP: 0, UserLevel: true})
	if !MemoryIntensive(app, 0) {
		t.Fatalf("SC misclassified: MAPI = %v", app.Counters.MAPI())
	}
	// Swaptions (compute-bound co-runner) does not. Run it as foreground
	// briefly by giving it work.
	sw := workload.Swaptions
	sw.ComputeBound = false
	sw.WorkGB = 2
	_, app2 := runToCompletion(t, m, sw, StaticDWP{Uniform: true, DWP: 1, UserLevel: true})
	if MemoryIntensive(app2, 0) {
		t.Fatalf("Swaptions misclassified: MAPI = %v", app2.Counters.MAPI())
	}
	// The two must be separated by a comfortable margin.
	if app.Counters.MAPI() < 10*app2.Counters.MAPI() {
		t.Fatalf("classification margin too thin: %v vs %v", app.Counters.MAPI(), app2.Counters.MAPI())
	}
}

func TestMemoryIntensiveNoHistory(t *testing.T) {
	m := topology.MachineB()
	e := sim.New(m, sim.Config{})
	app, err := e.AddApp("idle", workload.Streamcluster.Scaled(0.01), []topology.NodeID{0},
		StaticDWP{Uniform: true, DWP: 0, UserLevel: true})
	if err != nil {
		t.Fatal(err)
	}
	if MemoryIntensive(app, 0) {
		t.Fatal("app with no history classified as memory-intensive")
	}
}

func TestPhaseDetectorWaitsOutInitPhase(t *testing.T) {
	// A workload with a 3-second low-demand init phase: the detector must
	// fire only after the phase boundary, while the fixed BWAP-init time
	// (default 1 s) would have fired inside the init phase.
	m := topology.MachineB()
	spec := workload.Streamcluster.Scaled(0.05).WithInitPhase(3.0, 0.1)
	e := sim.New(m, sim.Config{Seed: 9})
	app, err := e.AddApp("sc", spec, []topology.NodeID{0}, StaticDWP{Uniform: true, DWP: 0, UserLevel: true})
	if err != nil {
		t.Fatal(err)
	}
	det := NewPhaseDetector(app)
	e.AddHook(observeHook{det: det, e: e})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !det.Stable() {
		t.Fatal("detector never fired")
	}
	if at := det.stableAt; at < 3.0 {
		t.Fatalf("detector fired at %v s, inside the init phase (ends at 3.0)", at)
	}
	if at := det.stableAt; at > 6.5 {
		t.Fatalf("detector too slow: fired at %v s", at)
	}
}

type observeHook struct {
	det *PhaseDetector
	e   *sim.Engine
}

func (h observeHook) Tick(e *sim.Engine) { h.det.Observe(e.Now()) }

func TestPhaseDetectorStableImmediatelyForSteadyApp(t *testing.T) {
	m := topology.MachineB()
	spec := workload.Streamcluster.Scaled(0.05)
	e := sim.New(m, sim.Config{Seed: 9})
	app, err := e.AddApp("sc", spec, []topology.NodeID{0}, StaticDWP{Uniform: true, DWP: 0, UserLevel: true})
	if err != nil {
		t.Fatal(err)
	}
	det := NewPhaseDetector(app)
	e.AddHook(observeHook{det: det, e: e})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !det.Stable() {
		t.Fatal("detector never fired on a steady app")
	}
	// Three windows of 0.5 s plus slack.
	if at := det.stableAt; at > 2.5 {
		t.Fatalf("steady app detected only at %v s", at)
	}
}

func TestBWAPAutoDetectStablePhase(t *testing.T) {
	// End to end: with AutoDetectStablePhase the tuner skips the noisy
	// init phase and still converges to high DWP for a latency-bound app.
	m := topology.MachineB()
	spec := latencyBoundSpec().WithInitPhase(2.0, 0.2)
	spec.WorkGB = 3000
	e := sim.New(m, sim.Config{Seed: 13})
	b := NewBWAPUniform()
	b.AutoDetectStablePhase = true
	if _, err := e.AddApp("lat", spec, []topology.NodeID{0}, b); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	tuner := b.TunerFor("lat")
	if err := tuner.Err(); err != nil {
		t.Fatal(err)
	}
	traj := tuner.Trajectory()
	if len(traj) == 0 {
		t.Fatal("tuner never started")
	}
	// No measurement may predate the init-phase boundary.
	if first := traj[0].Time; first < 2.0 {
		t.Fatalf("first measurement at %v s, inside init phase", first)
	}
	if got := tuner.AppliedDWP(); got < 0.9 {
		t.Fatalf("tuner did not converge after auto-detection: DWP %v", got)
	}
}

func TestMAPIMetricValue(t *testing.T) {
	// Unsaturated app: stall ~0, instructions ≈ cycles, so
	// MAPI ≈ bytes/64/cycles. 7 GB/s at 1e9 cycles/s = 7e9/64/1e9 ≈ 0.109.
	m := topology.MachineB()
	spec := workload.Spec{
		Name: "probe", ReadGBs: 7, WriteGBs: 0, PrivateFrac: 0,
		WorkGB: 30, SharedGB: 0.016,
	}
	_, app := runToCompletion(t, m, spec, StaticDWP{Uniform: true, DWP: 1, UserLevel: true})
	if got := app.Counters.MAPI(); math.Abs(got-0.109) > 0.02 {
		t.Fatalf("MAPI = %v, want ~0.109", got)
	}
}
