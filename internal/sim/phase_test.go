package sim

import (
	"math"
	"testing"

	"bwap/internal/topology"
	"bwap/internal/workload"
)

// TestReplayStopsAtPhaseAtCrossing pins the replay loop's phase-boundary
// test to PhaseAt's own expression. For the progress p, work volume w and
// threshold f below, p/w >= f holds (PhaseAt has switched phase) while
// p >= f·w does not, so a boundary test on the product would let a replay
// batch run the next tick on the previous phase's demand.
func TestReplayStopsAtPhaseAtCrossing(t *testing.T) {
	// Variables, not constants: constant arithmetic is exact, and the
	// split only shows in float64.
	var (
		p = 0.4139329741715685
		w = 1.3797765805718951
		f = 0.3
	)
	if p >= f*w || !(p/w >= f) {
		t.Fatalf("the triple no longer splits the two tests: p >= f*w is %v, p/w >= f is %v", p >= f*w, p/w >= f)
	}
	spec := workload.Spec{
		Name: "phased", ReadGBs: 0.05, WorkGB: w, SharedGB: 0.016,
		Phases: []workload.Phase{{AtWorkFraction: f, DemandFactor: 2, LatencyFactor: 1}},
	}
	// No latency feedback: the multipliers sit at their fixed point from
	// the first tick, so the cached solve replays right away.
	e := New(topology.MachineB(), Config{LatQueueFactor: FloatPtr(0)})
	app, err := e.AddApp("a", spec, []topology.NodeID{0}, uniformAllPlacer{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.PlaceApp(app); err != nil {
		t.Fatal(err)
	}
	e.Step()                   // caches the first phase's solve
	delta := app.progressGB[0] // one tick of progress at the cached rates

	// Rewind progress to the value from which one replayed tick lands
	// exactly on p.
	before := p - delta
	for i := 0; i < 64 && before+delta != p; i++ {
		if before+delta < p {
			before = math.Nextafter(before, math.Inf(1))
		} else {
			before = math.Nextafter(before, 0)
		}
	}
	if before+delta != p {
		t.Fatalf("no start value lands on p = %v with delta %v", p, delta)
	}
	if d, _ := spec.PhaseAt(before / w); d != 1 {
		t.Fatalf("start progress %v is already past the threshold", before)
	}
	app.progressGB[0] = before

	if n := e.ReplayTicks(10); n != 1 {
		t.Fatalf("replay ran %d ticks from progress %v, want 1: the crossing to %v went unnoticed", n, before, p)
	}
	if app.Progress() != p {
		t.Fatalf("replayed tick reached progress %v, want %v", app.Progress(), p)
	}
}
