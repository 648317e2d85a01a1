package sim

import (
	"testing"

	"bwap/internal/mm"
	"bwap/internal/topology"
	"bwap/internal/workload"
)

// uniformAllPlacer is a minimal in-package placer for the alloc tests.
type uniformAllPlacer struct{}

func (uniformAllPlacer) Name() string { return "uniform-all" }

func (uniformAllPlacer) Place(e *Engine, a *App) error {
	all := make([]topology.NodeID, e.M.NumNodes())
	for i := range all {
		all[i] = topology.NodeID(i)
	}
	for _, seg := range a.AS.Segments() {
		if err := seg.Mbind(0, seg.Length(), all, mm.MoveFlag); err != nil {
			return err
		}
	}
	return nil
}

// newSteadyEngine builds a placed, prepared engine whose app never
// finishes, so ticks can be driven directly.
func newSteadyEngine(t testing.TB) *Engine {
	t.Helper()
	m := topology.MachineA()
	spec := workload.OceanCP
	spec.WorkGB = 1e12 // steady state: bounded only by MaxTime, never reached here
	e := New(m, Config{MaxTime: 1e9, DemandFactor: 1.3})
	if _, err := e.AddApp("oc", spec, []topology.NodeID{0, 1, 2, 3}, uniformAllPlacer{}); err != nil {
		t.Fatal(err)
	}
	if err := e.place(); err != nil {
		t.Fatal(err)
	}
	e.prepare()
	return e
}

// TestTickAllocationFree pins the tentpole property: after warm-up, the
// steady-state tick loop performs no heap allocation at all — flows, flow
// metadata, solver scratch, placement fractions and per-app attribution
// all live in reused buffers.
func TestTickAllocationFree(t *testing.T) {
	e := newSteadyEngine(t)
	for i := 0; i < 5; i++ {
		e.tick() // warm buffer capacities
	}
	avg := testing.AllocsPerRun(200, e.tick)
	if avg != 0 {
		t.Fatalf("steady-state tick allocates %.2f objects/op, want 0", avg)
	}
}

// TestTickAllocationFreeCoScheduled repeats the check with two apps
// sharing the machine, the configuration every co-scheduled experiment
// cell runs.
func TestTickAllocationFreeCoScheduled(t *testing.T) {
	m := topology.MachineA()
	spec := workload.OceanCP
	spec.WorkGB = 1e12
	bg := workload.Swaptions
	e := New(m, Config{MaxTime: 1e9, DemandFactor: 1.3})
	if _, err := e.AddApp("oc", spec, []topology.NodeID{0, 1}, uniformAllPlacer{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddApp("bg", bg, []topology.NodeID{2, 3}, uniformAllPlacer{}); err != nil {
		t.Fatal(err)
	}
	if err := e.place(); err != nil {
		t.Fatal(err)
	}
	e.prepare()
	for i := 0; i < 5; i++ {
		e.tick()
	}
	avg := testing.AllocsPerRun(200, e.tick)
	if avg != 0 {
		t.Fatalf("co-scheduled steady-state tick allocates %.2f objects/op, want 0", avg)
	}
}

// TestReplayAllocationFree pins the fast-forward acceptance criterion on
// allocations: the memoized replay inner loop — both the checked per-tick
// path and the unchecked ReplayTicks batch — performs zero heap
// allocations, and the ticks measured really are replays, not solves.
func TestReplayAllocationFree(t *testing.T) {
	e := newSteadyEngine(t)
	// Tick until the latency feedback reaches its fixed point and the
	// engine goes quiescent.
	for i := 0; i < 500; i++ {
		e.tick()
	}
	if !e.canReplay() {
		t.Fatal("engine did not reach quiescence after 500 ticks")
	}
	_, before := e.FastForwardStats()
	if avg := testing.AllocsPerRun(200, e.tick); avg != 0 {
		t.Fatalf("replayed tick allocates %.2f objects/op, want 0", avg)
	}
	_, after := e.FastForwardStats()
	if after-before < 200 {
		t.Fatalf("only %d of 200+ measured ticks were replays", after-before)
	}
	if avg := testing.AllocsPerRun(50, func() { e.ReplayTicks(20) }); avg != 0 {
		t.Fatalf("ReplayTicks batch allocates %.2f objects/op, want 0", avg)
	}
}

// BenchmarkSteadyTick measures one steady-state tick in isolation (the
// root BenchmarkEngineTickThroughput includes engine construction and
// placement; this one is the pure loop).
func BenchmarkSteadyTick(b *testing.B) {
	e := newSteadyEngine(b)
	e.tick()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.tick()
	}
}
