package policy_test

import (
	"math"
	"testing"

	"bwap/internal/policy"
	"bwap/internal/sim"
	"bwap/internal/topology"
	"bwap/internal/workload"
)

func testSpec() workload.Spec {
	return workload.Spec{
		Name: "t", ReadGBs: 8, WriteGBs: 2, PrivateFrac: 0.5,
		WorkGB: 20, SharedGB: 0.016, PrivateGBPerNode: 0.008,
	}
}

func newApp(t *testing.T, m *topology.Machine, p sim.Placer, workers ...topology.NodeID) (*sim.Engine, *sim.App) {
	t.Helper()
	e := sim.New(m, sim.Config{})
	app, err := e.AddApp("t", testSpec(), workers, p)
	if err != nil {
		t.Fatal(err)
	}
	return e, app
}

func place(t *testing.T, e *sim.Engine, app *sim.App) {
	t.Helper()
	if err := app.Placer().Place(e, app); err != nil {
		t.Fatal(err)
	}
}

func TestFirstTouchCentralizesShared(t *testing.T) {
	m := topology.MachineB()
	e, app := newApp(t, m, policy.FirstTouch{}, 1, 2)
	place(t, e, app)
	// Shared pages all on the initializing worker (first worker = node 1).
	fr := app.SharedSegment().Fractions()
	if fr[1] != 1 {
		t.Fatalf("shared fractions = %v, want all on node 1", fr)
	}
	// Private pages on their owners.
	if got := app.PrivateSegment(2).Fractions()[2]; got != 1 {
		t.Fatalf("private(2) fraction = %v, want 1", got)
	}
}

func TestUniformWorkersInterleavesOverWorkers(t *testing.T) {
	m := topology.MachineB()
	e, app := newApp(t, m, policy.UniformWorkers{}, 0, 2)
	place(t, e, app)
	fr := app.SharedSegment().Fractions()
	if math.Abs(fr[0]-0.5) > 0.01 || math.Abs(fr[2]-0.5) > 0.01 {
		t.Fatalf("fractions = %v, want 0.5/0.5 on workers", fr)
	}
	if fr[1] != 0 || fr[3] != 0 {
		t.Fatalf("non-workers received pages: %v", fr)
	}
	// Private segments are interleaved too (the uniform-workers strategy
	// applies to the whole address space).
	pf := app.PrivateSegment(0).Fractions()
	if math.Abs(pf[0]-0.5) > 0.01 || math.Abs(pf[2]-0.5) > 0.01 {
		t.Fatalf("private fractions = %v", pf)
	}
}

func TestUniformAllUsesEveryNode(t *testing.T) {
	m := topology.MachineA()
	e, app := newApp(t, m, policy.UniformAll{}, 0)
	place(t, e, app)
	fr := app.SharedSegment().Fractions()
	for n, f := range fr {
		if math.Abs(f-0.125) > 0.01 {
			t.Fatalf("fraction[%d] = %v, want 0.125", n, f)
		}
	}
}

func TestStaticWeighted(t *testing.T) {
	m := topology.MachineB()
	w := []float64{0.4, 0.3, 0.2, 0.1}
	e, app := newApp(t, m, policy.StaticWeighted{Weights: w}, 0)
	place(t, e, app)
	fr := app.SharedSegment().Fractions()
	for n := range w {
		if math.Abs(fr[n]-w[n]) > 0.02 {
			t.Fatalf("fraction[%d] = %v, want %v", n, fr[n], w[n])
		}
	}
}

func TestStaticWeightedWrongLength(t *testing.T) {
	m := topology.MachineB()
	e, app := newApp(t, m, policy.StaticWeighted{Weights: []float64{1}}, 0)
	if err := app.Placer().Place(e, app); err == nil {
		t.Fatal("wrong-length weights accepted")
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[string]sim.Placer{
		"first-touch":     policy.FirstTouch{},
		"uniform-workers": policy.UniformWorkers{},
		"uniform-all":     policy.UniformAll{},
		"autonuma":        &policy.AutoNUMA{},
		"static-weighted": policy.StaticWeighted{},
	}
	for want, p := range names {
		if got := p.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
	if got := (policy.StaticWeighted{Label: "x"}).Name(); got != "x" {
		t.Errorf("label override broken: %q", got)
	}
}

func TestAutoNUMAMigratesPrivateToOwner(t *testing.T) {
	m := topology.MachineB()
	an := &policy.AutoNUMA{RateGBs: 100} // generous budget: converge fast
	e := sim.New(m, sim.Config{})
	spec := testSpec()
	spec.WorkGB = 200
	app, err := e.AddApp("t", spec, []topology.NodeID{1, 2}, an)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Private pages of node 2's threads must end up on node 2 (they start
	// there under first-touch and must stay).
	if got := app.PrivateSegment(2).Fractions()[2]; got < 0.95 {
		t.Fatalf("private(2) local fraction = %v, want ~1", got)
	}
}

func TestAutoNUMASpreadsSharedAcrossWorkersOnly(t *testing.T) {
	m := topology.MachineB()
	an := &policy.AutoNUMA{RateGBs: 100}
	e := sim.New(m, sim.Config{})
	spec := testSpec()
	spec.WorkGB = 400
	app, err := e.AddApp("t", spec, []topology.NodeID{1, 2}, an)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	fr := app.SharedSegment().Fractions()
	// Shared pages spread over the worker set (locality balancing), not
	// beyond it.
	if fr[0] > 0.01 || fr[3] > 0.01 {
		t.Fatalf("autonuma placed shared pages outside workers: %v", fr)
	}
	if fr[1] < 0.25 || fr[2] < 0.25 {
		t.Fatalf("autonuma did not balance across workers: %v", fr)
	}
}

func TestAutoNUMAKeepsMigrating(t *testing.T) {
	// The ping-pong on uniformly shared pages must cost migration traffic
	// continuously (bandwidth-oblivious balancing is not free).
	m := topology.MachineB()
	an := &policy.AutoNUMA{}
	e := sim.New(m, sim.Config{})
	spec := testSpec()
	spec.WorkGB = 300
	app, err := e.AddApp("t", spec, []topology.NodeID{1, 2}, an)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if app.AS.TotalMigratedBytes() == 0 {
		t.Fatal("autonuma performed no migrations at all")
	}
}

func TestAutoNUMAHandlesMultipleApps(t *testing.T) {
	m := topology.MachineB()
	an := &policy.AutoNUMA{}
	e := sim.New(m, sim.Config{})
	if _, err := e.AddApp("a", testSpec(), []topology.NodeID{0}, an); err != nil {
		t.Fatal(err)
	}
	spec2 := testSpec()
	if _, err := e.AddApp("b", spec2, []topology.NodeID{2}, an); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
