package core

import (
	"math"
	"testing"

	"bwap/internal/sim"
	"bwap/internal/stats"
	"bwap/internal/topology"
	"bwap/internal/workload"
)

// latencyBoundSpec has demand far below any controller: locality always
// wins, so the DWP tuner must climb all the way to 1.
func latencyBoundSpec() workload.Spec {
	return workload.Spec{
		Name: "latbound", ReadGBs: 6, WriteGBs: 0, PrivateFrac: 0,
		LatencySensitivity: 1.0, WorkGB: 4000,
		SharedGB: 0.032, PrivateGBPerNode: 0.004,
	}
}

// bwBoundSpec saturates everything: spreading always wins, so the tuner
// must stop immediately (within one step of 0).
func bwBoundSpec() workload.Spec {
	return workload.Spec{
		Name: "bwbound", ReadGBs: 120, WriteGBs: 0, PrivateFrac: 0,
		LatencySensitivity: 0.0, WorkGB: 8000,
		SharedGB: 0.032, PrivateGBPerNode: 0.004,
	}
}

func TestCanonicalTunerSymmetricMachineIsUniform(t *testing.T) {
	m := topology.Symmetric(4, 4, 20, 10)
	ct := NewCanonicalTuner(m, sim.Config{})
	w, err := ct.Weights([]topology.NodeID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(stats.Sum(w)-1) > 1e-9 {
		t.Fatalf("weights sum %v", stats.Sum(w))
	}
	// On a symmetric machine every non-worker node must weigh the same,
	// and both workers the same.
	if math.Abs(w[2]-w[3]) > 0.01 || math.Abs(w[0]-w[1]) > 0.01 {
		t.Fatalf("asymmetric weights on symmetric machine: %v", w)
	}
}

func TestCanonicalTunerMachineAIsAsymmetric(t *testing.T) {
	m := topology.MachineA()
	ct := NewCanonicalTuner(m, sim.Config{})
	w, err := ct.Weights([]topology.NodeID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(stats.Sum(w)-1) > 1e-9 {
		t.Fatalf("weights sum %v", stats.Sum(w))
	}
	// Observation 2: weights must be visibly uneven.
	if stats.CV(w) < 0.15 {
		t.Fatalf("canonical weights suspiciously uniform on Machine A: %v (CV=%.3f)", w, stats.CV(w))
	}
	// Nodes 5 and 7 have the weakest min paths to workers {0,1}
	// (1.8 GB/s); they must get less weight than the workers themselves.
	if w[5] >= w[0] || w[7] >= w[1] {
		t.Fatalf("weak nodes out-weigh workers: %v", w)
	}
	for i, wi := range w {
		if wi <= 0 {
			t.Fatalf("node %d got zero weight: %v (all nodes should contribute, Observation 1)", i, w)
		}
	}
}

func TestCanonicalTunerCaches(t *testing.T) {
	m := topology.MachineB()
	ct := NewCanonicalTuner(m, sim.Config{})
	w1, err := ct.Weights([]topology.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := ct.Weights([]topology.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatal("cache returned different weights")
		}
	}
	for _, ws := range [][]topology.NodeID{{0}, {0, 1}} {
		if _, err := ct.Weights(ws); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCanonicalTunerEmptyWorkers(t *testing.T) {
	ct := NewCanonicalTuner(topology.MachineB(), sim.Config{})
	if _, err := ct.Weights(nil); err == nil {
		t.Fatal("empty worker set accepted")
	}
}

func TestDWPTunerClimbsToOneForLatencyBoundApp(t *testing.T) {
	m := topology.MachineB()
	e := sim.New(m, sim.Config{Seed: 3})
	b := NewBWAPUniform()
	app, err := e.AddApp("lat", latencyBoundSpec(), []topology.NodeID{0}, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	tuner := b.TunerFor("lat")
	if tuner == nil {
		t.Fatal("no tuner registered")
	}
	if err := tuner.Err(); err != nil {
		t.Fatal(err)
	}
	if got := tuner.AppliedDWP(); got < 0.95 {
		t.Fatalf("applied DWP = %v, want 1 (locality always wins here); trajectory %v",
			got, tuner.Trajectory())
	}
	// Everything must have migrated onto the worker.
	if fr := app.SharedSegment().Fractions()[0]; fr < 0.95 {
		t.Fatalf("worker share = %v after DWP=1", fr)
	}
}

func TestDWPTunerStaysLowForBWBoundApp(t *testing.T) {
	m := topology.MachineA()
	e := sim.New(m, sim.Config{Seed: 4})
	b := NewBWAPUniform()
	if _, err := e.AddApp("bw", bwBoundSpec(), []topology.NodeID{0, 1}, b); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	tuner := b.TunerFor("bw")
	if err := tuner.Err(); err != nil {
		t.Fatal(err)
	}
	if got := tuner.AppliedDWP(); got > 0.21 {
		t.Fatalf("applied DWP = %v, want <= 0.2 (spreading always wins)", got)
	}
	if got := tuner.BestDWP(); got > 0.11 {
		t.Fatalf("best DWP = %v, want ~0", got)
	}
}

func TestDWPTunerWithinOneStepOfStaticOptimum(t *testing.T) {
	// The accuracy claim of Section IV-B: the on-line search lands within
	// one step of the best static DWP. Use the SC model on Machine A.
	m := topology.MachineA()
	cfg := sim.Config{Seed: 9}
	ct := NewCanonicalTuner(m, cfg)
	workers := []topology.NodeID{4}
	spec := workload.Streamcluster.Scaled(0.25)

	// Static sweep as ground truth.
	bestStatic, bestTime := 0.0, math.Inf(1)
	for dwp := 0.0; dwp <= 1.001; dwp += 0.1 {
		e := sim.New(m, cfg)
		if _, err := e.AddApp("sc", spec, workers, StaticDWP{Canonical: ct, DWP: dwp, UserLevel: true}); err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if tt := res.Times["sc"]; tt < bestTime {
			bestStatic, bestTime = dwp, tt
		}
	}

	// On-line tuner.
	e := sim.New(m, cfg)
	b := NewBWAP(ct)
	if _, err := e.AddApp("sc", spec, workers, b); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	tuner := b.TunerFor("sc")
	if err := tuner.Err(); err != nil {
		t.Fatal(err)
	}
	if !tuner.Finished() {
		t.Logf("tuner still running at app completion (trajectory %v)", tuner.Trajectory())
	}
	if diff := math.Abs(tuner.BestDWP() - bestStatic); diff > 0.11 {
		t.Fatalf("tuner best DWP %v vs static optimum %v: off by more than one step (trajectory %v)",
			tuner.BestDWP(), bestStatic, tuner.Trajectory())
	}
}

func TestDWPTunerTrajectoryRecorded(t *testing.T) {
	m := topology.MachineB()
	e := sim.New(m, sim.Config{Seed: 5})
	b := NewBWAPUniform()
	if _, err := e.AddApp("lat", latencyBoundSpec(), []topology.NodeID{0}, b); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	traj := b.TunerFor("lat").Trajectory()
	if len(traj) < 2 {
		t.Fatalf("trajectory too short: %v", traj)
	}
	prev := -1.0
	for _, mnt := range traj {
		if mnt.DWP < prev {
			t.Fatalf("DWP decreased along trajectory: %v", traj)
		}
		prev = mnt.DWP
		if mnt.StallRate < 0 {
			t.Fatalf("negative stall rate: %v", mnt)
		}
	}
}

func TestCoScheduledTunerProtectsHighPriorityApp(t *testing.T) {
	// B floods the whole of Machine A including A's nodes; stage 1 must
	// raise B's DWP above 0 (pulling pages off A's nodes) before stage 2.
	m := topology.MachineA()
	cfg := sim.Config{Seed: 11}
	e := sim.New(m, cfg)
	hi := workload.Swaptions
	hi.SharedGB, hi.PrivateGBPerNode = 0.016, 0.008
	if _, err := e.AddApp("swaptions", hi, []topology.NodeID{4, 5, 6, 7}, noopFirstTouch{}); err != nil {
		t.Fatal(err)
	}
	b := NewBWAPUniform()
	b.CoRunner = "swaptions"
	spec := bwBoundSpec()
	spec.WorkGB = 3000
	if _, err := e.AddApp("be", spec, []topology.NodeID{0, 1}, b); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	tuner := b.TunerFor("be")
	if tuner == nil {
		t.Fatal("no co-scheduled tuner registered")
	}
	if err := tuner.Err(); err != nil {
		t.Fatal(err)
	}
	co, ok := tuner.(*CoScheduledTuner)
	if !ok {
		t.Fatalf("expected CoScheduledTuner, got %T", tuner)
	}
	stages := map[int]bool{}
	for _, m := range co.Trajectory() {
		stages[m.Stage] = true
	}
	if !stages[1] {
		t.Fatalf("stage 1 never measured: %v", co.Trajectory())
	}
}

type noopFirstTouch struct{}

func (noopFirstTouch) Name() string { return "local" }
func (noopFirstTouch) Place(e *sim.Engine, a *sim.App) error {
	for _, seg := range a.Segments() {
		if seg.Owner() >= 0 {
			seg.FaultAll(seg.Owner())
		} else {
			seg.FaultAll(a.Workers[0])
		}
	}
	return nil
}

func TestBWAPPlaceErrors(t *testing.T) {
	m := topology.MachineB()
	e := sim.New(m, sim.Config{})
	// Full variant without canonical tuner must fail at placement.
	b := &BWAP{UserLevel: true}
	if _, err := e.AddApp("x", latencyBoundSpec(), []topology.NodeID{0}, b); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("BWAP without canonical tuner accepted")
	}
	// Missing co-runner.
	e2 := sim.New(m, sim.Config{})
	b2 := NewBWAPUniform()
	b2.CoRunner = "ghost"
	if _, err := e2.AddApp("x", latencyBoundSpec(), []topology.NodeID{0}, b2); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Run(); err == nil {
		t.Fatal("missing co-runner accepted")
	}
}

func TestBWAPNames(t *testing.T) {
	if got := NewBWAPUniform().Name(); got != "bwap-uniform" {
		t.Fatalf("Name = %q", got)
	}
	ct := NewCanonicalTuner(topology.MachineB(), sim.Config{})
	if got := NewBWAP(ct).Name(); got != "bwap" {
		t.Fatalf("Name = %q", got)
	}
	if got := (StaticDWP{DWP: 0.3}).Name(); got != "bwap-static-dwp30%" {
		t.Fatalf("StaticDWP name = %q", got)
	}
}

func TestStaticDWPPlacesAtFixedDelta(t *testing.T) {
	m := topology.MachineB()
	e := sim.New(m, sim.Config{})
	app, err := e.AddApp("x", latencyBoundSpec(), []topology.NodeID{0},
		StaticDWP{Uniform: true, DWP: 1, UserLevel: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Placer().Place(e, app); err != nil {
		t.Fatal(err)
	}
	if fr := app.SharedSegment().Fractions()[0]; fr < 0.99 {
		t.Fatalf("DWP=1 static placement put only %v on worker", fr)
	}
}

func TestProbeSpecIsCanonical(t *testing.T) {
	s := ProbeSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.WriteGBs != 0 {
		t.Fatal("canonical app must be read-only")
	}
	if s.PrivateFrac != 0 {
		t.Fatal("canonical app must be fully shared")
	}
	if s.LatencySensitivity != 0 {
		t.Fatal("canonical app must be BW-dominated")
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	d := DefaultParams()
	if p.N != d.N || p.C != 0 || p.T != d.T || p.Step != d.Step {
		t.Fatalf("withDefaults = %+v", p)
	}
	// Explicit paper values survive.
	p = Params{N: 20, C: 5, T: 0.2, Step: 0.1}.withDefaults()
	if p.C != 5 {
		t.Fatalf("C lost: %+v", p)
	}
}

// TestHybridMemoryFutureWork exercises the paper's Section VI direction:
// on a DRAM+NVRAM machine, BWAP's canonical weights shift pages away from
// the slow memory, beating uniform-all without any algorithm changes.
func TestHybridMemoryFutureWork(t *testing.T) {
	m := topology.HybridDRAMNVRAM(2, 2, 8, 24, 6)
	cfg := sim.Config{Seed: 31}
	ct := NewCanonicalTuner(m, cfg)
	workers := []topology.NodeID{0, 1} // the DRAM compute nodes
	w, err := ct.Weights(workers)
	if err != nil {
		t.Fatal(err)
	}
	if w[2] >= w[0] || w[3] >= w[1] {
		t.Fatalf("NVRAM nodes not down-weighted: %v", w)
	}
	spec := workload.Synthetic("stream", 60, 0, 0, 0.1)
	spec.WorkGB = 300

	run := func(placer sim.Placer) float64 {
		e := sim.New(m, cfg)
		if _, err := e.AddApp("stream", spec, workers, placer); err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Times["stream"]
	}
	uniform := run(StaticDWP{Uniform: true, DWP: 0, UserLevel: true}) // uniform-all
	weighted := run(StaticDWP{Canonical: ct, DWP: 0, UserLevel: true})
	if weighted > uniform*1.001 {
		t.Fatalf("BW-aware weights lost on hybrid memory: %v vs %v", weighted, uniform)
	}
}
