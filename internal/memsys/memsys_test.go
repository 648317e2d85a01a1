package memsys

import (
	"math"
	"testing"
	"testing/quick"

	"bwap/internal/stats"
	"bwap/internal/topology"
)

func sys(m *topology.Machine) *System { return New(m, DefaultConfig()) }

// Solve computes demand-bounded max-min fair rates for the given flows on
// a fresh Solver.
func (s *System) Solve(flows []Flow) *Result {
	return s.NewSolver().Solve(flows)
}

// TotalRate returns the sum of all achieved flow rates.
func (r *Result) TotalRate() float64 {
	total := 0.0
	for _, v := range r.Rates {
		total += v
	}
	return total
}

// TestDefaultConfigValid: the default parameters lie in the ranges the
// contention model is defined on.
func TestDefaultConfigValid(t *testing.T) {
	c := DefaultConfig()
	if c.StreamPenalty < 0 || c.EfficiencyFloor <= 0 || c.EfficiencyFloor > 1 || c.WritePenalty < 1 {
		t.Fatalf("default config out of range: %+v", c)
	}
}

func TestEfficiencyMonotoneNonIncreasing(t *testing.T) {
	c := DefaultConfig()
	prev := c.Efficiency(1)
	if prev != 1 {
		t.Fatalf("Efficiency(1) = %v, want 1", prev)
	}
	for k := 2; k <= 64; k++ {
		e := c.Efficiency(k)
		if e > prev+1e-12 {
			t.Fatalf("efficiency increased at k=%d: %v > %v", k, e, prev)
		}
		if e < c.EfficiencyFloor {
			t.Fatalf("efficiency %v fell below floor %v", e, c.EfficiencyFloor)
		}
		prev = e
	}
}

func TestEquivalentDemand(t *testing.T) {
	c := Config{WritePenalty: 1.5}
	if got := c.EquivalentDemand(10, 4); got != 16 {
		t.Fatalf("EquivalentDemand = %v, want 16", got)
	}
}

// TestMeasuredMatrixReproducesFig1a: the solver, driven pairwise exactly the
// way the paper measures Figure 1a, must return the calibrated matrix.
func TestMeasuredMatrixReproducesFig1a(t *testing.T) {
	m := topology.MachineA()
	got := sys(m).MeasuredMatrix()
	want := m.NominalMatrix()
	for s := range want {
		for d := range want[s] {
			if math.Abs(got[s][d]-want[s][d]) > 1e-6 {
				t.Errorf("measured[%d][%d] = %.3f, want %.3f", s, d, got[s][d], want[s][d])
			}
		}
	}
}

func TestSolveEmptyAndZeroDemand(t *testing.T) {
	s := sys(topology.MachineB())
	r := s.Solve(nil)
	if r.TotalRate() != 0 {
		t.Fatal("empty solve produced traffic")
	}
	r = s.Solve([]Flow{{Src: 0, Dst: 1, Demand: 0}, {Src: 0, Dst: 1, Demand: -5}})
	if r.Rates[0] != 0 || r.Rates[1] != 0 {
		t.Fatalf("zero/negative demand produced rates %v", r.Rates)
	}
}

func TestSmallDemandFullySatisfied(t *testing.T) {
	s := sys(topology.MachineB())
	flows := []Flow{
		{Src: 0, Dst: 0, Demand: 1.0},
		{Src: 1, Dst: 0, Demand: 2.0},
		{Src: 3, Dst: 2, Demand: 0.5},
	}
	r := s.Solve(flows)
	for i, f := range flows {
		if math.Abs(r.Rates[i]-f.Demand) > 1e-9 {
			t.Fatalf("flow %d rate %v, want full demand %v", i, r.Rates[i], f.Demand)
		}
	}
}

func TestControllerContention(t *testing.T) {
	// Two local streams on MachineB node 0 (controller 25 GB/s, efficiency
	// <1 with 2 streams) must share the controller roughly equally and sum
	// to the effective capacity.
	s := sys(topology.MachineB())
	r := s.Solve([]Flow{
		{Src: 0, Dst: 0, Demand: 100},
		{Src: 0, Dst: 0, Demand: 100},
	})
	eff := DefaultConfig().Efficiency(2) * 25
	total := r.Rates[0] + r.Rates[1]
	if math.Abs(total-eff) > 1e-6 {
		t.Fatalf("total = %v, want effective capacity %v", total, eff)
	}
	if math.Abs(r.Rates[0]-r.Rates[1]) > 1e-9 {
		t.Fatalf("equal-demand flows got unequal shares: %v", r.Rates)
	}
}

func TestTrunkCongestion(t *testing.T) {
	// Flows 0->4 and 1->5 on Machine A cross the same package trunk
	// (package 0 -> package 2). Individually each achieves 2.8 GB/s; the
	// trunk is 1.25*2.8 = 3.5 GB/s, so together they must be squeezed.
	s := sys(topology.MachineA())
	solo := s.Solve([]Flow{{Src: 0, Dst: 4, Demand: 100}}).Rates[0]
	r := s.Solve([]Flow{
		{Src: 0, Dst: 4, Demand: 100},
		{Src: 1, Dst: 5, Demand: 100},
	})
	if solo < 2.79 || solo > 2.81 {
		t.Fatalf("solo rate = %v, want 2.8", solo)
	}
	together := r.Rates[0] + r.Rates[1]
	if together >= 2*solo-1e-6 {
		t.Fatalf("no congestion: together %v vs 2x solo %v", together, 2*solo)
	}
	if together < 3.4 || together > 3.6 {
		t.Fatalf("together = %v, want ~trunk capacity 3.5", together)
	}
}

func TestAsymmetricPairs(t *testing.T) {
	// Figure 1a is asymmetric: bw(0->4)=2.8 but bw(4->0)=4.0.
	s := sys(topology.MachineA())
	if a, b := pairwiseBW(s.NewSolver(), 0, 4), pairwiseBW(s.NewSolver(), 4, 0); math.Abs(a-2.8) > 1e-6 || math.Abs(b-4.0) > 1e-6 {
		t.Fatalf("asymmetry lost: bw(0->4)=%v bw(4->0)=%v", a, b)
	}
}

func TestMaxMinNoUnsatisfiedFlowWithSlack(t *testing.T) {
	// Max-min invariant: every flow is either demand-satisfied or crosses at
	// least one saturated resource.
	m := topology.MachineA()
	s := sys(m)
	flows := []Flow{
		{Src: 0, Dst: 1, Demand: 10},
		{Src: 2, Dst: 1, Demand: 10},
		{Src: 5, Dst: 1, Demand: 10},
		{Src: 1, Dst: 1, Demand: 50},
		{Src: 7, Dst: 6, Demand: 3},
	}
	r := s.Solve(flows)
	checkMaxMinInvariants(t, m, flows, r)
}

// checkMaxMinInvariants verifies (a) rate <= demand, (b) no resource
// overcommitted, (c) unsatisfied flows cross a saturated resource.
func checkMaxMinInvariants(t *testing.T, m *topology.Machine, flows []Flow, r *Result) {
	t.Helper()
	n := m.NumNodes()
	cfg := DefaultConfig()
	streams := make([]int, n)
	for _, f := range flows {
		if f.Demand > 0 {
			streams[f.Src]++
		}
	}
	ctrl := make([]float64, n)
	ingest := make([]float64, n)
	link := make([]float64, m.NumLinks())
	for i, f := range flows {
		if r.Rates[i] > f.Demand+1e-6 {
			t.Fatalf("flow %d rate %v exceeds demand %v", i, r.Rates[i], f.Demand)
		}
		if r.Rates[i] < 0 {
			t.Fatalf("flow %d negative rate %v", i, r.Rates[i])
		}
		ctrl[f.Src] += r.Rates[i]
		ingest[f.Dst] += r.Rates[i]
		for _, l := range m.Route(f.Src, f.Dst) {
			link[l] += r.Rates[i]
		}
	}
	const eps = 1e-6
	for i := 0; i < n; i++ {
		capEff := m.Node(topology.NodeID(i)).ControllerGBs * cfg.Efficiency(streams[i])
		if ctrl[i] > capEff+eps {
			t.Fatalf("controller %d overcommitted: %v > %v", i, ctrl[i], capEff)
		}
		if ingest[i] > m.IngestGBs()+eps {
			t.Fatalf("ingest %d overcommitted: %v > %v", i, ingest[i], m.IngestGBs())
		}
	}
	for l := 0; l < m.NumLinks(); l++ {
		if link[l] > m.Link(topology.LinkID(l)).CapacityGBs+eps {
			t.Fatalf("link %d overcommitted: %v > %v", l, link[l], m.Link(topology.LinkID(l)).CapacityGBs)
		}
	}
	for i, f := range flows {
		if f.Demand <= 0 || r.Rates[i] >= f.Demand-eps {
			continue
		}
		saturated := false
		capEff := m.Node(f.Src).ControllerGBs * cfg.Efficiency(streams[f.Src])
		if ctrl[f.Src] >= capEff-eps {
			saturated = true
		}
		if ingest[f.Dst] >= m.IngestGBs()-eps {
			saturated = true
		}
		for _, l := range m.Route(f.Src, f.Dst) {
			if link[l] >= m.Link(topology.LinkID(l)).CapacityGBs-eps {
				saturated = true
			}
		}
		if !saturated {
			t.Fatalf("flow %d unsatisfied (%v < %v) but crosses no saturated resource", i, r.Rates[i], f.Demand)
		}
	}
}

// TestMaxMinPropertyRandomFlows drives the invariant check with random flow
// sets on both reference machines.
func TestMaxMinPropertyRandomFlows(t *testing.T) {
	machines := []*topology.Machine{topology.MachineA(), topology.MachineB()}
	rng := stats.NewRand(1234)
	f := func(seed uint64) bool {
		m := machines[int(seed%uint64(len(machines)))]
		s := sys(m)
		nf := 1 + int(seed%13)
		flows := make([]Flow, nf)
		for i := range flows {
			flows[i] = Flow{
				Src:    topology.NodeID(rng.IntN(m.NumNodes())),
				Dst:    topology.NodeID(rng.IntN(m.NumNodes())),
				Demand: rng.Float64() * 30,
			}
		}
		r := s.Solve(flows)
		checkMaxMinInvariants(t, m, flows, r)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestUtilizationBounds(t *testing.T) {
	s := sys(topology.MachineA())
	r := s.Solve([]Flow{
		{Src: 0, Dst: 1, Demand: 100},
		{Src: 4, Dst: 1, Demand: 100},
		{Src: 1, Dst: 1, Demand: 100},
	})
	for i, u := range r.ControllerUtil {
		if u < -1e-9 || u > 1+1e-9 {
			t.Fatalf("controller util[%d] = %v out of [0,1]", i, u)
		}
	}
	for i, u := range r.LinkUtil {
		if u < -1e-9 || u > 1+1e-9 {
			t.Fatalf("link util[%d] = %v out of [0,1]", i, u)
		}
	}
	for i, u := range r.IngestUtil {
		if u < -1e-9 || u > 1+1e-9 {
			t.Fatalf("ingest util[%d] = %v out of [0,1]", i, u)
		}
	}
}

func TestNodeOutCounters(t *testing.T) {
	s := sys(topology.MachineB())
	r := s.Solve([]Flow{
		{Src: 0, Dst: 1, Demand: 3},
		{Src: 0, Dst: 2, Demand: 4},
		{Src: 2, Dst: 2, Demand: 5},
	})
	if math.Abs(r.NodeOutGBs[0]-7) > 1e-9 {
		t.Fatalf("NodeOutGBs[0] = %v, want 7", r.NodeOutGBs[0])
	}
	if math.Abs(r.NodeOutGBs[2]-5) > 1e-9 {
		t.Fatalf("NodeOutGBs[2] = %v, want 5", r.NodeOutGBs[2])
	}
	if r.NodeOutGBs[1] != 0 || r.NodeOutGBs[3] != 0 {
		t.Fatalf("unexpected outbound traffic: %v", r.NodeOutGBs)
	}
}

// TestMoreStreamsDegradeController: aggregate achieved bandwidth from one
// controller shrinks as the stream count grows (the DraMon non-linearity).
func TestMoreStreamsDegradeController(t *testing.T) {
	s := sys(topology.MachineB())
	prev := math.Inf(1)
	for k := 1; k <= 8; k *= 2 {
		flows := make([]Flow, k)
		for i := range flows {
			flows[i] = Flow{Src: 0, Dst: 0, Demand: 100}
		}
		total := s.Solve(flows).TotalRate()
		if total > prev+1e-9 {
			t.Fatalf("throughput grew with more streams: k=%d total=%v prev=%v", k, total, prev)
		}
		prev = total
	}
}

// TestInterleavingBeatsSingleNode reproduces the paper's core motivation:
// a worker with demand above local controller capacity achieves more
// aggregate bandwidth when pages are spread across nodes.
func TestInterleavingBeatsSingleNode(t *testing.T) {
	m := topology.MachineA()
	s := sys(m)
	// All pages local: one fat stream bounded by the local controller.
	local := s.Solve([]Flow{{Src: 0, Dst: 0, Demand: 40}}).TotalRate()
	// Pages interleaved across 4 nodes: parallel transfers.
	spread := s.Solve([]Flow{
		{Src: 0, Dst: 0, Demand: 10},
		{Src: 1, Dst: 0, Demand: 10},
		{Src: 2, Dst: 0, Demand: 10},
		{Src: 3, Dst: 0, Demand: 10},
	}).TotalRate()
	if spread <= local {
		t.Fatalf("interleaving did not help: spread %v <= local %v", spread, local)
	}
}

func TestSolveDeterministic(t *testing.T) {
	s := sys(topology.MachineA())
	flows := []Flow{
		{Src: 0, Dst: 1, Demand: 10},
		{Src: 2, Dst: 1, Demand: 8},
		{Src: 4, Dst: 3, Demand: 12},
	}
	a := s.Solve(flows)
	b := s.Solve(flows)
	for i := range a.Rates {
		if a.Rates[i] != b.Rates[i] {
			t.Fatalf("non-deterministic solve: %v vs %v", a.Rates, b.Rates)
		}
	}
}

func BenchmarkSolve64Flows(b *testing.B) {
	m := topology.MachineA()
	s := sys(m)
	rng := stats.NewRand(5)
	flows := make([]Flow, 64)
	for i := range flows {
		flows[i] = Flow{
			Src:    topology.NodeID(rng.IntN(8)),
			Dst:    topology.NodeID(rng.IntN(8)),
			Demand: 1 + rng.Float64()*10,
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Solve(flows)
	}
}

func TestStreamsFieldDegradesController(t *testing.T) {
	// One flow carrying 8 hardware streams must see the same effective
	// controller capacity as 8 single-stream flows.
	s := sys(topology.MachineB())
	one := s.Solve([]Flow{{Src: 0, Dst: 0, Demand: 100, Streams: 8}}).TotalRate()
	many := make([]Flow, 8)
	for i := range many {
		many[i] = Flow{Src: 0, Dst: 0, Demand: 12.5}
	}
	eight := s.Solve(many).TotalRate()
	if math.Abs(one-eight) > 1e-6 {
		t.Fatalf("aggregated streams %v != separate streams %v", one, eight)
	}
	solo := s.Solve([]Flow{{Src: 0, Dst: 0, Demand: 100}}).TotalRate()
	if one >= solo {
		t.Fatalf("multi-stream flow not degraded: %v >= %v", one, solo)
	}
}
