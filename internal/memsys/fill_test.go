package memsys

import (
	"encoding/binary"
	"math"
	"testing"

	"bwap/internal/topology"
)

// fillMachines are the machines FuzzSolverFill decodes flow sets on: the
// paper's two, a symmetric one and a DRAM/NVRAM hybrid.
func fillMachines() []*topology.Machine {
	return []*topology.Machine{
		topology.MachineA(),
		topology.MachineB(),
		topology.Symmetric(4, 8, 40, 25),
		topology.HybridDRAMNVRAM(2, 2, 8, 60, 20),
	}
}

// fillDemands are the demands selectors 0–14 pick: zero, −0, negative,
// tiny, huge, infinite and NaN ones, and a few that tie. Selector 15 reads
// the demand's bits from the next eight bytes; selectors from 16 on map
// to (sel−16)/3 GB/s.
var fillDemands = [...]float64{
	0, math.Copysign(0, -1), -3, 1e-12, 1e-300, 1e300, math.MaxFloat64,
	math.Inf(1), math.NaN(), 2, 2, 5.5, 10.0 / 3, 40, 1e-9,
}

// decodeFill turns fuzz bytes into a machine index and a flow set. The
// first byte picks the machine; every flow then takes four bytes (source,
// destination, demand selector, stream count as an int8), plus eight when
// its selector is 15.
func decodeFill(machines []*topology.Machine, data []byte) (int, []Flow) {
	if len(data) == 0 {
		return 0, nil
	}
	mi := int(data[0]) % len(machines)
	n := machines[mi].NumNodes()
	data = data[1:]
	var flows []Flow
	for len(data) >= 4 {
		f := Flow{
			Src:     topology.NodeID(int(data[0]) % n),
			Dst:     topology.NodeID(int(data[1]) % n),
			Streams: int(int8(data[3])),
		}
		sel := int(data[2])
		data = data[4:]
		switch {
		case sel < len(fillDemands):
			f.Demand = fillDemands[sel]
		case sel == 15 && len(data) >= 8:
			f.Demand = math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
		default:
			f.Demand = float64(sel-16) / 3
		}
		flows = append(flows, f)
	}
	return mi, flows
}

// encodeFill is decodeFill's inverse for seed corpora: every demand goes
// in as raw bits, and stream counts must fit an int8.
func encodeFill(mi int, flows []Flow) []byte {
	b := []byte{byte(mi)}
	for _, f := range flows {
		b = append(b, byte(f.Src), byte(f.Dst), 15, byte(int8(f.Streams)))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.Demand))
	}
	return b
}

// FuzzSolverFill checks the filling against referenceSolve, bit for bit in
// all five Result slices, on a solver whose scratch a fully loaded flow
// set has dirtied first.
func FuzzSolverFill(f *testing.F) {
	machines := fillMachines()
	systems := make([]*System, len(machines))
	for i, m := range machines {
		systems[i] = New(m, DefaultConfig())
	}
	a, b := machines[0], machines[1]
	for mi, m := range machines {
		f.Add(encodeFill(mi, solverFlows(m)))
	}
	for _, flows := range memoPool(a)[10:] {
		f.Add(encodeFill(0, flows))
	}
	for _, c := range fillCases() {
		mi := 0
		if c.m.NumNodes() == b.NumNodes() {
			mi = 1
		}
		f.Add(encodeFill(mi, c.flows))
	}
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 20, 8})                                    // one flow
	f.Add([]byte{3, 0, 2, 9, 8, 1, 2, 10, 0xff, 3, 3, 40, 0})        // ties and a self flow
	f.Add([]byte{0, 0, 7, 3, 8, 1, 7, 7, 8, 2, 7, 8, 1, 3, 7, 6, 4}) // tiny, ∞, NaN, huge
	f.Fuzz(func(t *testing.T, data []byte) {
		mi, flows := decodeFill(machines, data)
		sys := systems[mi]
		sv := sys.NewSolver()
		sv.fill(solverFlows(machines[mi]))
		got := sv.fill(flows)
		want := referenceSolve(sys, flows)
		for _, c := range []struct {
			name      string
			got, want []float64
		}{
			{"Rates", got.Rates, want.Rates},
			{"ControllerUtil", got.ControllerUtil, want.ControllerUtil},
			{"IngestUtil", got.IngestUtil, want.IngestUtil},
			{"LinkUtil", got.LinkUtil, want.LinkUtil},
			{"NodeOutGBs", got.NodeOutGBs, want.NodeOutGBs},
		} {
			if i := sameBits(c.got, c.want); i >= 0 {
				t.Fatalf("machine %d, %d flows: %s differs from the reference at %d", mi, len(flows), c.name, i)
			}
		}
	})
}

// fillCase is one tick-sized flow set BenchmarkSolverFill times.
type fillCase struct {
	name  string
	m     *topology.Machine
	flows []Flow
}

// fillCases are flow sets shaped like a simulator tick's: a 2-worker app
// on Machine A, a co-scheduled pair of 4-worker apps on Machine A, and a
// 2-worker app on Machine B. Their demands put them at 14, 25 and 13
// rounds; a paper pass's fills average 19 rounds on Machine A and 11 on
// Machine B.
func fillCases() []fillCase {
	a, b := topology.MachineA(), topology.MachineB()
	return []fillCase{
		{"A/2-worker", a, tickFlows(a, 1.5, []topology.NodeID{0, 1})},
		{"A/4+4-worker", a, append(tickFlows(a, 3, []topology.NodeID{0, 1, 2, 3}),
			tickFlows(a, 1.5, []topology.NodeID{4, 5, 6, 7})...)},
		{"B/2-worker", b, tickFlows(b, 2, []topology.NodeID{0, 1})},
	}
}

// tickFlows builds one app's flows the way the simulator does: each
// 8-thread worker reads its shared and its private class from every node,
// by weights that differ per node, its latency throttle scales both, and
// only its first flow counts its threads. perThread is the app's demand
// per thread in GB/s.
func tickFlows(m *topology.Machine, perThread float64, workers []topology.NodeID) []Flow {
	n := m.NumNodes()
	const threads = 8
	var flows []Flow
	for wi, w := range workers {
		class := perThread * threads / 2 * (1 - 0.03*float64(wi))
		streams := threads
		for s := 0; s < n; s++ {
			weight := float64(2*n-s) / float64(n*(3*n+1)/2) // 2n−s parts of their sum over s
			flows = append(flows, Flow{Src: topology.NodeID(s), Dst: w, Demand: class * weight, Streams: streams})
			streams = -1
		}
		for s := 0; s < n; s++ {
			weight := float64(n+s) / float64(n*(3*n-1)/2) // n+s parts of their sum over s
			flows = append(flows, Flow{Src: topology.NodeID(s), Dst: w, Demand: class * weight, Streams: -1})
		}
	}
	return flows
}

// BenchmarkSolverFill times one fill of each tick-sized set, without the
// memo in front of it.
func BenchmarkSolverFill(b *testing.B) {
	for _, c := range fillCases() {
		b.Run(c.name, func(b *testing.B) {
			sv := New(c.m, DefaultConfig()).NewSolver()
			sv.fill(c.flows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sv.fill(c.flows)
			}
		})
	}
}
