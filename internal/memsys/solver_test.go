package memsys

import (
	"math"
	"testing"

	"bwap/internal/topology"
)

// solverFlows builds a representative contended flow set: every worker
// pulls from every node, private plus shared classes.
func solverFlows(m *topology.Machine) []Flow {
	var flows []Flow
	n := m.NumNodes()
	for dst := 0; dst < n; dst++ {
		for src := 0; src < n; src++ {
			flows = append(flows, Flow{
				Src: topology.NodeID(src), Dst: topology.NodeID(dst),
				Demand:  5 + float64(src+dst),
				Streams: 8,
			})
			flows = append(flows, Flow{
				Src: topology.NodeID(src), Dst: topology.NodeID(dst),
				Demand:  2,
				Streams: -1,
			})
		}
	}
	return flows
}

// scaledFlows returns k variants of solverFlows with the same length and
// routes: variant i scales every demand by 1+i/8 and adds i streams to
// each counted flow. The extra streams lower controller efficiency, so
// the variants differ in their outputs too, although every one of them
// saturates the machine.
func scaledFlows(m *topology.Machine, k int) [][]Flow {
	sets := make([][]Flow, k)
	for i := range sets {
		sets[i] = solverFlows(m)
		for j := range sets[i] {
			sets[i][j].Demand *= 1 + float64(i)/8
			if sets[i][j].Streams > 0 {
				sets[i][j].Streams += i
			}
		}
	}
	return sets
}

// referenceSolve is the progressive filling exactly as Solver.Solve ran
// it before the solver remembered its solves, on fresh scratch every
// call. It is the oracle the memo is checked against.
func referenceSolve(s *System, flows []Flow) *Result {
	n := s.m.NumNodes()
	rc := s.resourceCount()
	res := &Result{
		Rates:          make([]float64, len(flows)),
		ControllerUtil: make([]float64, n),
		IngestUtil:     make([]float64, n),
		LinkUtil:       make([]float64, s.m.NumLinks()),
		NodeOutGBs:     make([]float64, n),
	}
	if len(flows) == 0 {
		return res
	}

	// Effective controller capacity given stream counts.
	streams := make([]int, n)
	for _, f := range flows {
		if f.Demand > 0 {
			streams[f.Src] += f.streamCount()
		}
	}
	capacity := make([]float64, rc)
	for i := 0; i < n; i++ {
		node := s.m.Node(topology.NodeID(i))
		capacity[i] = node.ControllerGBs * s.cfg.Efficiency(streams[i])
		capacity[n+i] = s.m.IngestGBs()
	}
	for l := 0; l < s.m.NumLinks(); l++ {
		capacity[2*n+l] = s.m.Link(topology.LinkID(l)).CapacityGBs
	}
	initial := make([]float64, rc)
	copy(initial, capacity)

	// Per-flow resource lists (flat) and the active-flow index list.
	pathOff := make([]int32, len(flows)+1)
	remaining := make([]float64, len(flows))
	var activeIdx []int32
	var pathBuf []int32
	path := func(i int32) []int32 { return pathBuf[pathOff[i]:pathOff[i+1]] }
	for i, f := range flows {
		if f.Demand > 0 {
			pathBuf = append(pathBuf, int32(f.Src), int32(n+int(f.Dst)))
			for _, l := range s.m.Route(f.Src, f.Dst) {
				pathBuf = append(pathBuf, int32(2*n+int(l)))
			}
			remaining[i] = f.Demand
			activeIdx = append(activeIdx, int32(i))
		}
		pathOff[i+1] = int32(len(pathBuf))
	}

	// Progressive filling.
	load := make([]int32, rc)
	for _, i := range activeIdx {
		for _, r := range path(i) {
			load[r]++
		}
	}
	const eps = 1e-9
	for len(activeIdx) > 0 {
		inc := math.Inf(1)
		for r, k := range load {
			if k > 0 {
				if share := capacity[r] / float64(k); share < inc {
					inc = share
				}
			}
		}
		for _, i := range activeIdx {
			if remaining[i] < inc {
				inc = remaining[i]
			}
		}
		if inc < 0 {
			inc = 0
		}
		for _, i := range activeIdx {
			res.Rates[i] += inc
			remaining[i] -= inc
			for _, r := range path(i) {
				capacity[r] -= inc
			}
		}
		kept := activeIdx[:0]
		for _, i := range activeIdx {
			frozen := remaining[i] <= eps
			if !frozen {
				for _, r := range path(i) {
					if capacity[r] <= eps {
						frozen = true
						break
					}
				}
			}
			if frozen {
				for _, r := range path(i) {
					load[r]--
				}
			} else {
				kept = append(kept, i)
			}
		}
		if len(kept) == len(activeIdx) {
			activeIdx = kept
			break
		}
		activeIdx = kept
	}

	// Utilizations and per-node outbound counters.
	for i, f := range flows {
		if res.Rates[i] > 0 {
			res.NodeOutGBs[f.Src] += res.Rates[i]
		}
	}
	for i := 0; i < n; i++ {
		if initial[i] > 0 {
			res.ControllerUtil[i] = (initial[i] - capacity[i]) / initial[i]
		}
		if initial[n+i] > 0 {
			res.IngestUtil[i] = (initial[n+i] - capacity[n+i]) / initial[n+i]
		}
	}
	for l := 0; l < s.m.NumLinks(); l++ {
		r := 2*n + l
		if initial[r] > 0 {
			res.LinkUtil[l] = (initial[r] - capacity[r]) / initial[r]
		}
	}
	return res
}

// sameBits reports the first index where two result slices differ in
// any bit (NaN payloads and the sign of zero included), or -1.
func sameBits(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// memoPool is the flow-set pool FuzzSolverMemo draws from: ten distinct
// sets of one length (more than the memo holds); shorter prefixes and the
// empty set; a set with zero, negative and −0 demands; a copy of set 0
// that differs only in Tag, which the solver ignores; and a set with NaN
// demands, which never compares equal to a remembered one.
func memoPool(m *topology.Machine) [][]Flow {
	pool := scaledFlows(m, 10)
	base := pool[0]
	pool = append(pool, base[:5], base[:1], nil)
	nonPositive := solverFlows(m)
	for i := range nonPositive {
		switch {
		case i%7 == 0:
			nonPositive[i].Demand = math.Copysign(0, -1)
		case i%5 == 0:
			nonPositive[i].Demand = -3
		case i%3 == 0:
			nonPositive[i].Demand = 0
		}
	}
	tagged := solverFlows(m)
	for i := range tagged {
		tagged[i].Tag = i + 1
	}
	withNaN := append([]Flow(nil), nonPositive...)
	for i := 0; i < len(withNaN); i += 11 {
		withNaN[i].Demand = math.NaN()
	}
	return append(pool, nonPositive, tagged, withNaN)
}

// FuzzSolverMemo drives one Solver through a sequence of flow sets and
// checks every result against referenceSolve, bit for bit: a memo hit
// must return exactly what a fresh fill does, after any history of hits,
// misses, evictions and length changes.
func FuzzSolverMemo(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1})                                     // A/B alternation
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 9}) // more than 8 distinct
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 2, 3, 4, 5, 6, 7, 8})             // a 9-cycle: every call misses
	f.Add([]byte{0, 10, 11, 12, 11, 10, 0, 10, 12, 0, 11})                          // shrinking and growing
	f.Add([]byte{13, 0, 13, 13, 1, 13, 12, 13})                                     // zero, negative, -0
	f.Add([]byte{0, 14, 0, 14, 14, 1, 0})                                           // Tag is ignored
	f.Add([]byte{15, 13, 15, 15, 0, 15, 13})                                        // NaN
	m := topology.MachineA()
	sys := New(m, DefaultConfig())
	pool := memoPool(m)
	want := make([]*Result, len(pool))
	for i, flows := range pool {
		want[i] = referenceSolve(sys, flows)
	}
	f.Fuzz(func(t *testing.T, seq []byte) {
		sv := sys.NewSolver()
		for call, b := range seq {
			k := int(b) % len(pool)
			got := sv.Solve(pool[k])
			if sv.Epoch() != uint64(call+1) {
				t.Fatalf("call %d: epoch %d, want %d", call, sv.Epoch(), call+1)
			}
			w := want[k]
			for _, c := range []struct {
				name      string
				got, want []float64
			}{
				{"Rates", got.Rates, w.Rates},
				{"ControllerUtil", got.ControllerUtil, w.ControllerUtil},
				{"IngestUtil", got.IngestUtil, w.IngestUtil},
				{"LinkUtil", got.LinkUtil, w.LinkUtil},
				{"NodeOutGBs", got.NodeOutGBs, w.NodeOutGBs},
			} {
				if i := sameBits(c.got, c.want); i >= 0 {
					t.Fatalf("call %d (set %d, %d hits so far): %s differs from the reference at %d",
						call, k, sv.MemoHits(), c.name, i)
				}
			}
		}
	})
}

// TestSolverMatchesSystemSolve pins the reusable solver to the one-shot
// System.Solve results bit for bit, across repeated reuse.
func TestSolverMatchesSystemSolve(t *testing.T) {
	m := topology.MachineA()
	sys := New(m, DefaultConfig())
	flows := solverFlows(m)
	want := sys.Solve(flows)
	sv := sys.NewSolver()
	for round := 0; round < 3; round++ {
		got := sv.Solve(flows)
		for i := range flows {
			if got.Rates[i] != want.Rates[i] {
				t.Fatalf("round %d: rate[%d] = %v, want %v", round, i, got.Rates[i], want.Rates[i])
			}
		}
		for i := range want.ControllerUtil {
			if got.ControllerUtil[i] != want.ControllerUtil[i] {
				t.Fatalf("round %d: controller util[%d] differs", round, i)
			}
			if got.IngestUtil[i] != want.IngestUtil[i] {
				t.Fatalf("round %d: ingest util[%d] differs", round, i)
			}
			if got.NodeOutGBs[i] != want.NodeOutGBs[i] {
				t.Fatalf("round %d: node out[%d] differs", round, i)
			}
		}
		for i := range want.LinkUtil {
			if got.LinkUtil[i] != want.LinkUtil[i] {
				t.Fatalf("round %d: link util[%d] differs", round, i)
			}
		}
	}
}

// TestSolverShrinkingFlowSets checks buffer reuse across calls with
// different flow counts (apps finish, flow sets shrink).
func TestSolverShrinkingFlowSets(t *testing.T) {
	m := topology.MachineB()
	sys := New(m, DefaultConfig())
	sv := sys.NewSolver()
	all := solverFlows(m)
	for _, n := range []int{len(all), 5, len(all), 1, 0, 3} {
		flows := all[:n]
		got := sv.Solve(flows)
		want := sys.Solve(flows)
		if len(got.Rates) != n {
			t.Fatalf("rates length %d, want %d", len(got.Rates), n)
		}
		for i := range flows {
			if got.Rates[i] != want.Rates[i] {
				t.Fatalf("n=%d: rate[%d] = %v, want %v", n, i, got.Rates[i], want.Rates[i])
			}
		}
	}
}

// TestSolverAllocationFree pins the perf contract: a warmed solver
// performs no heap allocation per Solve, on the memo's hit path (one flow
// set re-solved) and on its miss path (nine distinct sets in rotation, so
// every call fills and evicts the oldest of the eight remembered solves).
func TestSolverAllocationFree(t *testing.T) {
	m := topology.MachineA()
	sys := New(m, DefaultConfig())

	sv := sys.NewSolver()
	flows := solverFlows(m)
	sv.Solve(flows) // warm buffers; a solver's first solve is not remembered
	sv.Solve(flows) // ...and its second is
	avg := testing.AllocsPerRun(200, func() { sv.Solve(flows) })
	if avg != 0 {
		t.Fatalf("warmed Solver.Solve allocates %.2f objects/op on memo hits, want 0", avg)
	}
	if sv.MemoHits() != 201 { // AllocsPerRun's warm-up call plus 200
		t.Fatalf("re-solving one flow set hit the memo %d times in 201 calls", sv.MemoHits())
	}

	sv = sys.NewSolver()
	sets := scaledFlows(m, memoSize+1)
	call := 0
	next := func() {
		sv.Solve(sets[call%len(sets)])
		call++
	}
	for i := 0; i < 2*len(sets); i++ {
		next() // warm every ring slot
	}
	avg = testing.AllocsPerRun(200, next)
	if avg != 0 {
		t.Fatalf("warmed Solver.Solve allocates %.2f objects/op on memo misses, want 0", avg)
	}
	if sv.MemoHits() != 0 {
		t.Fatalf("a %d-set rotation hit the memo %d times, want 0", len(sets), sv.MemoHits())
	}
}

// BenchmarkSolverSolve measures progressive filling on fully loaded
// Machine A flow sets. It rotates through one more set than the memo
// holds, so every call misses and fills.
func BenchmarkSolverSolve(b *testing.B) {
	m := topology.MachineA()
	sys := New(m, DefaultConfig())
	sv := sys.NewSolver()
	sets := scaledFlows(m, memoSize+1)
	for _, flows := range sets {
		sv.Solve(flows)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv.Solve(sets[i%len(sets)])
	}
}

// BenchmarkSolverMemoHit measures a solve answered from the memo: the
// hash, the field-by-field compare and the copy into the result buffers.
func BenchmarkSolverMemoHit(b *testing.B) {
	m := topology.MachineA()
	sys := New(m, DefaultConfig())
	sv := sys.NewSolver()
	flows := solverFlows(m)
	sv.Solve(flows)
	sv.Solve(flows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv.Solve(flows)
	}
}
