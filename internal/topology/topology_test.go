package topology

import (
	"math"
	"strings"
	"testing"
)

// totalCores returns the machine-wide hardware thread count (the paper's
// C×N).
func totalCores(m *Machine) int {
	total := 0
	for i := 0; i < m.NumNodes(); i++ {
		total += m.Node(NodeID(i)).Cores
	}
	return total
}

func TestMachineAValidates(t *testing.T) {
	m := MachineA()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() != 8 {
		t.Fatalf("MachineA nodes = %d, want 8", m.NumNodes())
	}
	if c := totalCores(m); c != 64 {
		t.Fatalf("MachineA cores = %d, want 64", c)
	}
}

func TestMachineBValidates(t *testing.T) {
	m := MachineB()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() != 4 {
		t.Fatalf("MachineB nodes = %d, want 4", m.NumNodes())
	}
	if c := totalCores(m); c != 28 {
		t.Fatalf("MachineB cores = %d, want 28", c)
	}
}

// TestMachineANominalMatrixMatchesFig1a is the calibration check: the
// pairwise measured bandwidth of the simulated Machine A must reproduce
// Figure 1a of the paper exactly.
func TestMachineANominalMatrixMatchesFig1a(t *testing.T) {
	m := MachineA()
	got := m.NominalMatrix()
	for s := range machineAMatrix {
		for d := range machineAMatrix[s] {
			if math.Abs(got[s][d]-machineAMatrix[s][d]) > 1e-9 {
				t.Errorf("nominal BW[%d][%d] = %.2f, want %.2f (Fig. 1a)", s, d, got[s][d], machineAMatrix[s][d])
			}
		}
	}
}

func TestMachineAAmplitude(t *testing.T) {
	// The paper: "the lowest BW in machine A was 5.8x lower than the highest".
	amp := MachineA().BWAmplitude()
	if amp < 5.7 || amp > 5.95 {
		t.Fatalf("MachineA amplitude = %.2f, want ~5.8", amp)
	}
}

func TestMachineBAsymmetryRatios(t *testing.T) {
	// The paper: local/nearest ~1.8x, local/farthest 2.3x on machine B.
	m := MachineB()
	local := m.NominalBW(0, 0)
	nearest := m.NominalBW(1, 0)
	farthest := local
	for s := 0; s < m.NumNodes(); s++ {
		for d := 0; d < m.NumNodes(); d++ {
			if v := m.NominalBW(NodeID(s), NodeID(d)); v < farthest {
				farthest = v
			}
		}
	}
	if r := local / nearest; r < 1.7 || r > 1.9 {
		t.Fatalf("local/nearest = %.2f, want ~1.8", r)
	}
	if r := local / farthest; r < 2.2 || r > 2.4 {
		t.Fatalf("local/farthest = %.2f, want ~2.3", r)
	}
}

func TestLocalRoutesEmptyRemoteRoutesNot(t *testing.T) {
	for _, m := range []*Machine{MachineA(), MachineB(), Symmetric(4, 4, 20, 10)} {
		for s := 0; s < m.NumNodes(); s++ {
			for d := 0; d < m.NumNodes(); d++ {
				r := m.Route(NodeID(s), NodeID(d))
				if s == d && len(r) != 0 {
					t.Fatalf("%s: local route %d->%d not empty", m.Name, s, d)
				}
				if s != d && len(r) == 0 {
					t.Fatalf("%s: remote route %d->%d empty", m.Name, s, d)
				}
			}
		}
	}
}

func TestCrossPackageRoutesShareTrunk(t *testing.T) {
	m := MachineA()
	// Nodes 0 and 1 are package 0; nodes 4 and 5 are package 2. Flows 0->4
	// and 1->5 must share at least one link (the package trunk), which is
	// what creates interconnect congestion between them.
	shared := false
	for _, a := range m.Route(0, 4) {
		for _, b := range m.Route(1, 5) {
			if a == b {
				shared = true
			}
		}
	}
	if !shared {
		t.Fatal("cross-package flows 0->4 and 1->5 share no trunk link")
	}
	// Intra-package pairs must NOT cross a trunk (single direct link).
	if got := len(m.Route(0, 1)); got != 1 {
		t.Fatalf("intra-package route 0->1 has %d links, want 1", got)
	}
}

func TestLatencyMonotoneInBandwidth(t *testing.T) {
	// Lower-bandwidth (longer) paths must have higher synthesized latency.
	m := MachineA()
	for d := 0; d < m.NumNodes(); d++ {
		for s1 := 0; s1 < m.NumNodes(); s1++ {
			for s2 := 0; s2 < m.NumNodes(); s2++ {
				b1, b2 := m.NominalBW(NodeID(s1), NodeID(d)), m.NominalBW(NodeID(s2), NodeID(d))
				l1, l2 := m.LatencyNs(NodeID(s1), NodeID(d)), m.LatencyNs(NodeID(s2), NodeID(d))
				if b1 > b2 && l1 > l2+1e-9 {
					t.Fatalf("latency not monotone: bw(%d->%d)=%.1f lat=%.0f vs bw(%d->%d)=%.1f lat=%.0f",
						s1, d, b1, l1, s2, d, b2, l2)
				}
			}
		}
	}
}

func TestLocalLatencyIsMinimum(t *testing.T) {
	for _, m := range []*Machine{MachineA(), MachineB()} {
		for d := 0; d < m.NumNodes(); d++ {
			local := m.LatencyNs(NodeID(d), NodeID(d))
			for s := 0; s < m.NumNodes(); s++ {
				if s != d && m.LatencyNs(NodeID(s), NodeID(d)) < local {
					t.Fatalf("%s: remote latency %d->%d below local", m.Name, s, d)
				}
			}
		}
	}
}

func TestSymmetricMachineIsSymmetric(t *testing.T) {
	m := Symmetric(6, 4, 24, 12)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 6; s++ {
		for d := 0; d < 6; d++ {
			want := 12.0
			if s == d {
				want = 24.0
			}
			if got := m.NominalBW(NodeID(s), NodeID(d)); got != want {
				t.Fatalf("symmetric BW[%d][%d] = %v, want %v", s, d, got, want)
			}
		}
	}
	if amp := m.BWAmplitude(); amp != 2 {
		t.Fatalf("amplitude = %v, want 2", amp)
	}
}

func TestFromMatrixRejectsBadInput(t *testing.T) {
	if _, err := FromMatrix(MatrixSpec{Name: "x"}); err == nil {
		t.Fatal("empty matrix accepted")
	}
	if _, err := FromMatrix(MatrixSpec{Name: "x", BW: [][]float64{{1, 2}}}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
	if _, err := FromMatrix(MatrixSpec{Name: "x", BW: [][]float64{{1}}, CoresPerNode: 0}); err == nil {
		t.Fatal("zero cores accepted")
	}
}

func TestBuilderMissingRoute(t *testing.T) {
	b := NewBuilder("broken", 10)
	b.AddNode(2, 5, GiB, 100)
	b.AddNode(2, 5, GiB, 100)
	// no routes declared
	if _, err := b.Build(); err == nil {
		t.Fatal("builder accepted machine with missing routes")
	}
}

func TestBuilderExplicitLatencyPreserved(t *testing.T) {
	b := NewBuilder("lat", 10)
	n0 := b.AddNode(2, 5, GiB, 100)
	n1 := b.AddNode(2, 5, GiB, 100)
	l01 := b.AddLink("l01", 3)
	l10 := b.AddLink("l10", 3)
	b.SetRoute(n0, n1, l01)
	b.SetRoute(n1, n0, l10)
	b.SetLatency(n0, n1, 321)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.LatencyNs(n0, n1); got != 321 {
		t.Fatalf("explicit latency = %v, want 321", got)
	}
	if got := m.LatencyNs(n1, n0); got <= 100 {
		t.Fatalf("synthesized latency = %v, want > local", got)
	}
}

func TestValidateCatchesIngestBelowController(t *testing.T) {
	b := NewBuilder("bad-ingest", 4) // below controller 5
	b.AddNode(2, 5, GiB, 100)
	if _, err := b.Build(); err == nil {
		t.Fatal("ingest below controller accepted")
	}
}

func TestNominalBWRespectsIngestCap(t *testing.T) {
	m, err := FromMatrix(MatrixSpec{
		Name:           "capped",
		BW:             [][]float64{{10, 8}, {8, 10}},
		CoresPerNode:   2,
		MemoryPerNode:  GiB,
		LocalLatencyNs: 100,
		IngestFactor:   1, // ingest == max controller == 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.NominalBW(0, 0); got != 10 {
		t.Fatalf("local BW = %v, want 10 (ingest must not bind below controller)", got)
	}
}

func TestStringRendersMatrix(t *testing.T) {
	s := MachineA().String()
	if !strings.Contains(s, "9.2") || !strings.Contains(s, "10.5") || !strings.Contains(s, "1.8") {
		t.Fatalf("String() missing matrix values:\n%s", s)
	}
}

func TestBWAmplitudeSingleNode(t *testing.T) {
	b := NewBuilder("one", 20)
	b.AddNode(4, 10, GiB, 100)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if amp := m.BWAmplitude(); amp != 1 {
		t.Fatalf("single-node amplitude = %v, want 1", amp)
	}
}

func TestHybridDRAMNVRAM(t *testing.T) {
	m := HybridDRAMNVRAM(2, 2, 8, 24, 6)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() != 4 {
		t.Fatalf("nodes = %d", m.NumNodes())
	}
	// DRAM nodes carry the cores; NVRAM nodes are memory-only.
	if m.Node(0).Cores != 8 || m.Node(3).Cores != 1 {
		t.Fatalf("core layout wrong: %d/%d", m.Node(0).Cores, m.Node(3).Cores)
	}
	// NVRAM local bandwidth far below DRAM.
	if m.NominalBW(2, 2) >= m.NominalBW(0, 0)/2 {
		t.Fatalf("NVRAM not slower: %v vs %v", m.NominalBW(2, 2), m.NominalBW(0, 0))
	}
	// NVRAM read latency reflects the media, not the path bandwidth.
	if lat := m.LatencyNs(2, 0); lat < 300 {
		t.Fatalf("NVRAM source latency = %v, want >= 300", lat)
	}
	if lat := m.LatencyNs(1, 0); lat > 200 {
		t.Fatalf("remote DRAM latency = %v, want ~140", lat)
	}
}
