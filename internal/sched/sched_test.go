package sched

import (
	"testing"

	"bwap/internal/topology"
)

func TestBestWorkerSetSingle(t *testing.T) {
	// With one worker the score is local bandwidth; Machine A's fastest
	// local controllers are nodes 4..7 (10.5 GB/s), so node 4 wins ties.
	m := topology.MachineA()
	w, err := BestWorkerSet(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 1 || w[0] != 4 {
		t.Fatalf("BestWorkerSet(1) = %v, want [4]", w)
	}
}

func TestBestWorkerSetPairPrefersSamePackage(t *testing.T) {
	// Same-package pairs have the highest inter-worker BW (5.4-5.5 GB/s
	// both ways on Machine A).
	m := topology.MachineA()
	w, err := BestWorkerSet(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 2 {
		t.Fatalf("set size %d", len(w))
	}
	// Must be one of the same-package pairs.
	if !(w[0]/2 == w[1]/2 && w[1] == w[0]+1) {
		t.Fatalf("BestWorkerSet(2) = %v, want a same-package pair", w)
	}
}

func TestBestWorkerSetFull(t *testing.T) {
	m := topology.MachineB()
	w, err := BestWorkerSet(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 4 {
		t.Fatalf("full set size %d", len(w))
	}
}

func TestBestWorkerSetErrors(t *testing.T) {
	m := topology.MachineB()
	if _, err := BestWorkerSet(m, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := BestWorkerSet(m, 5); err == nil {
		t.Fatal("k>n accepted")
	}
}

func TestBestWorkerSetDeterministic(t *testing.T) {
	m := topology.MachineA()
	a, _ := BestWorkerSet(m, 3)
	b, _ := BestWorkerSet(m, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic: %v vs %v", a, b)
		}
	}
}

func TestBestWorkerSubsetRestrictsToCandidates(t *testing.T) {
	m := topology.MachineA()
	// The global best pair is a same-package pair; exclude both members of
	// every same-package pair's low half and the subset search must pick
	// the best pair among what remains.
	avail := []topology.NodeID{1, 3, 4, 6}
	w, err := BestWorkerSubset(m, avail, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := map[topology.NodeID]bool{1: true, 3: true, 4: true, 6: true}
	for _, n := range w {
		if !in[n] {
			t.Fatalf("BestWorkerSubset chose %v outside candidates %v", w, avail)
		}
	}
	// Agreement with the unrestricted search when every node is available.
	all := []topology.NodeID{0, 1, 2, 3, 4, 5, 6, 7}
	ws, err := BestWorkerSubset(m, all, 2)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := BestWorkerSet(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wf {
		if ws[i] != wf[i] {
			t.Fatalf("full-candidate subset %v != BestWorkerSet %v", ws, wf)
		}
	}
}

func TestBestWorkerSubsetErrors(t *testing.T) {
	m := topology.MachineB()
	if _, err := BestWorkerSubset(m, []topology.NodeID{0, 1}, 3); err == nil {
		t.Fatal("k > len(avail) accepted")
	}
	if _, err := BestWorkerSubset(m, nil, 1); err == nil {
		t.Fatal("empty candidate list accepted")
	}
}

func TestInterWorkerBWSymmetricMachine(t *testing.T) {
	m := topology.Symmetric(4, 4, 20, 10)
	// Any pair scores 2×10 on a symmetric machine.
	if got := InterWorkerBW(m, []topology.NodeID{0, 1}); got != 20 {
		t.Fatalf("pair score = %v, want 20", got)
	}
	if got := InterWorkerBW(m, []topology.NodeID{2}); got != 20 {
		t.Fatalf("single score = %v, want local 20", got)
	}
}

func TestRemainingNodes(t *testing.T) {
	m := topology.MachineA()
	rest := RemainingNodes(m, []topology.NodeID{0, 1})
	if len(rest) != 6 {
		t.Fatalf("remaining = %v", rest)
	}
	for _, r := range rest {
		if r == 0 || r == 1 {
			t.Fatalf("worker leaked into remaining: %v", rest)
		}
	}
	if len(RemainingNodes(m, nil)) != 8 {
		t.Fatal("empty worker set must leave all nodes")
	}
}

func TestPinAllCores(t *testing.T) {
	m := topology.MachineB() // 7 cores per node
	got := PinAllCores(m, []topology.NodeID{0, 2})
	if len(got) != 2 || got[0] != 7 || got[1] != 7 {
		t.Fatalf("PinAllCores = %v", got)
	}
}
