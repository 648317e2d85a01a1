package core

import (
	"math"
	"testing"
	"testing/quick"

	"bwap/internal/mm"
	"bwap/internal/stats"
	"bwap/internal/topology"
)

func TestDWPWeightsEndpoints(t *testing.T) {
	canonical := []float64{0.1, 0.2, 0.3, 0.4}
	workers := []topology.NodeID{2, 3}
	// δ=0 must reproduce the canonical distribution.
	w0, err := DWPWeights(canonical, workers, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range canonical {
		if math.Abs(w0[i]-canonical[i]) > 1e-12 {
			t.Fatalf("δ=0 weights %v != canonical %v", w0, canonical)
		}
	}
	// δ=1 must map everything onto the workers.
	w1, err := DWPWeights(canonical, workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w1[0] != 0 || w1[1] != 0 {
		t.Fatalf("δ=1 leaked weight to non-workers: %v", w1)
	}
	if math.Abs(w1[2]+w1[3]-1) > 1e-12 {
		t.Fatalf("δ=1 worker mass %v != 1", w1[2]+w1[3])
	}
	// Intra-set ratios preserved: 0.3:0.4.
	if math.Abs(w1[2]/w1[3]-0.75) > 1e-9 {
		t.Fatalf("worker ratio lost: %v", w1)
	}
}

func TestDWPWeightsPreservesRelativeWeights(t *testing.T) {
	canonical := []float64{0.25, 0.15, 0.35, 0.25}
	workers := []topology.NodeID{0}
	w, err := DWPWeights(canonical, workers, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Non-worker ratios must match canonical ratios (Observation 3).
	want12 := canonical[1] / canonical[2]
	if math.Abs(w[1]/w[2]-want12) > 1e-9 {
		t.Fatalf("non-worker ratio drifted: %v", w)
	}
	// Worker aggregate = Cw + δ·Cn = 0.25 + 0.5·0.75 = 0.625.
	if math.Abs(w[0]-0.625) > 1e-9 {
		t.Fatalf("worker share = %v, want 0.625", w[0])
	}
	if math.Abs(stats.Sum(w)-1) > 1e-9 {
		t.Fatalf("weights do not sum to 1: %v", w)
	}
}

func TestDWPWeightsPropertyMonotoneWorkerShare(t *testing.T) {
	f := func(a, b, c, d uint8, step uint8) bool {
		canonical := stats.Normalize([]float64{float64(a) + 1, float64(b) + 1, float64(c) + 1, float64(d) + 1})
		workers := []topology.NodeID{1, 2}
		prev := -1.0
		for dwp := 0.0; dwp <= 1.0; dwp += 0.1 {
			w, err := DWPWeights(canonical, workers, dwp)
			if err != nil {
				return false
			}
			if math.Abs(stats.Sum(w)-1) > 1e-9 {
				return false
			}
			share := w[1] + w[2]
			if share < prev-1e-9 {
				return false
			}
			prev = share
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDWPWeightsErrors(t *testing.T) {
	canonical := []float64{0.5, 0.5}
	for _, c := range []struct {
		name      string
		canonical []float64
		worker    topology.NodeID
		dwp       float64
	}{
		{"negative DWP", canonical, 0, -0.5},
		{"DWP > 1", canonical, 0, 1.5},
		{"NaN DWP", canonical, 0, math.NaN()},
		{"out-of-range worker", canonical, 7, 0.5},
		{"zero worker mass", []float64{0, 1}, 0, 0.5},
	} {
		if w, err := DWPWeights(c.canonical, []topology.NodeID{c.worker}, c.dwp); err == nil {
			t.Errorf("%s accepted: %v", c.name, w)
		}
	}
}

func TestAlgorithm1MatchesWeights(t *testing.T) {
	as := mm.NewAddressSpace(4)
	seg := as.AddSegment("d", mm.PageSize*4000, mm.SharedOwner)
	w := []float64{0.4, 0.3, 0.2, 0.1}
	if err := UserLevelWeightedInterleave(seg, w, mm.MoveFlag); err != nil {
		t.Fatal(err)
	}
	fr := seg.Fractions()
	for n := range w {
		if math.Abs(fr[n]-w[n]) > 0.02 {
			t.Fatalf("fraction[%d] = %v, want %v (Algorithm 1 sub-range sizing)", n, fr[n], w[n])
		}
	}
	if seg.MappedPages() != seg.PageCount() {
		t.Fatalf("Algorithm 1 left pages unmapped: %d/%d", seg.MappedPages(), seg.PageCount())
	}
}

func TestAlgorithm1ZeroWeightNodesGetNothing(t *testing.T) {
	as := mm.NewAddressSpace(4)
	seg := as.AddSegment("d", mm.PageSize*1024, mm.SharedOwner)
	w := []float64{0.6, 0, 0.4, 0}
	if err := UserLevelWeightedInterleave(seg, w, mm.MoveFlag); err != nil {
		t.Fatal(err)
	}
	c := seg.Counts()
	if c[1] != 0 || c[3] != 0 {
		t.Fatalf("zero-weight nodes received pages: %v", c)
	}
	fr := seg.Fractions()
	if math.Abs(fr[0]-0.6) > 0.02 || math.Abs(fr[2]-0.4) > 0.02 {
		t.Fatalf("fractions = %v", fr)
	}
}

func TestAlgorithm1PropertyRandomWeights(t *testing.T) {
	f := func(a, b, c, d, e, f2, g, h uint8) bool {
		raw := []float64{float64(a), float64(b), float64(c), float64(d),
			float64(e), float64(f2), float64(g), float64(h%16) + 1}
		w := stats.Normalize(raw)
		as := mm.NewAddressSpace(8)
		seg := as.AddSegment("d", mm.PageSize*8192, mm.SharedOwner)
		if err := UserLevelWeightedInterleave(seg, w, mm.MoveFlag); err != nil {
			return false
		}
		fr := seg.Fractions()
		for n := range w {
			// User-level interleaving is approximate (Section III-B2); the
			// error must stay small on a few thousand pages.
			if math.Abs(fr[n]-w[n]) > 0.03 {
				return false
			}
		}
		return seg.MappedPages() == seg.PageCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAlgorithm1CloseToKernelLevel(t *testing.T) {
	// The paper reports the user-level approximation within ~3% of the
	// kernel implementation; at page-distribution level they must agree.
	w := []float64{0.35, 0.3, 0.05, 0.3}
	asU := mm.NewAddressSpace(4)
	segU := asU.AddSegment("d", mm.PageSize*4096, mm.SharedOwner)
	if err := UserLevelWeightedInterleave(segU, w, mm.MoveFlag); err != nil {
		t.Fatal(err)
	}
	asK := mm.NewAddressSpace(4)
	segK := asK.AddSegment("d", mm.PageSize*4096, mm.SharedOwner)
	if err := segK.MbindWeighted(w, mm.MoveFlag); err != nil {
		t.Fatal(err)
	}
	fu, fk := segU.Fractions(), segK.Fractions()
	for n := range w {
		if math.Abs(fu[n]-fk[n]) > 0.03 {
			t.Fatalf("user vs kernel fraction[%d]: %v vs %v", n, fu[n], fk[n])
		}
	}
}

func TestAlgorithm1NarrowingMigratesIncrementally(t *testing.T) {
	// Raising DWP narrows the interleave sets; re-applying must migrate
	// only part of the segment, not rewrite everything.
	canonical := []float64{0.25, 0.25, 0.25, 0.25}
	workers := []topology.NodeID{0, 1}
	as := mm.NewAddressSpace(4)
	seg := as.AddSegment("d", mm.PageSize*4096, mm.SharedOwner)
	w0, _ := DWPWeights(canonical, workers, 0)
	if err := UserLevelWeightedInterleave(seg, w0, mm.MoveFlag); err != nil {
		t.Fatal(err)
	}
	as.DrainMigratedBytes()
	w1, _ := DWPWeights(canonical, workers, 0.1)
	if err := UserLevelWeightedInterleave(seg, w1, mm.MoveFlag); err != nil {
		t.Fatal(err)
	}
	moved := as.DrainMigratedBytes()
	total := int64(seg.PageCount()) * mm.PageSize
	if moved == 0 {
		t.Fatal("DWP step migrated nothing")
	}
	if moved > total/2 {
		t.Fatalf("DWP step rewrote %d of %d bytes; not incremental", moved, total)
	}
	// Distribution must now match the δ=0.1 weights.
	fr := seg.Fractions()
	for n := range w1 {
		if math.Abs(fr[n]-w1[n]) > 0.03 {
			t.Fatalf("fraction[%d] = %v, want %v", n, fr[n], w1[n])
		}
	}
}

func TestAlgorithm1Errors(t *testing.T) {
	as := mm.NewAddressSpace(2)
	seg := as.AddSegment("d", mm.PageSize*16, mm.SharedOwner)
	for _, c := range []struct {
		name    string
		weights []float64
	}{
		{"wrong length", []float64{1}},
		{"negative weight", []float64{-1, 2}},
		{"zero weights", []float64{0, 0}},
		{"NaN weight", []float64{math.NaN(), 1}},
		{"+Inf weight", []float64{1, math.Inf(1)}},
		{"overflowing sum", []float64{math.MaxFloat64, math.MaxFloat64}},
	} {
		if err := UserLevelWeightedInterleave(seg, c.weights, 0); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	if seg.MappedPages() != 0 {
		t.Fatalf("rejected calls mapped %d pages", seg.MappedPages())
	}
}

func TestApplyWeightsBothPaths(t *testing.T) {
	for _, userLevel := range []bool{true, false} {
		as := mm.NewAddressSpace(4)
		as.AddSegment("a", mm.PageSize*512, mm.SharedOwner)
		as.AddSegment("b", mm.PageSize*512, topology.NodeID(1))
		w := []float64{0.5, 0.5, 0, 0}
		if err := ApplyWeights(as, w, userLevel); err != nil {
			t.Fatal(err)
		}
		d := as.Distribution()
		if d[2] != 0 || d[3] != 0 {
			t.Fatalf("userLevel=%v: zero-weight nodes got pages: %v", userLevel, d)
		}
		if math.Abs(float64(d[0])-float64(d[1])) > 40 {
			t.Fatalf("userLevel=%v: unbalanced: %v", userLevel, d)
		}
	}
}

func TestMinBWAndWeights(t *testing.T) {
	matrix := [][]float64{
		{9, 4, 1, 1},
		{4, 9, 1, 1},
		{2, 6, 9, 1},
		{3, 2, 1, 9},
	}
	workers := []topology.NodeID{0, 1}
	minbw := MinBW(matrix, workers)
	want := []float64{4, 4, 2, 2} // min over the two worker columns
	for i := range want {
		if minbw[i] != want[i] {
			t.Fatalf("minbw = %v, want %v", minbw, want)
		}
	}
	w := WeightsFromMinBW(minbw)
	if math.Abs(stats.Sum(w)-1) > 1e-12 {
		t.Fatalf("weights sum %v", stats.Sum(w))
	}
	if math.Abs(w[0]-4.0/12.0) > 1e-12 {
		t.Fatalf("w[0] = %v, want 1/3", w[0])
	}
}
