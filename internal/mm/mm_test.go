package mm

import (
	"math"
	"testing"
	"testing/quick"

	"bwap/internal/stats"
	"bwap/internal/topology"
)

func newAS(t *testing.T) *AddressSpace {
	t.Helper()
	return NewAddressSpace(4)
}

func TestAddSegmentRoundsToPages(t *testing.T) {
	as := newAS(t)
	s := as.AddSegment("heap", PageSize*3+1, SharedOwner)
	if s.PageCount() != 4 {
		t.Fatalf("PageCount = %d, want 4", s.PageCount())
	}
	if s.Length() != 4*PageSize {
		t.Fatalf("Length = %d, want %d", s.Length(), 4*PageSize)
	}
	if s.MappedPages() != 0 {
		t.Fatalf("fresh segment has %d mapped pages", s.MappedPages())
	}
}

func TestSegmentAddressesDisjoint(t *testing.T) {
	as := newAS(t)
	a := as.AddSegment("a", PageSize*8, SharedOwner)
	b := as.AddSegment("b", PageSize*8, SharedOwner)
	if a.Start()+a.Length() > b.Start() {
		t.Fatalf("segments overlap: a=[%d,%d) b starts at %d", a.Start(), a.Start()+a.Length(), b.Start())
	}
}

func TestDuplicateSegmentPanics(t *testing.T) {
	as := newAS(t)
	as.AddSegment("x", PageSize, SharedOwner)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate segment name did not panic")
		}
	}()
	as.AddSegment("x", PageSize, SharedOwner)
}

func TestZeroLengthSegmentPanics(t *testing.T) {
	as := newAS(t)
	defer func() {
		if recover() == nil {
			t.Fatal("zero-length segment did not panic")
		}
	}()
	as.AddSegment("z", 0, SharedOwner)
}

func TestFirstTouchSemantics(t *testing.T) {
	as := newAS(t)
	s := as.AddSegment("d", PageSize*4, SharedOwner)
	if !s.Fault(0, 2) {
		t.Fatal("first fault reported no new mapping")
	}
	if s.Fault(0, 3) {
		t.Fatal("second fault on same page reported a new mapping")
	}
	if s.Node(0) != 2 {
		t.Fatalf("page 0 on node %d, want first-touch node 2", s.Node(0))
	}
	if as.TotalMigratedBytes() != 0 {
		t.Fatal("fault counted as migration")
	}
}

func TestFaultAll(t *testing.T) {
	as := newAS(t)
	s := as.AddSegment("d", PageSize*10, SharedOwner)
	s.Fault(3, 1)
	s.FaultAll(0)
	if s.MappedPages() != 10 {
		t.Fatalf("mapped = %d, want 10", s.MappedPages())
	}
	c := s.Counts()
	if c[0] != 9 || c[1] != 1 {
		t.Fatalf("counts = %v, want [9 1 0 0]", c)
	}
}

func TestMbindUniformInterleave(t *testing.T) {
	as := newAS(t)
	s := as.AddSegment("d", PageSize*12, SharedOwner)
	if err := s.Mbind(0, s.Length(), []topology.NodeID{0, 1, 2}, 0); err != nil {
		t.Fatal(err)
	}
	c := s.Counts()
	if c[0] != 4 || c[1] != 4 || c[2] != 4 || c[3] != 0 {
		t.Fatalf("counts = %v, want [4 4 4 0]", c)
	}
	// Round-robin page order.
	for p := 0; p < 12; p++ {
		if want := topology.NodeID(p % 3); s.Node(p) != want {
			t.Fatalf("page %d on node %d, want %d", p, s.Node(p), want)
		}
	}
}

func TestMbindRangeOriginIsRangeStart(t *testing.T) {
	// Each mbind call interleaves relative to its own range start — the
	// property Algorithm 1 depends on.
	as := newAS(t)
	s := as.AddSegment("d", PageSize*8, SharedOwner)
	if err := s.Mbind(4*PageSize, 4*PageSize, []topology.NodeID{2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	if s.Node(4) != 2 || s.Node(5) != 3 || s.Node(6) != 2 || s.Node(7) != 3 {
		t.Fatalf("range interleave wrong: %v %v %v %v", s.Node(4), s.Node(5), s.Node(6), s.Node(7))
	}
	if s.Node(0) != Unmapped {
		t.Fatal("mbind leaked outside its range")
	}
}

func TestMbindWithoutMoveLeavesMappedPages(t *testing.T) {
	as := newAS(t)
	s := as.AddSegment("d", PageSize*4, SharedOwner)
	s.FaultAll(3)
	if err := s.Mbind(0, s.Length(), []topology.NodeID{0, 1}, 0); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		if s.Node(p) != 3 {
			t.Fatalf("page %d migrated without MoveFlag", p)
		}
	}
	if as.TotalMigratedBytes() != 0 {
		t.Fatal("migration counted without MoveFlag")
	}
}

func TestMbindMoveMigratesAndCounts(t *testing.T) {
	as := newAS(t)
	s := as.AddSegment("d", PageSize*4, SharedOwner)
	s.FaultAll(3)
	if err := s.Mbind(0, s.Length(), []topology.NodeID{0, 1}, MoveFlag|StrictFlag); err != nil {
		t.Fatal(err)
	}
	c := s.Counts()
	if c[0] != 2 || c[1] != 2 || c[3] != 0 {
		t.Fatalf("counts = %v, want [2 2 0 0]", c)
	}
	if as.TotalMigratedBytes() != 4*PageSize {
		t.Fatalf("migrated = %d, want %d", as.TotalMigratedBytes(), 4*PageSize)
	}
}

func TestMbindMoveIdempotentNoExtraMigration(t *testing.T) {
	as := newAS(t)
	s := as.AddSegment("d", PageSize*8, SharedOwner)
	nodes := []topology.NodeID{0, 1, 2, 3}
	if err := s.Mbind(0, s.Length(), nodes, MoveFlag); err != nil {
		t.Fatal(err)
	}
	before := as.TotalMigratedBytes()
	if err := s.Mbind(0, s.Length(), nodes, MoveFlag); err != nil {
		t.Fatal(err)
	}
	if as.TotalMigratedBytes() != before {
		t.Fatal("re-applying identical policy migrated pages")
	}
}

func TestMbindErrors(t *testing.T) {
	as := newAS(t)
	s := as.AddSegment("d", PageSize*4, SharedOwner)
	if err := s.Mbind(0, PageSize, nil, 0); err == nil {
		t.Fatal("empty node set accepted")
	}
	if err := s.Mbind(0, PageSize, []topology.NodeID{9}, 0); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	// Out-of-segment offset is a silent no-op (mirrors clamping).
	if err := s.Mbind(s.Length()+PageSize, PageSize, []topology.NodeID{0}, 0); err != nil {
		t.Fatal(err)
	}
	if s.MappedPages() != 0 {
		t.Fatal("out-of-range mbind mapped pages")
	}
}

func TestMbindRangeClampedToSegment(t *testing.T) {
	as := newAS(t)
	s := as.AddSegment("d", PageSize*4, SharedOwner)
	if err := s.Mbind(2*PageSize, 100*PageSize, []topology.NodeID{1}, 0); err != nil {
		t.Fatal(err)
	}
	if s.MappedPages() != 2 {
		t.Fatalf("mapped = %d, want 2 (clamped)", s.MappedPages())
	}
}

func TestMbindWeightedMatchesWeights(t *testing.T) {
	as := newAS(t)
	s := as.AddSegment("d", PageSize*1000, SharedOwner)
	w := []float64{0.5, 0.3, 0.2, 0}
	if err := s.MbindWeighted(w, 0); err != nil {
		t.Fatal(err)
	}
	fr := s.Fractions()
	for n := range w {
		if math.Abs(fr[n]-w[n]) > 0.01 {
			t.Fatalf("fraction[%d] = %v, want %v", n, fr[n], w[n])
		}
	}
	if s.Counts()[3] != 0 {
		t.Fatal("zero-weight node received pages")
	}
}

func TestMbindWeightedPrefixProperty(t *testing.T) {
	// Bresenham assignment: every prefix approximates the weights, so the
	// distribution holds even if the application only touches part of the
	// segment.
	as := newAS(t)
	s := as.AddSegment("d", PageSize*1000, SharedOwner)
	w := []float64{0.4, 0.4, 0.1, 0.1}
	if err := s.MbindWeighted(w, 0); err != nil {
		t.Fatal(err)
	}
	counts := make([]float64, 4)
	for p := 0; p < 250; p++ {
		counts[s.Node(p)]++
	}
	for n := range w {
		if math.Abs(counts[n]/250-w[n]) > 0.05 {
			t.Fatalf("prefix fraction[%d] = %v, want ~%v", n, counts[n]/250, w[n])
		}
	}
}

func TestMbindWeightedNormalizesWeights(t *testing.T) {
	as := newAS(t)
	s := as.AddSegment("d", PageSize*100, SharedOwner)
	if err := s.MbindWeighted([]float64{5, 5, 0, 0}, 0); err != nil {
		t.Fatal(err)
	}
	c := s.Counts()
	if c[0] != 50 || c[1] != 50 {
		t.Fatalf("counts = %v, want [50 50 0 0]", c)
	}
}

func TestMbindWeightedErrors(t *testing.T) {
	as := newAS(t)
	s := as.AddSegment("d", PageSize*4, SharedOwner)
	for _, c := range []struct {
		name    string
		weights []float64
	}{
		{"wrong weight count", []float64{1, 1}},
		{"negative weight", []float64{1, -1, 0, 0}},
		{"zero weights", []float64{0, 0, 0, 0}},
		{"NaN weight", []float64{math.NaN(), 1, 1, 1}},
		{"+Inf weight", []float64{1, math.Inf(1), 1, 1}},
		{"overflowing sum", []float64{math.MaxFloat64, math.MaxFloat64, 0, 0}},
	} {
		if err := s.MbindWeighted(c.weights, 0); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	if s.MappedPages() != 0 {
		t.Fatalf("rejected calls mapped %d pages", s.MappedPages())
	}
}

func TestMbindWeightedPropertyFractions(t *testing.T) {
	rng := stats.NewRand(99)
	f := func(a, b, c, d uint8) bool {
		w := []float64{float64(a), float64(b), float64(c), float64(d%8) + 1} // ensure positive sum
		as := NewAddressSpace(4)
		s := as.AddSegment("d", PageSize*2048, SharedOwner)
		if err := s.MbindWeighted(w, 0); err != nil {
			return false
		}
		sum := w[0] + w[1] + w[2] + w[3]
		fr := s.Fractions()
		for n := range w {
			if math.Abs(fr[n]-w[n]/sum) > 0.01 {
				return false
			}
		}
		_ = rng
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateTowardRespectsBudget(t *testing.T) {
	as := newAS(t)
	s := as.AddSegment("d", PageSize*100, SharedOwner)
	s.FaultAll(0)
	target := []float64{0, 1, 0, 0}
	moved, err := s.MigrateToward(target, 10*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 10*PageSize {
		t.Fatalf("moved = %d, want %d", moved, 10*PageSize)
	}
	if s.Counts()[1] != 10 {
		t.Fatalf("counts = %v, want 10 pages on node 1", s.Counts())
	}
}

func TestMigrateTowardConverges(t *testing.T) {
	as := newAS(t)
	s := as.AddSegment("d", PageSize*100, SharedOwner)
	s.FaultAll(0)
	target := []float64{0.25, 0.25, 0.25, 0.25}
	for i := 0; i < 20; i++ {
		if _, err := s.MigrateToward(target, 1<<30); err != nil {
			t.Fatal(err)
		}
	}
	fr := s.Fractions()
	for n := range target {
		if math.Abs(fr[n]-0.25) > 0.02 {
			t.Fatalf("fraction[%d] = %v after convergence, want 0.25", n, fr[n])
		}
	}
	// Converged: further calls migrate nothing.
	moved, _ := s.MigrateToward(target, 1<<30)
	if moved != 0 {
		t.Fatalf("converged segment still moved %d bytes", moved)
	}
}

func TestMigrateTowardPreservesPageCount(t *testing.T) {
	as := newAS(t)
	s := as.AddSegment("d", PageSize*64, SharedOwner)
	s.FaultAll(2)
	if _, err := s.MigrateToward([]float64{0.5, 0.5, 0, 0}, 1<<30); err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, c := range s.Counts() {
		total += c
	}
	if total != 64 {
		t.Fatalf("page count changed: %d, want 64", total)
	}
	if s.MappedPages() != 64 {
		t.Fatalf("mapped changed: %d", s.MappedPages())
	}
}

func TestMigrateTowardErrors(t *testing.T) {
	as := newAS(t)
	s := as.AddSegment("d", PageSize*4, SharedOwner)
	if _, err := s.MigrateToward([]float64{1}, PageSize); err == nil {
		t.Fatal("wrong target length accepted")
	}
}

func TestDrainMigratedBytes(t *testing.T) {
	as := newAS(t)
	s := as.AddSegment("d", PageSize*4, SharedOwner)
	s.FaultAll(0)
	if err := s.Mbind(0, s.Length(), []topology.NodeID{1}, MoveFlag); err != nil {
		t.Fatal(err)
	}
	if got := as.DrainMigratedBytes(); got != 4*PageSize {
		t.Fatalf("drain = %d, want %d", got, 4*PageSize)
	}
	if got := as.DrainMigratedBytes(); got != 0 {
		t.Fatalf("second drain = %d, want 0", got)
	}
	if as.TotalMigratedBytes() != 4*PageSize {
		t.Fatal("TotalMigratedBytes must survive draining")
	}
}

func TestDistributionAggregatesSegments(t *testing.T) {
	as := newAS(t)
	a := as.AddSegment("a", PageSize*4, SharedOwner)
	b := as.AddSegment("b", PageSize*4, topology.NodeID(1))
	a.FaultAll(0)
	b.FaultAll(1)
	d := as.Distribution()
	if d[0] != 4 || d[1] != 4 || d[2] != 0 {
		t.Fatalf("distribution = %v", d)
	}
}

func TestFractionsUnmappedSegment(t *testing.T) {
	as := newAS(t)
	s := as.AddSegment("d", PageSize*4, SharedOwner)
	for _, f := range s.Fractions() {
		if f != 0 {
			t.Fatal("unmapped segment has nonzero fractions")
		}
	}
}

func TestSegmentLookup(t *testing.T) {
	as := newAS(t)
	as.AddSegment("heap", PageSize, SharedOwner)
	if as.Segment("heap") == nil {
		t.Fatal("Segment lookup failed")
	}
	if as.Segment("nope") != nil {
		t.Fatal("Segment lookup invented a segment")
	}
	if len(as.Segments()) != 1 {
		t.Fatal("Segments() wrong length")
	}
}

func TestOwnerRecorded(t *testing.T) {
	as := newAS(t)
	s := as.AddSegment("p", PageSize, topology.NodeID(2))
	if s.Owner() != 2 {
		t.Fatalf("owner = %d, want 2", s.Owner())
	}
	sh := as.AddSegment("s", PageSize, SharedOwner)
	if sh.Owner() != SharedOwner {
		t.Fatalf("owner = %d, want SharedOwner", sh.Owner())
	}
}

func TestMbindNodeOrderIrrelevant(t *testing.T) {
	// The kernel represents the interleave set as a bitmask; caller order
	// must not matter.
	a := NewAddressSpace(4)
	sa := a.AddSegment("d", PageSize*12, SharedOwner)
	if err := sa.Mbind(0, sa.Length(), []topology.NodeID{2, 0, 1}, 0); err != nil {
		t.Fatal(err)
	}
	b := NewAddressSpace(4)
	sb := b.AddSegment("d", PageSize*12, SharedOwner)
	if err := sb.Mbind(0, sb.Length(), []topology.NodeID{0, 1, 2}, 0); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 12; p++ {
		if sa.Node(p) != sb.Node(p) {
			t.Fatalf("page %d differs by caller order: %v vs %v", p, sa.Node(p), sb.Node(p))
		}
	}
	// Duplicates are collapsed.
	c := NewAddressSpace(4)
	sc := c.AddSegment("d", PageSize*12, SharedOwner)
	if err := sc.Mbind(0, sc.Length(), []topology.NodeID{1, 1, 0}, 0); err != nil {
		t.Fatal(err)
	}
	counts := sc.Counts()
	if counts[0] != 6 || counts[1] != 6 {
		t.Fatalf("dedup failed: %v", counts)
	}
}

// TestPlacementEpochs pins the invalidation contract behind the engine's
// quiescent-interval fast-forward: every operation that can change a
// page→node assignment advances both the segment's Epoch and the address
// space's aggregated PlacementEpoch; pure reads never do.
func TestPlacementEpochs(t *testing.T) {
	as := NewAddressSpace(4)
	base := as.PlacementEpoch()
	s := as.AddSegment("d", PageSize*16, SharedOwner)
	if as.PlacementEpoch() == base {
		t.Fatal("AddSegment did not advance the address-space epoch")
	}

	// Each mutation class advances both counters.
	step := func(name string, f func()) {
		t.Helper()
		se, ae := s.Epoch(), as.PlacementEpoch()
		f()
		if s.Epoch() == se {
			t.Fatalf("%s did not advance the segment epoch", name)
		}
		if as.PlacementEpoch() == ae {
			t.Fatalf("%s did not advance the address-space epoch", name)
		}
	}
	step("Fault", func() { s.Fault(3, 1) })
	step("FaultAll", func() { s.FaultAll(0) })
	step("Mbind", func() {
		if err := s.Mbind(0, s.Length(), []topology.NodeID{0, 1}, MoveFlag); err != nil {
			t.Fatal(err)
		}
	})
	// A re-bind of the identical range and set is conservatively counted
	// as a change (the runs are rebuilt either way).
	step("no-op re-bind", func() {
		if err := s.Mbind(0, s.Length(), []topology.NodeID{0, 1}, MoveFlag); err != nil {
			t.Fatal(err)
		}
	})
	step("MbindWeighted", func() {
		if err := s.MbindWeighted([]float64{0.5, 0.3, 0.2, 0}, MoveFlag); err != nil {
			t.Fatal(err)
		}
	})
	step("MigrateToward", func() {
		if n, err := s.MigrateToward([]float64{0, 0, 0, 1}, PageSize*4); err != nil || n == 0 {
			t.Fatalf("migrate moved %d bytes, err %v", n, err)
		}
	})

	// Reads and ineffective operations stand still.
	se, ae := s.Epoch(), as.PlacementEpoch()
	_ = s.Fractions()
	_ = s.Counts()
	_ = s.Node(5)
	s.Fault(3, 2) // already mapped: first-touch is a no-op
	if n, err := s.MigrateToward([]float64{0, 0, 0, 1}, 0); err != nil || n != 0 {
		t.Fatalf("zero-budget migrate moved %d bytes, err %v", n, err)
	}
	if s.Epoch() != se || as.PlacementEpoch() != ae {
		t.Fatal("reads or no-op operations advanced an epoch")
	}
}
