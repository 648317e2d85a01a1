package numaapi

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"bwap/internal/mm"
	"bwap/internal/topology"
)

func TestBitmaskBasics(t *testing.T) {
	b := NewBitmask(0, 2, 5)
	if b != 1<<0|1<<2|1<<5 {
		t.Fatalf("membership wrong: %b", b)
	}
	if b.Count() != 3 {
		t.Fatalf("Count = %d, want 3", b.Count())
	}
	if b.Set(2) != b || b.Set(1).Count() != 4 {
		t.Fatalf("Set failed: %b", b)
	}
}

func TestBitmaskNodesSorted(t *testing.T) {
	b := NewBitmask(7, 1, 4)
	nodes := b.Nodes()
	want := []topology.NodeID{1, 4, 7}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("Nodes = %v, want %v", nodes, want)
		}
	}
}

func TestAllNodesAndComplement(t *testing.T) {
	all := AllNodes(8)
	if all.Count() != 8 {
		t.Fatalf("AllNodes(8).Count = %d", all.Count())
	}
	workers := NewBitmask(0, 1)
	if non := all &^ workers; non != NewBitmask(2, 3, 4, 5, 6, 7) {
		t.Fatalf("complement wrong: %v", non.Nodes())
	}
	if AllNodes(64).Count() != 64 {
		t.Fatalf("AllNodes(64) = %d bits", AllNodes(64).Count())
	}
}

func TestBitmaskString(t *testing.T) {
	cases := []struct {
		mask Bitmask
		want string
	}{
		{NewBitmask(), ""},
		{NewBitmask(3), "3"},
		{NewBitmask(0, 1, 2), "0-2"},
		{NewBitmask(0, 1, 2, 5), "0-2,5"},
		{NewBitmask(0, 2, 3, 4, 7), "0,2-4,7"},
	}
	for _, c := range cases {
		if got := c.mask.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.mask.Nodes(), got, c.want)
		}
	}
}

// referenceRangeString is the original Nodes-slice formulation of the
// numactl range rendering, kept verbatim as an oracle for the bit-twiddling
// AppendRanges rewrite: workerKey-style cache keys depend on the bytes not
// drifting.
func referenceRangeString(b Bitmask) string {
	nodes := b.Nodes()
	if len(nodes) == 0 {
		return ""
	}
	var parts []string
	start, prev := nodes[0], nodes[0]
	flush := func() {
		if start == prev {
			parts = append(parts, strconv.Itoa(int(start)))
		} else {
			parts = append(parts, fmt.Sprintf("%d-%d", start, prev))
		}
	}
	for _, n := range nodes[1:] {
		if n == prev+1 {
			prev = n
			continue
		}
		flush()
		start, prev = n, n
	}
	flush()
	return strings.Join(parts, ",")
}

func TestAppendRangesMatchesReference(t *testing.T) {
	for _, b := range []Bitmask{0, 1, Bitmask(1) << 63, ^Bitmask(0), NewBitmask(0, 2, 3, 4, 7, 63)} {
		if got, want := string(b.AppendRanges(nil)), referenceRangeString(b); got != want {
			t.Errorf("AppendRanges(%#x) = %q, want %q", uint64(b), got, want)
		}
	}
	f := func(raw uint64) bool {
		b := Bitmask(raw)
		return string(b.AppendRanges(nil)) == referenceRangeString(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestParseBitmask(t *testing.T) {
	b, err := ParseBitmask("0-2,5")
	if err != nil {
		t.Fatal(err)
	}
	if b != NewBitmask(0, 1, 2, 5) {
		t.Fatalf("parsed %v", b.Nodes())
	}
	if _, err := ParseBitmask("2-1"); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := ParseBitmask("x"); err == nil {
		t.Fatal("garbage accepted")
	}
	if b, err := ParseBitmask(""); err != nil || b != 0 {
		t.Fatal("empty string must parse to empty mask")
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	f := func(raw uint64) bool {
		b := Bitmask(raw)
		parsed, err := ParseBitmask(b.String())
		return err == nil && parsed == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInterleaveMemory(t *testing.T) {
	as := mm.NewAddressSpace(4)
	seg := as.AddSegment("d", mm.PageSize*8, mm.SharedOwner)
	if err := InterleaveMemory(seg, NewBitmask(0, 2)); err != nil {
		t.Fatal(err)
	}
	c := seg.Counts()
	if c[0] != 4 || c[2] != 4 {
		t.Fatalf("counts = %v", c)
	}
	if err := InterleaveMemory(seg, NewBitmask()); err == nil {
		t.Fatal("empty mask accepted")
	}
}

func TestWeightedInterleaveMemory(t *testing.T) {
	as := mm.NewAddressSpace(4)
	seg := as.AddSegment("d", mm.PageSize*100, mm.SharedOwner)
	if err := WeightedInterleaveMemory(seg, []float64{0.7, 0.3, 0, 0}); err != nil {
		t.Fatal(err)
	}
	c := seg.Counts()
	if c[0] != 70 || c[1] != 30 {
		t.Fatalf("counts = %v, want [70 30 0 0]", c)
	}
}

func TestSortedByWeight(t *testing.T) {
	w := []float64{0.4, 0.1, 0.1, 0.4}
	got := AppendSortedByWeight(nil, w, NewBitmask(0, 1, 2, 3))
	want := []topology.NodeID{1, 2, 0, 3} // ties break by id
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendSortedByWeight = %v, want %v", got, want)
		}
	}
}
