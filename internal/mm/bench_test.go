package mm

import (
	"testing"

	"bwap/internal/topology"
)

// BenchmarkMbindWeighted is one evaluation of the Figure 1b weight search
// on Streamcluster (SC) on Machine A: a fresh address space with SC's
// 1 GiB shared segment and the 2 worker nodes' private segments, each
// bound to the same 8-node weight vector.
func BenchmarkMbindWeighted(b *testing.B) {
	w := []float64{0.21, 0.19, 0.08, 0.07, 0.11, 0.12, 0.1, 0.12}
	privateGB := 0.02
	private := uint64(privateGB * float64(1<<30))
	b.ReportAllocs()
	for b.Loop() {
		as := NewAddressSpace(len(w))
		segs := []*Segment{
			as.AddSegment("shared", 1<<30, SharedOwner),
			as.AddSegment("priv-n0", private, topology.NodeID(0)),
			as.AddSegment("priv-n1", private, topology.NodeID(1)),
		}
		for _, s := range segs {
			if err := s.MbindWeighted(w, MoveFlag); err != nil {
				b.Fatal(err)
			}
		}
	}
}
