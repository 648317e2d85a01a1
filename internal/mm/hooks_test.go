package mm

import (
	"fmt"

	"bwap/internal/topology"
)

// Accessors the tests use to drive and observe segments page by page.

// Segment returns the named segment, or nil.
func (as *AddressSpace) Segment(name string) *Segment { return as.byName[name] }

// Start returns the segment's base virtual address.
func (s *Segment) Start() uint64 { return s.start }

// Runs returns the number of placement runs the segment currently holds.
func (s *Segment) Runs() int { return len(s.runs) }

// Epoch returns the segment's placement-change counter. It advances on
// every operation that can alter the page→node assignment (faults, binds,
// migrations), conservatively including no-op re-binds, and never between
// them.
func (s *Segment) Epoch() uint64 { return s.epoch }

// Node returns the node of page i, or Unmapped. It panics for an
// out-of-range page, like an indexed per-page array would. A weighted
// pattern seeks its walk to page i, so a point query costs at most
// walkStride steps beyond extending the walk to the checkpoint at or below
// the page.
func (s *Segment) Node(i int) topology.NodeID {
	if i < 0 || i >= s.pageCount {
		panic(fmt.Sprintf("mm: %s: page %d out of range [0,%d)", s.name, i, s.pageCount))
	}
	c := s.runs[s.runIndex(i)].pat.cursorAt(i)
	return c.next()
}

// Fault maps page i onto node n if it is unmapped (first-touch semantics).
// It reports whether a new mapping was created. It panics for an
// out-of-range page, like an indexed per-page array would.
func (s *Segment) Fault(i int, n topology.NodeID) bool {
	if i < 0 || i >= s.pageCount {
		panic(fmt.Sprintf("mm: %s: page %d out of range [0,%d)", s.name, i, s.pageCount))
	}
	if s.runs[s.runIndex(i)].pat.mapped() {
		return false
	}
	s.replaceRange(i, i+1, pattern{kind: patSeq, origin: i, seq: s.as.single(n)}, false)
	return true
}
