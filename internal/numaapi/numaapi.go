// Package numaapi provides a libnuma-flavoured interface over the simulated
// memory subsystem. BWAP is "implemented as an extension to Linux libnuma"
// (Section I): it enriches the stock interface with a bw-interleaved policy.
// This package supplies the stock part — node masks, uniform interleaving,
// mbind wrappers — mirroring the names a libnuma user would reach for, so
// that the core package's extension point matches the paper's.
package numaapi

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"bwap/internal/mm"
	"bwap/internal/topology"
)

// Bitmask is a fixed-width node bitmask, the moral equivalent of libnuma's
// struct bitmask. It supports machines with up to 64 nodes, which covers
// every commodity NUMA system the paper considers.
type Bitmask uint64

// NewBitmask returns a mask with the given nodes set.
func NewBitmask(nodes ...topology.NodeID) Bitmask {
	var b Bitmask
	for _, n := range nodes {
		b = b.Set(n)
	}
	return b
}

// AllNodes returns a mask with nodes [0, n) set.
func AllNodes(n int) Bitmask {
	if n >= 64 {
		return ^Bitmask(0)
	}
	return Bitmask(1)<<uint(n) - 1
}

// Set returns b with node n set.
func (b Bitmask) Set(n topology.NodeID) Bitmask { return b | 1<<uint(n) }

// Count returns the number of set nodes.
func (b Bitmask) Count() int { return bits.OnesCount64(uint64(b)) }

// Nodes returns the set nodes in ascending order.
func (b Bitmask) Nodes() []topology.NodeID {
	out := make([]topology.NodeID, 0, b.Count())
	for v := uint64(b); v != 0; {
		n := bits.TrailingZeros64(v)
		out = append(out, topology.NodeID(n))
		v &^= 1 << uint(n)
	}
	return out
}

// String renders the mask in numactl range syntax, e.g. "0-2,5".
func (b Bitmask) String() string {
	if b == 0 {
		return ""
	}
	var buf [256]byte
	return string(b.AppendRanges(buf[:0]))
}

// AppendRanges appends the numactl range rendering of b (the same bytes
// String returns) to dst — for callers building cache keys without the
// intermediate node slice, parts slice and join that a naive rendering
// costs.
func (b Bitmask) AppendRanges(dst []byte) []byte {
	v := uint64(b)
	first := true
	for v != 0 {
		start := bits.TrailingZeros64(v)
		end := start
		for end < 63 && v&(1<<uint(end+1)) != 0 {
			end++
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = strconv.AppendInt(dst, int64(start), 10)
		if end > start {
			dst = append(dst, '-')
			dst = strconv.AppendInt(dst, int64(end), 10)
		}
		// Clear [start, end]; a shift count of 64 yields 0 in Go, so the
		// end == 63 case clears through the top bit correctly.
		v &^= (uint64(1)<<uint(end+1) - 1) &^ (uint64(1)<<uint(start) - 1)
	}
	return dst
}

// ParseBitmask parses numactl range syntax ("0-2,5") into a mask.
func ParseBitmask(s string) (Bitmask, error) {
	var b Bitmask
	if strings.TrimSpace(s) == "" {
		return 0, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			l, err := strconv.Atoi(strings.TrimSpace(lo))
			if err != nil {
				return 0, fmt.Errorf("numaapi: bad range %q: %v", part, err)
			}
			h, err := strconv.Atoi(strings.TrimSpace(hi))
			if err != nil {
				return 0, fmt.Errorf("numaapi: bad range %q: %v", part, err)
			}
			if l > h || l < 0 || h > 63 {
				return 0, fmt.Errorf("numaapi: bad range %q", part)
			}
			for n := l; n <= h; n++ {
				b = b.Set(topology.NodeID(n))
			}
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 0 || n > 63 {
			return 0, fmt.Errorf("numaapi: bad node %q", part)
		}
		b = b.Set(topology.NodeID(n))
	}
	return b, nil
}

// InterleaveMemory applies numa_interleave_memory semantics: uniform page
// interleaving of the whole segment over the masked nodes, migrating
// non-conforming pages.
func InterleaveMemory(seg *mm.Segment, mask Bitmask) error {
	if mask.Count() == 0 {
		return fmt.Errorf("numaapi: interleave with empty node mask")
	}
	return seg.Mbind(0, seg.Length(), mask.Nodes(), mm.MoveFlag)
}

// WeightedInterleaveMemory applies the kernel-level weighted interleave
// policy the paper adds behind a new system call (Section III-B2).
func WeightedInterleaveMemory(seg *mm.Segment, weights []float64) error {
	return seg.MbindWeighted(weights, mm.MoveFlag)
}

// AppendSortedByWeight appends the masked nodes ordered by ascending
// weight onto dst and returns the extended slice — the iteration order of
// Algorithm 1 ("getNodeWithMinWeight"). Ties break by node id for
// determinism. It allocates nothing when dst has room.
func AppendSortedByWeight(dst []topology.NodeID, weights []float64, mask Bitmask) []topology.NodeID {
	base := len(dst)
	for v := uint64(mask); v != 0; {
		n := bits.TrailingZeros64(v)
		dst = append(dst, topology.NodeID(n))
		v &^= 1 << uint(n)
	}
	nodes := dst[base:]
	// Insertion sort: masks hold at most machine-sized node counts, and
	// this runs per placement inside Algorithm 1 — the sort.SliceStable
	// closure and reflection swapper were measurable allocation traffic.
	// The weight-then-id order is total, so stability is moot but
	// insertion sort preserves it anyway.
	for i := 1; i < len(nodes); i++ {
		for j := i; j > 0; j-- {
			wi, wj := weights[nodes[j]], weights[nodes[j-1]]
			if wi > wj || (wi == wj && nodes[j] > nodes[j-1]) {
				break
			}
			nodes[j], nodes[j-1] = nodes[j-1], nodes[j]
		}
	}
	return dst
}
