package core

import (
	"fmt"
	"math"

	"bwap/internal/mm"
	"bwap/internal/numaapi"
	"bwap/internal/stats"
	"bwap/internal/topology"
)

// UserLevelWeightedInterleave is Algorithm 1 of the paper: a portable,
// user-level approximation of weighted page interleaving built from uniform
// mbind calls over sub-ranges.
//
// The segment is carved into contiguous sub-ranges; the first is uniformly
// interleaved over all nodes, the second over all nodes except the one with
// the lowest weight, and so on. Sizing each sub-range as
// |nodes| · Δweight · segmentLength makes the aggregate per-node page
// ratios equal the requested weights.
//
// With mm.MoveFlag the call migrates pages that no longer conform — and, as
// Section III-B2 observes, when DWP grows each sub-range is re-bound over
// the same or a narrower node set than before, which plain mbind handles;
// the reverse direction (widening) is unsupported, which is why the DWP
// tuner never decreases DWP.
func UserLevelWeightedInterleave(seg *mm.Segment, weights []float64, flags mm.Flags) error {
	if len(weights) != seg.NumNodes() {
		return fmt.Errorf("core: %d weights for %d nodes", len(weights), seg.NumNodes())
	}
	for i, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("core: non-finite weight %v for node %d", w, i)
		}
		if w < 0 {
			return fmt.Errorf("core: negative weight %f for node %d", w, i)
		}
	}
	switch sum := stats.Sum(weights); {
	case sum <= 0:
		return fmt.Errorf("core: weights sum to zero")
	case math.IsInf(sum, 1):
		return fmt.Errorf("core: weights sum overflows")
	}
	// Stack scratch for the normalized weights and the sorted node order:
	// this runs once per placement and re-placement, and a 64-entry buffer
	// covers every Bitmask-addressable machine (append falls back to the
	// heap beyond that).
	var wbuf [64]float64
	w := stats.AppendNormalized(wbuf[:0], weights)

	// nodes, ordered by ascending weight (Algorithm 1's getNodeWithMinWeight
	// iteration), over the full node set; zero-weight nodes produce
	// zero-length sub-ranges and simply drop out first.
	mask := numaapi.AllNodes(len(w))
	var nbuf [64]topology.NodeID
	nodes := numaapi.AppendSortedByWeight(nbuf[:0], w, mask)

	length := float64(seg.Length())
	address := uint64(0)
	weightPrev := 0.0
	for i, node := range nodes {
		remaining := nodes[i:]
		delta := w[node] - weightPrev
		size := uint64(float64(len(remaining)) * delta * length)
		// Round to whole pages; the final sub-range absorbs the rounding
		// remainder so the whole segment is covered.
		size -= size % mm.PageSize
		if i == len(nodes)-1 {
			size = seg.Length() - address
		}
		if size > 0 {
			if err := seg.Mbind(address, size, remaining, flags); err != nil {
				return err
			}
			address += size
		}
		weightPrev = w[node]
	}
	return nil
}

// ApplyWeights places every segment of an address space according to the
// weight vector, via Algorithm 1 (userLevel) or the kernel-level weighted
// interleave system call; the paper reports the two differ by at most 3%.
func ApplyWeights(as *mm.AddressSpace, weights []float64, userLevel bool) error {
	for _, seg := range as.Segments() {
		var err error
		if userLevel {
			err = UserLevelWeightedInterleave(seg, weights, mm.MoveFlag|mm.StrictFlag)
		} else {
			err = seg.MbindWeighted(weights, mm.MoveFlag)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
