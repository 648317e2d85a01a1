package mm

import (
	"testing"

	"bwap/internal/topology"
)

// FuzzSegmentEquivalence fuzzes the interval split/merge path against the
// per-page reference implementation: the input bytes decode to an
// operation stream (faults, unaligned mbinds, weighted interleaves,
// migration drains and rate-limited migrations) driven through both a
// run-length Segment and a refSegment, with full state equivalence —
// node assignments, counts, fractions, migration volume — demanded after
// every operation. The seed corpus below runs in a plain `go test`, so CI
// exercises every opcode without -fuzz; `go test -fuzz
// FuzzSegmentEquivalence ./internal/mm` explores further.
//
// This closes the gap left by the randomized-but-not-fuzzed equivalence
// test: rand-driven sequences only ever sample the generator's
// distribution, while the fuzzer mutates the raw operand bytes — page
// indexes on run boundaries, zero-length binds, degenerate weight
// vectors — exactly where split/merge bookkeeping breaks.
func FuzzSegmentEquivalence(f *testing.F) {
	// One seed per opcode plus mixed streams, with operands chosen to sit
	// on interesting boundaries (page 0, full-range binds, zero weights).
	f.Add([]byte{40, 0, 0, 0, 5, 1, 0, 0, 0, 0})                         // single fault
	f.Add([]byte{12, 0, 1, 2, 0, 0, 0, 0, 0, 0})                         // fault everything
	f.Add([]byte{100, 0, 2, 5, 0, 1, 0, 3, 1, 0})                        // unaligned mbind + move
	f.Add([]byte{77, 0, 3, 3, 0, 7, 1, 2, 1, 0})                         // weighted interleave
	f.Add([]byte{31, 0, 1, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0}) // fault-all then drain
	f.Add([]byte{
		63, 0,
		1, 3, 0, 0, 0, 0, 0, 0, // fault everything on node 3
		5, 9, 200, 30, 0, 120, 0, 0, // migrate toward a skewed target
		4, 0, 0, 0, 0, 0, 0, 0, // drain
	})
	f.Add([]byte{
		90, 1, // 346 pages
		2, 15, 0, 0, 255, 255, 1, 0, // full-range uniform interleave, all nodes, move
		0, 0, 90, 2, 0, 0, 0, 0, // fault page on a run boundary
		3, 0, 6, 0, 2, 1, 1, 0, // weighted with zero weights in the vector
		5, 1, 1, 1, 3, 255, 0, 0, // migrate, tiny budget
	})
	f.Add([]byte{
		43, 33, // 8492 pages: two walk checkpoints and a partial stride
		3, 3, 2, 0, 1, 0, 0, 0, // weighted interleave
		2, 5, 4, 16, 193, 1, 1, 0, // move-bind pages 4100..4399, splitting the weighted run past a checkpoint
		3, 1, 1, 4, 2, 0, 1, 0, // weighted → weighted re-bind with move
		3, 1, 1, 4, 2, 0, 1, 0, // the same weights again: the walk is reused
		5, 9, 200, 30, 64, 0, 0, 0, // migrate 64 pages out of the weighted runs
		4, 0, 0, 0, 0, 0, 0, 0, // drain
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		const numNodes = 4
		if len(data) < 2 {
			return
		}
		// Up to 2·walkStride+600 pages, so runs cross walk checkpoints.
		pageCount := 1 + (int(data[0])|int(data[1])<<8)%(2*walkStride+600)
		data = data[2:]

		as := NewAddressSpace(numNodes)
		s := as.AddSegment("fz", uint64(pageCount)*PageSize, SharedOwner)
		ref := newRefSegment(numNodes, pageCount)
		refDrained := int64(0)

		for op := 0; len(data) >= 8 && op < 64; op++ {
			c := data[:8]
			data = data[8:]
			switch c[0] % 6 {
			case 0: // single fault
				p := (int(c[1]) | int(c[2])<<8) % pageCount
				n := topology.NodeID(c[3] % numNodes)
				s.Fault(p, n)
				ref.fault(p, n)
			case 1: // fault everything
				n := topology.NodeID(c[1] % numNodes)
				s.FaultAll(n)
				ref.faultAll(n)
			case 2: // uniform interleave over an arbitrary (unaligned,
				// possibly out-of-range) byte window and node set
				var nodes []topology.NodeID
				for n := 0; n < numNodes; n++ {
					if c[1]&(1<<n) != 0 {
						nodes = append(nodes, topology.NodeID(n))
					}
				}
				if len(nodes) == 0 {
					nodes = []topology.NodeID{topology.NodeID(c[1] % numNodes)}
				}
				offset := (uint64(c[2]) | uint64(c[3])<<8) * PageSize / 3 * 3
				length := (1 + uint64(c[4]) | uint64(c[5])<<8) * PageSize * 2 / 3
				flags := Flags(0)
				if c[6]&1 != 0 {
					flags = MoveFlag
				}
				if err := s.Mbind(offset, length, nodes, flags); err != nil {
					t.Fatal(err)
				}
				ref.mbind(offset, length, nodes, flags)
			case 3: // kernel-level weighted interleave
				w := make([]float64, numNodes)
				sum := 0.0
				for n := 0; n < numNodes; n++ {
					w[n] = float64(c[1+n] % 8)
					sum += w[n]
				}
				if sum == 0 {
					w[int(c[5])%numNodes] = 1
				}
				flags := Flags(0)
				if c[6]&1 != 0 {
					flags = MoveFlag
				}
				if err := s.MbindWeighted(w, flags); err != nil {
					t.Fatal(err)
				}
				ref.mbindWeighted(w, flags)
			case 4: // drain returns the delta since the previous drain
				got := as.DrainMigratedBytes()
				if want := ref.migrated - refDrained; got != want {
					t.Fatalf("op %d: drain = %d, ref %d", op, got, want)
				}
				refDrained = ref.migrated
			case 5: // rate-limited migration toward a byte-derived target
				raw := [4]float64{float64(c[1]) + 1, float64(c[2]) + 1, float64(c[3]) + 1, 1}
				sum := raw[0] + raw[1] + raw[2] + raw[3]
				target := make([]float64, numNodes)
				for n := range target {
					target[n] = raw[n] / sum
				}
				budget := (int64(c[4]) | int64(c[5])<<8) * PageSize
				moved, err := s.MigrateToward(target, budget)
				if err != nil {
					t.Fatal(err)
				}
				if want := ref.migrateToward(target, budget); moved != want {
					t.Fatalf("op %d: MigrateToward moved %d, ref %d", op, moved, want)
				}
			}
			checkEquiv(t, "after fuzz op", s, ref)
		}
	})
}
