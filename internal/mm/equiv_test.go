package mm

import (
	"fmt"
	"math/rand"
	"testing"

	"bwap/internal/topology"
)

// refSegment is a per-page reference implementation of the Segment
// placement semantics — a direct port of the original flat-array code —
// used to pin the interval implementation to byte-identical behaviour.
type refSegment struct {
	numNodes int
	pages    []topology.NodeID
	counts   []int64
	mapped   int
	migrated int64
}

func newRefSegment(numNodes, pageCount int) *refSegment {
	r := &refSegment{
		numNodes: numNodes,
		pages:    make([]topology.NodeID, pageCount),
		counts:   make([]int64, numNodes),
	}
	for i := range r.pages {
		r.pages[i] = Unmapped
	}
	return r
}

func (r *refSegment) setPage(i int, n topology.NodeID) {
	cur := r.pages[i]
	if cur == n {
		return
	}
	if cur != Unmapped {
		r.counts[cur]--
		r.migrated += PageSize
	} else {
		r.mapped++
	}
	r.pages[i] = n
	r.counts[n]++
}

func (r *refSegment) fault(i int, n topology.NodeID) {
	if r.pages[i] == Unmapped {
		r.setPage(i, n)
	}
}

func (r *refSegment) faultAll(n topology.NodeID) {
	for i := range r.pages {
		r.fault(i, n)
	}
}

func (r *refSegment) length() uint64 { return uint64(len(r.pages)) * PageSize }

func (r *refSegment) mbind(offset, length uint64, nodes []topology.NodeID, flags Flags) {
	nodes = canonicalNodeSet(nodes)
	if offset >= r.length() || length == 0 {
		return
	}
	end := offset + length
	if end > r.length() {
		end = r.length()
	}
	first := int(offset / PageSize)
	last := int((end + PageSize - 1) / PageSize)
	for p := first; p < last; p++ {
		target := nodes[(p-first)%len(nodes)]
		if r.pages[p] == Unmapped || flags&MoveFlag != 0 {
			r.setPage(p, target)
		}
	}
}

func (r *refSegment) mbindWeighted(weights []float64, flags Flags) {
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	credit := make([]float64, len(weights))
	for p := range r.pages {
		best := -1
		for n, w := range weights {
			if w <= 0 {
				continue
			}
			credit[n] += w / sum
			if best == -1 || credit[n] > credit[best] {
				best = n
			}
		}
		credit[best]--
		target := topology.NodeID(best)
		if r.pages[p] == Unmapped || flags&MoveFlag != 0 {
			r.setPage(p, target)
		}
	}
}

func (r *refSegment) migrateToward(target []float64, maxBytes int64) int64 {
	if r.mapped == 0 || maxBytes <= 0 {
		return 0
	}
	deficit := make([]int64, r.numNodes)
	for n := range deficit {
		want := int64(target[n] * float64(r.mapped))
		deficit[n] = want - r.counts[n]
	}
	budget := maxBytes / PageSize
	moved := int64(0)
	if budget == 0 {
		return 0
	}
	for i := range r.pages {
		if budget == 0 {
			break
		}
		cur := r.pages[i]
		if cur == Unmapped || deficit[cur] >= 0 {
			continue
		}
		best, bestDeficit := -1, int64(0)
		for n, d := range deficit {
			if d > bestDeficit {
				best, bestDeficit = n, d
			}
		}
		if best < 0 {
			break
		}
		deficit[cur]++
		deficit[best]--
		r.setPage(i, topology.NodeID(best))
		moved += PageSize
		budget--
	}
	return moved
}

// checkEquiv compares the interval segment against the reference, page for
// page, counter for counter.
func checkEquiv(t *testing.T, step string, s *Segment, ref *refSegment) {
	t.Helper()
	if s.MappedPages() != ref.mapped {
		t.Fatalf("%s: mapped = %d, ref %d", step, s.MappedPages(), ref.mapped)
	}
	for n, c := range s.Counts() {
		if c != ref.counts[n] {
			t.Fatalf("%s: counts[%d] = %d, ref %d (counts %v vs %v)", step, n, c, ref.counts[n], s.Counts(), ref.counts)
		}
	}
	if got := s.as.TotalMigratedBytes(); got != ref.migrated {
		t.Fatalf("%s: migrated = %d, ref %d", step, got, ref.migrated)
	}
	// Runs are maximal: adjacent runs never share a placement function.
	for j := 1; j < len(s.runs); j++ {
		if s.runs[j-1].pat.sameFunc(s.runs[j].pat) {
			t.Fatalf("%s: runs %d and %d (pages %d and %d) share a placement function", step, j-1, j, s.runs[j-1].start, s.runs[j].start)
		}
	}
	fr := s.Fractions()
	for n := range fr {
		want := 0.0
		if ref.mapped > 0 {
			want = float64(ref.counts[n]) / float64(ref.mapped)
		}
		if fr[n] != want {
			t.Fatalf("%s: fraction[%d] = %v, ref %v", step, n, fr[n], want)
		}
	}
	// Every page through the run cursors, which is linear in the segment;
	// through Node(), a point query that seeks the walk, on every page of
	// small segments and on run starts, checkpoint neighbours and a sample
	// of the rest in large ones.
	j := 0
	c := s.runs[0].pat.cursorAt(0)
	for p := range ref.pages {
		if j+1 < len(s.runs) && s.runs[j+1].start == p {
			j++
			c = s.runs[j].pat.cursorAt(p)
		}
		if got := c.next(); got != ref.pages[p] {
			t.Fatalf("%s: cursor: page %d on node %d, ref %d", step, p, got, ref.pages[p])
		}
		if off := (p + 1) % walkStride; len(ref.pages) > 1024 && off > 2 && p%101 != 0 && p != s.runs[j].start {
			continue
		}
		if got := s.Node(p); got != ref.pages[p] {
			t.Fatalf("%s: page %d on node %d, ref %d", step, p, got, ref.pages[p])
		}
	}
}

// TestIntervalMatchesPerPageReference drives randomized operation
// sequences through both implementations and demands byte-identical node
// assignments, counts, fractions and migration volume after every step.
// The last trials of each machine size span three walk checkpoints and a
// partial stride, so weighted runs split past a checkpoint are counted,
// compared and walked from checkpoints other than page 0. The 8- and
// 12-node trials reach the eight-lane walk kernel and the scalar loop
// past it; each size draws from its own rng, so adding sizes leaves the
// 4-node trials' random stream as it was.
func TestIntervalMatchesPerPageReference(t *testing.T) {
	intervalTrials(t, 4, rand.New(rand.NewSource(7)), 66, 60)
	intervalTrials(t, 8, rand.New(rand.NewSource(8)), 14, 12)
	intervalTrials(t, 12, rand.New(rand.NewSource(12)), 14, 12)
}

// intervalTrials runs trials random operation sequences on a machine of
// numNodes nodes; trials from big on use 3·walkStride+17 pages.
func intervalTrials(t *testing.T, numNodes int, rng *rand.Rand, trials, big int) {
	t.Helper()
	for trial := 0; trial < trials; trial++ {
		pageCount := 1 + rng.Intn(600)
		if trial >= big {
			pageCount = 3*walkStride + 17
		}
		as := NewAddressSpace(numNodes)
		s := as.AddSegment("d", uint64(pageCount)*PageSize, SharedOwner)
		ref := newRefSegment(numNodes, pageCount)
		refDrained := int64(0) // lifetime bytes already drained, mirrors pendingMigrated

		for op := 0; op < 25; op++ {
			switch rng.Intn(6) {
			case 0: // single fault
				p := rng.Intn(pageCount)
				n := topology.NodeID(rng.Intn(numNodes))
				s.Fault(p, n)
				ref.fault(p, n)
			case 1: // fault everything
				n := topology.NodeID(rng.Intn(numNodes))
				s.FaultAll(n)
				ref.faultAll(n)
			case 2: // uniform interleave over a random byte range and set
				var nodes []topology.NodeID
				for len(nodes) == 0 {
					for n := 0; n < numNodes; n++ {
						if rng.Intn(2) == 0 {
							nodes = append(nodes, topology.NodeID(n))
						}
					}
				}
				// Deliberately unaligned, possibly out-of-range offsets.
				offset := uint64(rng.Intn(pageCount+2)) * PageSize / 3 * 3
				length := uint64(1+rng.Intn(pageCount)) * PageSize * 2 / 3
				flags := Flags(0)
				if rng.Intn(2) == 0 {
					flags = MoveFlag
				}
				if err := s.Mbind(offset, length, nodes, flags); err != nil {
					t.Fatal(err)
				}
				ref.mbind(offset, length, nodes, flags)
			case 3: // kernel-level weighted interleave
				w := make([]float64, numNodes)
				sum := 0.0
				for n := range w {
					w[n] = float64(rng.Intn(8))
					sum += w[n]
				}
				if sum == 0 {
					w[rng.Intn(numNodes)] = 1
				}
				flags := Flags(0)
				if rng.Intn(2) == 0 {
					flags = MoveFlag
				}
				if err := s.MbindWeighted(w, flags); err != nil {
					t.Fatal(err)
				}
				ref.mbindWeighted(w, flags)
			case 4: // drain returns the delta since the previous drain
				got := as.DrainMigratedBytes()
				if want := ref.migrated - refDrained; got != want {
					t.Fatalf("%d nodes, trial %d op %d: drain = %d, ref %d", numNodes, trial, op, got, want)
				}
				refDrained = ref.migrated
			case 5: // rate-limited migration toward a random distribution
				target := make([]float64, numNodes)
				rem := 1.0
				for n := 0; n < numNodes-1; n++ {
					target[n] = rem * rng.Float64()
					rem -= target[n]
				}
				target[numNodes-1] = rem
				budget := int64(rng.Intn(2*pageCount)) * PageSize
				moved, err := s.MigrateToward(target, budget)
				if err != nil {
					t.Fatal(err)
				}
				if want := ref.migrateToward(target, budget); moved != want {
					t.Fatalf("%d nodes, trial %d op %d: MigrateToward moved %d, ref %d", numNodes, trial, op, moved, want)
				}
			}
			checkEquiv(t, fmt.Sprintf("%d nodes, trial %d op %d", numNodes, trial, op), s, ref)
		}
	}
}

// TestMigrateTowardIntervalInvariants checks the interval MigrateToward
// against the properties the per-page version guaranteed: budget respected,
// page population preserved, deficits never overshot, deterministic.
func TestMigrateTowardIntervalInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		pageCount := 50 + rng.Intn(400)
		as := NewAddressSpace(4)
		s := as.AddSegment("d", uint64(pageCount)*PageSize, SharedOwner)
		// Random starting placement.
		s.FaultAll(topology.NodeID(rng.Intn(4)))
		if rng.Intn(2) == 0 {
			nodes := []topology.NodeID{0, topology.NodeID(1 + rng.Intn(3))}
			if err := s.Mbind(0, s.Length(), nodes, MoveFlag); err != nil {
				t.Fatal(err)
			}
		}
		target := make([]float64, 4)
		rem := 1.0
		for n := 0; n < 3; n++ {
			target[n] = rem * rng.Float64()
			rem -= target[n]
		}
		target[3] = rem
		budget := int64(1+rng.Intn(pageCount)) * PageSize

		before := s.Counts()
		var beforeTotal int64
		for _, c := range before {
			beforeTotal += c
		}
		moved, err := s.MigrateToward(target, budget)
		if err != nil {
			t.Fatal(err)
		}
		if moved > budget {
			t.Fatalf("moved %d bytes over budget %d", moved, budget)
		}
		var afterTotal int64
		for _, c := range s.Counts() {
			afterTotal += c
		}
		if afterTotal != beforeTotal || s.MappedPages() != pageCount {
			t.Fatalf("page population changed: %d -> %d", beforeTotal, afterTotal)
		}
		// No node may end up further from its target than it started on the
		// wrong side (no overshoot past the deficit).
		for n, c := range s.Counts() {
			want := int64(target[n] * float64(pageCount))
			if before[n] < want && c > want {
				t.Fatalf("node %d overshot: %d -> %d (want %d)", n, before[n], c, want)
			}
			if before[n] > want && c < want {
				t.Fatalf("node %d undershot: %d -> %d (want %d)", n, before[n], c, want)
			}
		}
	}
}

// TestMigrateTowardEditsMidRunList pins the spliced rebuild of
// applyEdits on a long run list whose edits all fall in its middle: pages
// [0,1000) and [2000,3000) alternate between nodes 0 and 1 in short runs,
// the donors, nodes 2 and 3, hold only the middle, and a two-node bind
// sits inside it for the general (cursor) path. Small budgets leave
// untouched runs on both sides of the edits; the last migration empties
// the middle, so its edits join the prefix's last run and the suffix's
// first. Every step matches the per-page reference and keeps runs
// maximal.
func TestMigrateTowardEditsMidRunList(t *testing.T) {
	const numNodes, pageCount = 4, 3000
	as := NewAddressSpace(numNodes)
	s := as.AddSegment("d", pageCount*PageSize, SharedOwner)
	ref := newRefSegment(numNodes, pageCount)
	for p := 0; p < pageCount; p++ {
		n := topology.NodeID((p / 7) % 2)
		switch {
		case p >= 2000:
			n = topology.NodeID((p / 3) % 2)
		case p >= 1000:
			n = topology.NodeID(2 + (p/5)%2)
		}
		s.Fault(p, n)
		ref.fault(p, n)
	}
	mid := []topology.NodeID{3, 2}
	if err := s.Mbind(1400*PageSize, 200*PageSize, mid, MoveFlag); err != nil {
		t.Fatal(err)
	}
	ref.mbind(1400*PageSize, 200*PageSize, mid, MoveFlag)
	checkEquiv(t, "built", s, ref)
	if s.Runs() < 600 {
		t.Fatalf("built %d runs, want a long run list", s.Runs())
	}
	for i, step := range []struct {
		target []float64
		pages  int64
	}{
		{[]float64{0.4, 0.4, 0.1, 0.1}, 1},
		{[]float64{0.4, 0.4, 0.1, 0.1}, 7},
		{[]float64{0.4, 0.4, 0.1, 0.1}, 50},
		{[]float64{0.4, 0.4, 0.1, 0.1}, 333},
		{[]float64{0.3, 0.3, 0.2, 0.2}, 1 << 20},
		{[]float64{0.5, 0.5, 0, 0}, 1 << 20},
	} {
		moved, err := s.MigrateToward(step.target, step.pages*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if want := ref.migrateToward(step.target, step.pages*PageSize); moved != want {
			t.Fatalf("step %d: moved %d, ref %d", i, moved, want)
		}
		checkEquiv(t, fmt.Sprintf("step %d", i), s, ref)
	}
	if c := s.Counts(); c[2] != 0 || c[3] != 0 {
		t.Fatalf("middle not emptied: counts %v", c)
	}
}

// TestMigrateTowardAllocationFree pins MigrateToward's reusable scratch:
// on a segment whose run count does not change — 120 short runs on nodes 2
// and 3 that already hold their share, then one run on node 1 and one on
// node 0, which donates the head of its run to node 1 eight pages a call —
// a warmed call allocates nothing.
func TestMigrateTowardAllocationFree(t *testing.T) {
	const numNodes, pageCount = 4, 4000
	s := NewAddressSpace(numNodes).AddSegment("m", pageCount*PageSize, SharedOwner)
	for p := 0; p < pageCount; p++ {
		n := topology.NodeID(0)
		switch {
		case p < 1200:
			n = topology.NodeID(2 + (p/10)%2)
		case p < 2000:
			n = 1
		}
		s.Fault(p, n)
	}
	target := []float64{0.35, 0.35, 0.15, 0.15}
	runs := s.Runs()
	avg := testing.AllocsPerRun(50, func() {
		if moved, err := s.MigrateToward(target, 8*PageSize); err != nil || moved != 8*PageSize {
			t.Fatalf("moved %d bytes (%v), want 8 pages", moved, err)
		}
	})
	if s.Runs() != runs {
		t.Fatalf("run count moved from %d to %d", runs, s.Runs())
	}
	if avg != 0 {
		t.Fatalf("warmed MigrateToward allocates %.2f objects/op, want 0", avg)
	}
}

// TestMigrateTowardFullySatisfiesWithBudget confirms convergence matches
// the per-page implementation's end state when the budget is unbounded.
func TestMigrateTowardFullySatisfiesWithBudget(t *testing.T) {
	as := NewAddressSpace(4)
	s := as.AddSegment("d", PageSize*1000, SharedOwner)
	s.FaultAll(0)
	target := []float64{0.1, 0.2, 0.3, 0.4}
	for i := 0; i < 10; i++ {
		if _, err := s.MigrateToward(target, 1<<40); err != nil {
			t.Fatal(err)
		}
	}
	c := s.Counts()
	for n, f := range target {
		want := int64(f * 1000)
		if diff := c[n] - want; diff < -1 || diff > 1+3 { // rounding slack
			t.Fatalf("counts[%d] = %d, want ~%d", n, c[n], want)
		}
	}
	moved, _ := s.MigrateToward(target, 1<<40)
	if moved != 0 {
		t.Fatalf("converged segment still moved %d bytes", moved)
	}
}

// TestRunCompressionStaysBounded pins the representation advantage the
// rewrite exists for: a multi-GiB segment is one run after a uniform
// placement and O(nodes) runs after Algorithm-1-style sub-range binds.
func TestRunCompressionStaysBounded(t *testing.T) {
	as := NewAddressSpace(8)
	s := as.AddSegment("big", 4<<30, SharedOwner) // 1M pages, no per-page state
	all := make([]topology.NodeID, 8)
	for i := range all {
		all[i] = topology.NodeID(i)
	}
	if err := s.Mbind(0, s.Length(), all, MoveFlag); err != nil {
		t.Fatal(err)
	}
	if s.Runs() != 1 {
		t.Fatalf("uniform placement uses %d runs, want 1", s.Runs())
	}
	// Algorithm-1 shape: progressively narrower sub-range binds.
	addr := uint64(0)
	for i := 0; i < 8; i++ {
		size := s.Length() / 8
		if err := s.Mbind(addr, size, all[i:], MoveFlag); err != nil {
			t.Fatal(err)
		}
		addr += size
	}
	if s.Runs() > 8 {
		t.Fatalf("sub-range binds fragmented into %d runs, want <= 8", s.Runs())
	}
	if s.MappedPages() != s.PageCount() {
		t.Fatal("pages lost")
	}
}

// TestWeightedWalkSharedAcrossSegments pins the walk reuse behind an app's
// placement: segments bound to equal weights share one walk, extended past
// the checkpoint storage preallocated for the first (smaller) one, and
// each still matches the per-page reference; different weights get a walk
// of their own.
func TestWeightedWalkSharedAcrossSegments(t *testing.T) {
	const numNodes = 4
	w := []float64{3, 0, 2, 1}
	as := NewAddressSpace(numNodes)
	sizes := []int{walkStride/2 + 3, 2*walkStride + 5, walkStride + 1}
	var segs []*Segment
	for i, pages := range sizes {
		s := as.AddSegment(string(rune('a'+i)), uint64(pages)*PageSize, SharedOwner)
		if err := s.MbindWeighted(w, MoveFlag); err != nil {
			t.Fatal(err)
		}
		ref := newRefSegment(numNodes, pages)
		ref.mbindWeighted(w, MoveFlag)
		checkEquiv(t, s.Name(), s, ref)
		segs = append(segs, s)
	}
	shared := segs[0].runs[0].pat.walk
	for _, s := range segs[1:] {
		if s.runs[0].pat.walk != shared {
			t.Fatalf("segment %s took a walk of its own for equal weights", s.Name())
		}
	}
	if err := segs[1].MbindWeighted([]float64{1, 1, 1, 1}, MoveFlag); err != nil {
		t.Fatal(err)
	}
	if segs[1].runs[0].pat.walk == shared {
		t.Fatal("different weights reused the walk")
	}
	ref := newRefSegment(numNodes, sizes[1])
	ref.mbindWeighted(w, MoveFlag)
	ref.mbindWeighted([]float64{1, 1, 1, 1}, MoveFlag)
	checkEquiv(t, "re-bound", segs[1], ref)
}
