// Package mm simulates the OS virtual-memory mechanisms BWAP builds on:
// address spaces made of segments (.data/BSS/heap mappings), 4 KiB pages
// with a page→node mapping, fault-driven first-touch, the mbind(2) system
// call with uniform-interleave semantics and MPOL_MF_MOVE migration, the
// kernel-level weighted-interleave policy the paper adds, and a migration
// byte counter so the simulator can charge page-migration cost.
//
// Section III-B2 of the paper executes Algorithm 1 against exactly this
// API surface; the core package reimplements the algorithm verbatim on top
// of this package.
//
// Pages are not materialized individually. A Segment stores a sorted list
// of runs — (startPage, placement-pattern) intervals covering the segment —
// so creating a segment is O(1) regardless of size, placement calls split
// and merge O(affected runs), per-node page counts are maintained
// incrementally, and Fractions() is a cached view recomputed only after a
// placement change. Placement patterns are either an explicit node sequence
// applied cyclically from an origin page (faults, binds and uniform
// interleaves) or a weighted Bresenham walk anchored at page 0 (the
// kernel-level weighted interleave); both reproduce, page for page, the
// assignment a per-page implementation of the same calls would produce. An
// address space takes one walk per weight vector, lazily and checkpointed
// every walkStride pages, and shares it between the patterns of all its
// segments bound to those weights, so counting or querying any page range
// costs at most a stride of steps past the walk already taken. A WalkTable
// extends that sharing across address spaces: binds through it copy the
// checkpoints of a weight vector some earlier bind has walked.
//
// An AddressSpace is not safe for concurrent use; the simulation engine
// drives each address space from a single goroutine.
package mm

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"bwap/internal/topology"
)

// PageSize is the simulated page size in bytes — the Linux default 4 KiB
// used by all the paper's experiments (large pages are future work there).
const PageSize = 4096

// SharedOwner marks a segment accessed uniformly by all worker nodes
// (the paper's "shared pages").
const SharedOwner topology.NodeID = -1

// Unmapped is the node value of a page that has not been faulted in.
const Unmapped topology.NodeID = -1

// Flags mirror the mbind(2) flags the paper relies on.
type Flags uint

const (
	// MoveFlag corresponds to MPOL_MF_MOVE: migrate currently mapped pages
	// that do not conform to the requested policy.
	MoveFlag Flags = 1 << iota
	// StrictFlag corresponds to MPOL_MF_STRICT; with MoveFlag it demands
	// full conformance (our simulated migrations always succeed, so it is
	// recorded but has no additional effect).
	StrictFlag
)

// patternKind discriminates the placement patterns a run can carry.
type patternKind uint8

const (
	patUnmapped patternKind = iota
	// patSeq assigns page p to seq[(p-origin) mod len(seq)].
	patSeq
	// patWeighted assigns pages by the Bresenham weighted round-robin of
	// MbindWeighted, anchored at page 0 of the segment.
	patWeighted
)

// pattern is a placement rule for a page interval. Patterns are value
// types; their seq slices are immutable once built and may be shared
// between runs (splits keep the slice, only the covered interval changes),
// and a weighted pattern points at its address space's shared walk.
type pattern struct {
	kind   patternKind
	origin int
	seq    []topology.NodeID
	walk   *walk // patWeighted only
}

func (p pattern) mapped() bool { return p.kind != patUnmapped }

// sameFunc reports whether two patterns assign every page identically —
// the merge criterion for adjacent runs.
func (p pattern) sameFunc(q pattern) bool {
	if p.kind != q.kind {
		return false
	}
	switch p.kind {
	case patUnmapped:
		return true
	case patSeq:
		k := len(p.seq)
		return len(q.seq) == k && (p.origin-q.origin)%k == 0 && slices.Equal(p.seq, q.seq)
	default:
		return p.walk == q.walk || slices.Equal(p.walk.weights, q.walk.weights)
	}
}

// seqIndex returns the index into seq for an absolute page.
func (p pattern) seqIndex(page int) int {
	k := len(p.seq)
	i := (page - p.origin) % k
	if i < 0 {
		i += k
	}
	return i
}

// countInto adds sign× the pattern's per-node page counts over [lo,hi)
// into counts. Seq patterns are counted in O(len(seq)); weighted patterns
// as the difference of two walk prefixes, prefix(hi) − prefix(lo), each a
// seek of at most walkStride steps past a checkpoint.
func (p pattern) countInto(lo, hi int, counts []int64, sign int64) {
	if lo >= hi {
		return
	}
	switch p.kind {
	case patUnmapped:
	case patSeq:
		k := len(p.seq)
		span := hi - lo
		if cycles := int64(span / k); cycles > 0 {
			for _, n := range p.seq {
				counts[n] += sign * cycles
			}
		}
		idx := p.seqIndex(lo)
		for i := 0; i < span%k; i++ {
			counts[p.seq[idx]] += sign
			idx++
			if idx == k {
				idx = 0
			}
		}
	default:
		wk := p.walk
		wk.seek(lo)
		for j, c := range wk.count {
			counts[wk.nodes[j]] -= sign * c
		}
		wk.seek(hi)
		for j, c := range wk.count {
			counts[wk.nodes[j]] += sign * c
		}
	}
}

// samePlacement counts the pages in [lo,hi) that patterns p and q assign
// to the same node — the pages a re-bind from p to q does NOT migrate.
// Two cyclic patterns are compared over one joint period, a single node
// against a weighted walk by a prefix-count difference; other weighted
// pairs are walked page by page from the checkpoints at or below lo.
func samePlacement(p, q pattern, lo, hi int) int64 {
	if lo >= hi {
		return 0
	}
	if p.sameFunc(q) {
		return int64(hi - lo)
	}
	if p.kind == patSeq && q.kind == patSeq {
		span := hi - lo
		period := lcm(len(p.seq), len(q.seq))
		window := period
		if window > span {
			window = span
		}
		ip, iq := p.seqIndex(lo), q.seqIndex(lo)
		var windowMatch, rem int64
		remLen := span % period
		for i := 0; i < window; i++ {
			if p.seq[ip] == q.seq[iq] {
				windowMatch++
				if i < remLen {
					rem++
				}
			}
			if ip++; ip == len(p.seq) {
				ip = 0
			}
			if iq++; iq == len(q.seq) {
				iq = 0
			}
		}
		if span <= period {
			return windowMatch
		}
		return int64(span/period)*windowMatch + rem
	}
	if q.kind == patSeq {
		p, q = q, p
	}
	if p.kind == patSeq && len(p.seq) == 1 {
		// One node against a walk: the pages the walk gives that node.
		wk := q.walk
		j := slices.Index(wk.nodes, p.seq[0])
		if j < 0 {
			return 0
		}
		wk.seek(lo)
		inLo := wk.count[j]
		wk.seek(hi)
		return wk.count[j] - inLo
	}
	cp, cq := p.cursorAt(lo), q.cursorAt(lo)
	var match int64
	for page := lo; page < hi; page++ {
		if cp.next() == cq.next() {
			match++
		}
	}
	return match
}

// cursor yields a pattern's node for consecutive pages.
type cursor struct {
	pat    pattern
	idx    int       // patSeq: index into seq of the next page
	credit []float64 // patWeighted: walk credit before the next page
}

// cursorAt returns a cursor whose first next() is the node of page. A
// weighted cursor starts from a copy of its walk's state seeked to page.
func (p pattern) cursorAt(page int) cursor {
	c := cursor{pat: p}
	switch p.kind {
	case patSeq:
		c.idx = p.seqIndex(page)
	case patWeighted:
		p.walk.seek(page)
		c.credit = slices.Clone(p.walk.credit)
	}
	return c
}

func (c *cursor) next() topology.NodeID {
	switch c.pat.kind {
	case patSeq:
		n := c.pat.seq[c.idx]
		if c.idx++; c.idx == len(c.pat.seq) {
			c.idx = 0
		}
		return n
	case patWeighted:
		return c.pat.walk.nodes[c.pat.walk.steps(c.credit, nil, 1)]
	default:
		return Unmapped
	}
}

func lcm(a, b int) int {
	x, y := a, b
	for y != 0 {
		x, y = y, x%y
	}
	return a / x * b
}

// walkStride is the page distance between a walk's checkpoints. It bounds
// the steps any prefix count, point query or cursor start pays past the
// part of the walk already taken.
const walkStride = 4096

// walk is the Bresenham weighted round-robin of one normalized weight
// vector — MbindWeighted's assignment — taken lazily from page 0 and
// checkpointed every walkStride pages. Each page, every positive weight
// accrues credit in ascending node order and the page goes to the
// highest-credit node (the lowest index wins ties), which then pays one
// page of credit; the arithmetic matches a per-page implementation bit for
// bit. The weighted patterns of an address space share one walk per weight
// vector, so its segments pay for one walk to the largest of them.
type walk struct {
	weights []float64         // normalized, one per node; immutable
	nodes   []topology.NodeID // the positive-weight nodes, ascending
	w       []float64         // their weights
	// Checkpoint k holds the credit and the per-node page counts after
	// k·walkStride pages, len(nodes) entries each (indexed like nodes);
	// checkpoint 0 is all zero.
	cpCredit []float64
	cpCount  []int64
	// credit and count are the walk's state after at pages, where the last
	// seek left it; count is indexed like nodes, so it holds the per-node
	// page counts of pages [0,at).
	credit []float64
	count  []int64
	at     int
}

// newWalk returns the walk of normalized weights, with checkpoint storage
// preallocated for a segment of pages pages.
func newWalk(weights []float64, pages int) *walk {
	wk := &walk{weights: weights, at: -1}
	for n, w := range weights {
		if w > 0 {
			wk.nodes = append(wk.nodes, topology.NodeID(n))
			wk.w = append(wk.w, w)
		}
	}
	m := len(wk.w)
	wk.cpCredit = make([]float64, m, (pages/walkStride+1)*m)
	wk.cpCount = make([]int64, m, cap(wk.cpCredit))
	wk.credit = make([]float64, m)
	wk.count = make([]int64, m)
	return wk
}

// checkpoint returns the credit at checkpoint k, extending the walk to it.
// The slice is the walk's own: callers must not modify it.
func (wk *walk) checkpoint(k int) []float64 {
	m := len(wk.w)
	for len(wk.cpCredit) <= k*m {
		last := len(wk.cpCredit) - m
		wk.cpCredit = append(wk.cpCredit, wk.cpCredit[last:]...)
		wk.cpCount = append(wk.cpCount, wk.cpCount[last:]...)
		wk.steps(wk.cpCredit[last+m:], wk.cpCount[last+m:], walkStride)
	}
	return wk.cpCredit[k*m : (k+1)*m]
}

// seek moves the walk's state (credit, count) to page p. It resumes from
// where the last seek left it when that lies in p's stride at or before p
// (ascending queries, such as a re-bind over consecutive runs, walk each
// stride once), else from the checkpoint at or below p.
func (wk *walk) seek(p int) {
	if k := p / walkStride; wk.at < k*walkStride || wk.at > p {
		m := len(wk.w)
		copy(wk.credit, wk.checkpoint(k))
		copy(wk.count, wk.cpCount[k*m:(k+1)*m])
		wk.at = k * walkStride
	}
	wk.steps(wk.credit, wk.count, p-wk.at)
	wk.at = p
}

// steps advances the walk state credit (and count, unless nil) by n pages
// and returns the index into nodes of the last page's node (-1 when n is
// zero). Walks over two to eight nodes run a kernel specialized to their
// width; one node and more than eight take the scalar loop.
func (wk *walk) steps(credit []float64, count []int64, n int) int {
	w := wk.w[:len(credit)]
	switch len(w) {
	case 2:
		return steps2(credit, count, w, n)
	case 3, 4:
		return steps4(credit, count, w, n)
	case 5, 6, 7, 8:
		return steps8(credit, count, w, n)
	}
	return stepsScalar(credit, count, w, n)
}

// stepsScalar is the walk step over any number of nodes: every credit
// accrues its weight in ascending node order, the page goes to the highest
// credit (a strict > scan, so the lowest index wins ties) and the winner
// pays one page. The width kernels below reproduce it bit for bit.
func stepsScalar(credit []float64, count []int64, w []float64, n int) int {
	best := -1
	for ; n > 0; n-- {
		best = 0
		top := credit[0] + w[0]
		credit[0] = top
		for j := 1; j < len(credit); j++ {
			c := credit[j] + w[j]
			credit[j] = c
			if c > top {
				best, top = j, c
			}
		}
		credit[best] = top - 1
		if count != nil {
			count[best]++
		}
	}
	return best
}

// The width kernels keep every credit, weight and count in a local for the
// whole run instead of loading and storing them each page. Lanes past the
// walk's width start at credit −Inf with weight 0: −Inf + 0 stays −Inf, so
// such a lane never wins a strict > and never ties a finite credit. The
// winner is picked by a pairwise tournament in which the left side wins
// unless the right side is strictly greater, which yields the lowest index
// among equal maxima, the scalar loop's tie rule.

// steps2 is stepsScalar for two nodes.
func steps2(credit []float64, count []int64, w []float64, n int) int {
	c0, c1 := credit[0], credit[1]
	w0, w1 := w[0], w[1]
	var n1 int64
	best := -1
	for i := n; i > 0; i-- {
		c0 += w0
		c1 += w1
		if c1 > c0 {
			c1--
			n1++
			best = 1
		} else {
			c0--
			best = 0
		}
	}
	credit[0], credit[1] = c0, c1
	if count != nil {
		count[0] += int64(n) - n1
		count[1] += n1
	}
	return best
}

// steps4 is stepsScalar for three or four nodes.
func steps4(credit []float64, count []int64, w []float64, n int) int {
	inf := math.Inf(-1)
	cs := [4]float64{inf, inf, inf, inf}
	var ws [4]float64
	copy(cs[:], credit)
	copy(ws[:], w)
	c0, c1, c2, c3 := cs[0], cs[1], cs[2], cs[3]
	w0, w1, w2, w3 := ws[0], ws[1], ws[2], ws[3]
	var ns [4]int64
	best := -1
	for ; n > 0; n-- {
		c0 += w0
		c1 += w1
		c2 += w2
		c3 += w3
		a, ta := 0, c0
		if c1 > ta {
			a, ta = 1, c1
		}
		b, tb := 2, c2
		if c3 > tb {
			b, tb = 3, c3
		}
		if tb > ta {
			a = b
		}
		switch a {
		case 0:
			c0--
		case 1:
			c1--
		case 2:
			c2--
		case 3:
			c3--
		}
		ns[a&3]++
		best = a
	}
	cs = [4]float64{c0, c1, c2, c3}
	copy(credit, cs[:])
	for j := range count {
		count[j] += ns[j]
	}
	return best
}

// steps8 is stepsScalar for five to eight nodes. The winner's switch has a
// case per lane, which the compiler turns into a jump table.
func steps8(credit []float64, count []int64, w []float64, n int) int {
	inf := math.Inf(-1)
	cs := [8]float64{inf, inf, inf, inf, inf, inf, inf, inf}
	var ws [8]float64
	copy(cs[:], credit)
	copy(ws[:], w)
	c0, c1, c2, c3, c4, c5, c6, c7 := cs[0], cs[1], cs[2], cs[3], cs[4], cs[5], cs[6], cs[7]
	w0, w1, w2, w3, w4, w5, w6, w7 := ws[0], ws[1], ws[2], ws[3], ws[4], ws[5], ws[6], ws[7]
	var ns [8]int64
	best := -1
	for ; n > 0; n-- {
		c0 += w0
		c1 += w1
		c2 += w2
		c3 += w3
		c4 += w4
		c5 += w5
		c6 += w6
		c7 += w7
		a, ta := 0, c0
		if c1 > ta {
			a, ta = 1, c1
		}
		b, tb := 2, c2
		if c3 > tb {
			b, tb = 3, c3
		}
		if tb > ta {
			a, ta = b, tb
		}
		b, tb = 4, c4
		if c5 > tb {
			b, tb = 5, c5
		}
		d, td := 6, c6
		if c7 > td {
			d, td = 7, c7
		}
		if td > tb {
			b, tb = d, td
		}
		if tb > ta {
			a = b
		}
		switch a {
		case 0:
			c0--
		case 1:
			c1--
		case 2:
			c2--
		case 3:
			c3--
		case 4:
			c4--
		case 5:
			c5--
		case 6:
			c6--
		case 7:
			c7--
		}
		ns[a&7]++
		best = a
	}
	cs = [8]float64{c0, c1, c2, c3, c4, c5, c6, c7}
	copy(credit, cs[:])
	for j := range count {
		count[j] += ns[j]
	}
	return best
}

// run is one interval of pages sharing a placement pattern. A run spans
// [start, nextRun.start) — the last run ends at the segment's page count.
type run struct {
	start int
	pat   pattern
}

// Segment is one contiguous virtual mapping (e.g. .data, BSS, or a heap
// arena) with a per-page physical node assignment, stored run-length
// encoded.
type Segment struct {
	name      string
	start     uint64
	pageCount int
	runs      []run
	runsAlt   []run // scratch for rebuilds, swapped with runs
	// counts[n] is the number of pages currently on node n, maintained
	// incrementally by every placement operation.
	counts []int64
	mapped int
	owner  topology.NodeID
	as     *AddressSpace

	frac      []float64
	fracDirty bool
	// epoch counts placement changes (binds, faults, migrations) — the
	// invalidation signal behind the simulation engine's quiescent-interval
	// fast-forward: a segment whose epoch is unchanged since the last flow
	// solve contributes byte-identical Fractions(), so the solve can be
	// replayed instead of recomputed.
	epoch uint64
}

// AddressSpace is the set of segments of one simulated process.
type AddressSpace struct {
	numNodes int
	segments []*Segment
	byName   map[string]*Segment
	nextAddr uint64
	// migratedBytes counts every page migration ever performed.
	migratedBytes int64
	// pendingMigrated counts migrations since the last Drain; the engine
	// drains it each tick to charge migration bandwidth cost.
	pendingMigrated int64
	// placeEpoch aggregates every segment's placement epoch (plus segment
	// creation), so the engine checks one counter per address space.
	placeEpoch uint64
	// singleSeq caches one-node sequences so faults and binds share them.
	singleSeq [][]topology.NodeID
	// setSeq caches canonical multi-node sequences by bitmask, so repeated
	// mbinds over the same set (Algorithm 1's sub-range sweeps, retunes)
	// share one slice instead of sorting a fresh copy each call. Patterns
	// never mutate their seq, the same invariant singleSeq relies on.
	setSeq map[uint64][]topology.NodeID
	// lastWalk is the walk of the latest weighted mbind, reused by the next
	// one with equal weights (an app's segments under one weight vector).
	// A bind through a WalkTable copies its missing checkpoints into it.
	lastWalk *walk
	// deficit and edits are MigrateToward's scratch, reused across calls
	// and shared by the segments, so an app's segments grow one chain.
	deficit []int64
	edits   []migrateEdit
}

// NewAddressSpace returns an empty address space for a machine with
// numNodes NUMA nodes.
func NewAddressSpace(numNodes int) *AddressSpace {
	if numNodes <= 0 {
		panic("mm: address space needs at least one node")
	}
	return &AddressSpace{
		numNodes: numNodes,
		byName:   make(map[string]*Segment),
		nextAddr: 0x4000_0000, // arbitrary base; only relative layout matters
	}
}

// single returns the shared one-node sequence for n.
func (as *AddressSpace) single(n topology.NodeID) []topology.NodeID {
	if as.singleSeq == nil {
		as.singleSeq = make([][]topology.NodeID, as.numNodes)
	}
	if as.singleSeq[n] == nil {
		as.singleSeq[n] = []topology.NodeID{n}
	}
	return as.singleSeq[n]
}

// canonicalSet returns the shared sorted-deduplicated sequence for nodes,
// memoized by bitmask for machines of up to 64 nodes (larger machines
// fall back to a fresh canonicalNodeSet copy per call).
func (as *AddressSpace) canonicalSet(nodes []topology.NodeID) []topology.NodeID {
	var mask uint64
	for _, n := range nodes {
		if uint(n) >= 64 {
			return canonicalNodeSet(nodes)
		}
		mask |= 1 << uint(n)
	}
	if set, ok := as.setSeq[mask]; ok {
		return set
	}
	set := canonicalNodeSet(nodes)
	if as.setSeq == nil {
		as.setSeq = make(map[uint64][]topology.NodeID)
	}
	as.setSeq[mask] = set
	return set
}

// AddSegment appends a segment of the given length (rounded up to a page
// multiple). owner is SharedOwner for shared data or a node id for
// thread-private data of the threads pinned on that node. The segment is
// created unmapped in O(1) — no per-page state exists.
func (as *AddressSpace) AddSegment(name string, length uint64, owner topology.NodeID) *Segment {
	if length == 0 {
		panic(fmt.Sprintf("mm: segment %q has zero length", name))
	}
	if _, dup := as.byName[name]; dup {
		panic(fmt.Sprintf("mm: duplicate segment %q", name))
	}
	n := int((length + PageSize - 1) / PageSize)
	// Algorithm 1 carves a segment into ~numNodes sub-ranges, and the
	// rebuild scratch mirrors the live slice, so start both at a capacity
	// that avoids growth in the common case — carved out of one backing
	// array (the full slice expressions keep them from growing into each
	// other).
	runScratch := make([]run, 16)
	s := &Segment{
		name:      name,
		start:     as.nextAddr,
		pageCount: n,
		runs:      runScratch[0:1:8],
		runsAlt:   runScratch[8:8:16],
		counts:    make([]int64, as.numNodes),
		frac:      make([]float64, as.numNodes),
		owner:     owner,
		as:        as,
	}
	s.runs[0] = run{start: 0, pat: pattern{kind: patUnmapped}}
	as.nextAddr += uint64(n) * PageSize
	as.segments = append(as.segments, s)
	as.byName[name] = s
	as.placeEpoch++
	return s
}

// PlacementEpoch returns a counter that advances on every placement
// change in any of the address space's segments (and on segment
// creation). Two reads returning the same value bracket an interval in
// which every segment's page→node assignment — and therefore every
// Fractions() view — was bit-identical.
func (as *AddressSpace) PlacementEpoch() uint64 { return as.placeEpoch }

// Segments returns the segments in creation order. The slice is shared;
// do not modify it.
func (as *AddressSpace) Segments() []*Segment { return as.segments }

// Distribution returns mapped page counts per node across all segments.
func (as *AddressSpace) Distribution() []int64 {
	out := make([]int64, as.numNodes)
	for _, s := range as.segments {
		for n, c := range s.counts {
			out[n] += c
		}
	}
	return out
}

// TotalMigratedBytes returns the lifetime page-migration volume.
func (as *AddressSpace) TotalMigratedBytes() int64 { return as.migratedBytes }

// DrainMigratedBytes returns the migration volume accumulated since the
// previous call and resets the accumulator. The simulation engine calls
// this each tick to charge migration bandwidth.
func (as *AddressSpace) DrainMigratedBytes() int64 {
	v := as.pendingMigrated
	as.pendingMigrated = 0
	return v
}

// Name returns the segment name.
func (s *Segment) Name() string { return s.name }

// Length returns the segment length in bytes.
func (s *Segment) Length() uint64 { return uint64(s.pageCount) * PageSize }

// PageCount returns the number of pages in the segment.
func (s *Segment) PageCount() int { return s.pageCount }

// MappedPages returns how many pages have been faulted in.
func (s *Segment) MappedPages() int { return s.mapped }

// Owner returns SharedOwner or the owning node for private segments.
func (s *Segment) Owner() topology.NodeID { return s.owner }

// touch records a (possible) placement change: the cached fraction view is
// stale and both the segment's and the address space's epochs advance.
func (s *Segment) touch() {
	s.fracDirty = true
	s.epoch++
	s.as.placeEpoch++
}

// runIndex returns the index of the run containing page i.
func (s *Segment) runIndex(i int) int {
	return sort.Search(len(s.runs), func(j int) bool { return s.runs[j].start > i }) - 1
}

// runEnd returns the exclusive page bound of run j.
func (s *Segment) runEnd(j int) int {
	if j+1 < len(s.runs) {
		return s.runs[j+1].start
	}
	return s.pageCount
}

// Counts returns a copy of the per-node page counts.
func (s *Segment) Counts() []int64 { return append([]int64(nil), s.counts...) }

// NumNodes returns the node count of the segment's address space.
func (s *Segment) NumNodes() int { return s.as.numNodes }

// Fractions returns the fraction of mapped pages on each node. If nothing
// is mapped, all fractions are zero.
//
// The returned slice is a cached view owned by the segment, recomputed
// lazily after placement changes: callers must not modify it and must not
// hold it across placement operations. The simulation engine reads it
// every tick; the cache is what keeps that read allocation-free.
func (s *Segment) Fractions() []float64 {
	if s.fracDirty {
		s.fracDirty = false
		if s.mapped == 0 {
			for i := range s.frac {
				s.frac[i] = 0
			}
		} else {
			m := float64(s.mapped)
			for n, c := range s.counts {
				s.frac[n] = float64(c) / m
			}
		}
	}
	return s.frac
}

// appendRun appends a run to dst, merging it into the previous run when
// both cover pages with the same placement function.
func appendRun(dst []run, start int, pat pattern) []run {
	if n := len(dst); n > 0 && dst[n-1].pat.sameFunc(pat) {
		return dst
	}
	return append(dst, run{start: start, pat: pat})
}

// replaceRange applies pattern np to pages [a,b): unmapped pages always
// adopt np (allocation under the policy); mapped pages adopt it only when
// move is set, counting a migration for every page whose node changes.
// Counts, the mapped total and the migration accumulators are maintained
// incrementally; the runs slice is rebuilt into scratch and swapped, so a
// steady-state re-bind of an existing range allocates nothing.
func (s *Segment) replaceRange(a, b int, np pattern, move bool) {
	if a < 0 {
		a = 0
	}
	if b > s.pageCount {
		b = s.pageCount
	}
	if a >= b {
		return
	}
	out := s.runsAlt[:0]
	migrated := int64(0)
	for j := range s.runs {
		r := s.runs[j]
		lo, hi := r.start, s.runEnd(j)
		if hi <= a || lo >= b {
			out = appendRun(out, lo, r.pat)
			continue
		}
		if lo < a {
			out = appendRun(out, lo, r.pat)
		}
		il, ih := max(lo, a), min(hi, b)
		switch {
		case !r.pat.mapped():
			s.mapped += ih - il
			np.countInto(il, ih, s.counts, 1)
			out = appendRun(out, il, np)
		case move:
			migrated += int64(ih-il) - samePlacement(r.pat, np, il, ih)
			r.pat.countInto(il, ih, s.counts, -1)
			np.countInto(il, ih, s.counts, 1)
			out = appendRun(out, il, np)
		default:
			out = appendRun(out, il, r.pat)
		}
		if hi > b {
			out = appendRun(out, b, r.pat)
		}
	}
	s.runs, s.runsAlt = out, s.runs
	s.touch()
	if migrated > 0 {
		s.as.migratedBytes += migrated * PageSize
		s.as.pendingMigrated += migrated * PageSize
	}
}

// FaultAll first-touches every unmapped page of the segment onto node n.
func (s *Segment) FaultAll(n topology.NodeID) {
	s.replaceRange(0, s.pageCount, pattern{kind: patSeq, seq: s.as.single(n)}, false)
}

// canonicalNodeSet sorts node ids ascending and removes duplicates,
// mirroring the kernel's bitmask representation of an interleave set. The
// copy is retained by the caller's pattern, so it must be owned; the sort
// is an insertion sort because node sets are at most machine-sized (a
// handful of ids) and this runs on every mbind — reflection-based
// sort.Slice dominated the fleet's placement allocation profile here.
func canonicalNodeSet(nodes []topology.NodeID) []topology.NodeID {
	out := append(make([]topology.NodeID, 0, len(nodes)), nodes...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	dedup := out[:0]
	for i, n := range out {
		if i == 0 || n != out[i-1] {
			dedup = append(dedup, n)
		}
	}
	return dedup
}

// checkNodes validates a node set argument.
func (s *Segment) checkNodes(nodes []topology.NodeID) error {
	if len(nodes) == 0 {
		return fmt.Errorf("mm: %s: empty node set", s.name)
	}
	for _, n := range nodes {
		if int(n) < 0 || int(n) >= s.as.numNodes {
			return fmt.Errorf("mm: %s: node %d out of range [0,%d)", s.name, n, s.as.numNodes)
		}
	}
	return nil
}

// Mbind applies a uniform page interleave over the byte range
// [offset, offset+length) of the segment, mirroring
// mbind(MPOL_INTERLEAVE). The range is truncated to the segment and
// page-aligned (offset rounded down, end rounded up). The node set is a
// *set* — as in the kernel, where it is a bitmask — so caller order is
// irrelevant: page p of the range targets the (p mod k)-th set node in
// ascending id order, counted from the start of the range. Each mbind call
// establishes its own interleave origin, and identical ranges re-bound over
// the same set are no-ops; both properties are what keep Algorithm 1's
// DWP steps incremental.
//
// With MoveFlag, mapped pages that violate the target are migrated
// (MPOL_MF_MOVE); unmapped pages are always mapped to their target
// (allocation under the policy).
func (s *Segment) Mbind(offset, length uint64, nodes []topology.NodeID, flags Flags) error {
	if err := s.checkNodes(nodes); err != nil {
		return err
	}
	if offset >= s.Length() || length == 0 {
		return nil
	}
	end := offset + length
	if end > s.Length() {
		end = s.Length()
	}
	first := int(offset / PageSize)
	last := int((end + PageSize - 1) / PageSize)
	var set []topology.NodeID
	if len(nodes) == 1 {
		set = s.as.single(nodes[0]) // share the sequence so adjacent binds merge
	} else if set = s.as.canonicalSet(nodes); len(set) == 1 {
		set = s.as.single(set[0])
	}
	s.replaceRange(first, last, pattern{kind: patSeq, origin: first, seq: set}, flags&MoveFlag != 0)
	return nil
}

// MbindWeighted applies the kernel-level weighted-interleave policy the
// paper implements as a new system call (Section III-B2): pages are
// assigned in a Bresenham-style weighted round-robin so that every prefix
// of the segment approximates the weight distribution. Weights must have
// one entry per node and a positive sum; they are normalized internally.
func (s *Segment) MbindWeighted(weights []float64, flags Flags) error {
	return s.MbindWeightedShared(weights, flags, nil)
}

// MbindWeightedShared is MbindWeighted with the walk's checkpoints copied
// from walks (see WalkTable); a nil table walks privately. Either way the
// pages land on the same nodes.
func (s *Segment) MbindWeightedShared(weights []float64, flags Flags, walks *WalkTable) error {
	if len(weights) != s.as.numNodes {
		return fmt.Errorf("mm: %s: %d weights for %d nodes", s.name, len(weights), s.as.numNodes)
	}
	norm, err := normalize(weights)
	if err != nil {
		return fmt.Errorf("mm: %s: %w", s.name, err)
	}
	wk := s.as.lastWalk
	if wk == nil || !slices.Equal(wk.weights, norm) {
		wk = newWalk(norm, s.pageCount)
		s.as.lastWalk = wk
	}
	if walks != nil {
		walks.fill(wk, s.pageCount)
	}
	s.replaceRange(0, s.pageCount, pattern{kind: patWeighted, walk: wk}, flags&MoveFlag != 0)
	return nil
}

// normalize returns weights divided by their sum, the vector a weighted
// bind walks, or why they cannot be bound.
func normalize(weights []float64) ([]float64, error) {
	sum := 0.0
	for i, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("non-finite weight %v for node %d", w, i)
		}
		if w < 0 {
			return nil, fmt.Errorf("negative weight %f for node %d", w, i)
		}
		sum += w
	}
	if sum <= 0 {
		return nil, fmt.Errorf("weights sum to zero")
	}
	if math.IsInf(sum, 1) {
		return nil, fmt.Errorf("weights sum overflows")
	}
	norm := make([]float64, len(weights))
	for i, w := range weights {
		norm[i] = w / sum
	}
	return norm, nil
}

// migrateEdit is one contiguous block of pages MigrateToward re-homes.
type migrateEdit struct {
	lo, hi int
	to     topology.NodeID
}

// MigrateToward moves up to maxBytes of mapped pages so the segment's
// distribution approaches target (a fraction vector over nodes). Pages move
// in page order from the most over-represented nodes to the most
// under-represented ones, and the cost is proportional to the runs visited
// and pages actually moved — not the segment size. It returns the bytes
// actually migrated. This is the primitive behind the simulated AutoNUMA
// policy's rate-limited locality migrations.
func (s *Segment) MigrateToward(target []float64, maxBytes int64) (int64, error) {
	if len(target) != s.as.numNodes {
		return 0, fmt.Errorf("mm: %s: %d target fractions for %d nodes", s.name, len(target), s.as.numNodes)
	}
	if s.mapped == 0 || maxBytes <= 0 {
		return 0, nil
	}
	// Deficit (in pages) per node: positive = wants pages.
	if s.as.deficit == nil {
		s.as.deficit = make([]int64, s.as.numNodes)
	}
	deficit := s.as.deficit
	for n := range deficit {
		want := int64(target[n] * float64(s.mapped))
		deficit[n] = want - s.counts[n]
	}
	budget := maxBytes / PageSize
	if budget == 0 {
		return 0, nil
	}
	argmax := func() int {
		best, bestDeficit := -1, int64(0)
		for n, d := range deficit {
			if d > bestDeficit {
				best, bestDeficit = n, d
			}
		}
		return best
	}
	// receiverQuota returns how many consecutive pages may move to rcv
	// before a per-page argmax re-evaluation would pick a different
	// receiver — the bound that keeps bulk moves identical to a per-page
	// implementation, which alternates between receivers whose deficits
	// converge (ties break to the lowest node id).
	receiverQuota := func(rcv int) int64 {
		second, secondIdx := int64(0), -1
		for n, d := range deficit {
			if n != rcv && d > second {
				second, secondIdx = d, n
			}
		}
		if secondIdx < 0 {
			return deficit[rcv]
		}
		q := deficit[rcv] - second
		if rcv < secondIdx {
			q++ // rcv wins the tie at equality
		}
		return q
	}
	edits := s.as.edits[:0]
	moved := int64(0)
scan:
	for j := 0; j < len(s.runs) && budget > 0; j++ {
		r := s.runs[j]
		lo, hi := r.start, s.runEnd(j)
		if !r.pat.mapped() {
			continue
		}
		if r.pat.kind == patSeq && len(r.pat.seq) == 1 {
			// Fast path: a single-node run donates a contiguous prefix.
			d := r.pat.seq[0]
			p := lo
			for budget > 0 && p < hi && deficit[d] < 0 {
				rcv := argmax()
				if rcv < 0 {
					break scan
				}
				k := min(int64(hi-p), -deficit[d], receiverQuota(rcv), budget)
				edits = append(edits, migrateEdit{lo: p, hi: p + int(k), to: topology.NodeID(rcv)})
				s.counts[d] -= k
				s.counts[rcv] += k
				deficit[d] += k
				deficit[rcv] -= k
				budget -= k
				moved += k
				p += int(k)
			}
			continue
		}
		// General path: walk the run's assignment page by page. Bounded by
		// the run length, as a per-page implementation would be.
		c := r.pat.cursorAt(lo)
		for p := lo; p < hi && budget > 0; p++ {
			cur := c.next()
			if deficit[cur] >= 0 {
				continue
			}
			rcv := argmax()
			if rcv < 0 {
				break scan
			}
			if n := len(edits); n > 0 && edits[n-1].hi == p && edits[n-1].to == topology.NodeID(rcv) {
				edits[n-1].hi = p + 1
			} else {
				edits = append(edits, migrateEdit{lo: p, hi: p + 1, to: topology.NodeID(rcv)})
			}
			s.counts[cur]--
			s.counts[rcv]++
			deficit[cur]++
			deficit[rcv]--
			budget--
			moved++
		}
	}
	s.as.edits = edits
	if moved == 0 {
		return 0, nil
	}
	s.applyEdits(edits)
	s.as.migratedBytes += moved * PageSize
	s.as.pendingMigrated += moved * PageSize
	s.touch()
	return moved * PageSize, nil
}

// applyEdits re-homes the (sorted, disjoint) edit blocks to their
// destination nodes. Counts have already been adjusted by the caller.
//
// Only the span of runs the edits touch is rebuilt, into scratch, and
// spliced back between the untouched prefix and suffix. The span starts
// one run early and absorbs the suffix's first run when it continues the
// span's last, so both joins merge exactly as appendRun over the whole
// slice would and the runs stay maximal.
//
// Every run of the span yields at most one run per edit clipped into it,
// one per gap before such an edit and one for its tail; an edit is clipped
// into each run it crosses. The scratch is sized to that bound up front.
func (s *Segment) applyEdits(edits []migrateEdit) {
	first := max(s.runIndex(edits[0].lo)-1, 0)
	last := s.runIndex(edits[len(edits)-1].hi - 1)
	if bound := 3*(last-first+1) + 2*len(edits); cap(s.runsAlt) < bound {
		s.runsAlt = make([]run, 0, bound)
	}
	span := s.runsAlt[:0]
	e := 0
	for j := first; j <= last; j++ {
		r := s.runs[j]
		lo, hi := r.start, s.runEnd(j)
		pos := lo
		for e < len(edits) && edits[e].lo < hi {
			// Clip the edit to this run; a coalesced edit may span runs.
			el, eh := max(edits[e].lo, lo), min(edits[e].hi, hi)
			if pos < el {
				span = appendRun(span, pos, r.pat)
			}
			span = appendRun(span, el, pattern{kind: patSeq, origin: el, seq: s.as.single(edits[e].to)})
			pos = eh
			if edits[e].hi > hi {
				break // remainder of the edit belongs to the next run
			}
			e++
		}
		if pos < hi {
			span = appendRun(span, pos, r.pat)
		}
	}
	end := last + 1
	if end < len(s.runs) && span[len(span)-1].pat.sameFunc(s.runs[end].pat) {
		end++
	}
	s.runs = slices.Replace(s.runs, first, end, span...)
	s.runsAlt = span[:0]
}
