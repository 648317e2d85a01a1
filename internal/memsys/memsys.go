// Package memsys models the contended memory system of a NUMA machine.
//
// Given a set of flows — (source memory node → destination worker node)
// pairs with a bandwidth demand — it computes the rates the flows actually
// achieve under demand-bounded max-min fairness (progressive filling) over
// three resource classes:
//
//   - the source node's memory controller (local/remote contention),
//   - every directed interconnect link on the flow's route (congestion),
//   - the destination node's core ingest capacity.
//
// This is the substrate behind the paper's Equations 1–5: the "parallel
// transfers, slowest transfer dominates" abstraction is exactly what
// max-min fair sharing produces when a worker spreads demand across nodes.
//
// Two refinements model the non-linearities Section III-A3 cites:
//
//   - controller efficiency shrinks with the number of distinct streams
//     contending at a controller (row-buffer/bank interference, DraMon [30]);
//   - write traffic costs more than read traffic at the controller
//     (callers fold writes in via EquivalentDemand).
package memsys

import (
	"math"
	"slices"

	"bwap/internal/topology"
)

// Flow is one directed bandwidth demand: threads on Dst reading (and
// writing) pages that live on Src at up to Demand GB/s of
// controller-equivalent traffic.
type Flow struct {
	Src, Dst topology.NodeID
	// Demand is the controller-equivalent demand in GB/s (reads plus
	// write-penalty-weighted writes; see EquivalentDemand).
	Demand float64
	// Streams is the number of distinct hardware streams (threads) behind
	// this flow; it feeds the source controller's multi-stream efficiency
	// model. Zero is treated as one stream; a negative value contributes no
	// streams (used when the same threads are already counted by a sibling
	// flow of the same application and worker).
	Streams int
	// Tag is opaque caller context (e.g. which app and page class the flow
	// belongs to); the solver ignores it.
	Tag int
}

// streamCount returns the effective stream count of a flow.
func (f Flow) streamCount() int {
	switch {
	case f.Streams < 0:
		return 0
	case f.Streams == 0:
		return 1
	default:
		return f.Streams
	}
}

// Config tunes the contention model.
type Config struct {
	// StreamPenalty is the per-extra-stream controller efficiency loss
	// coefficient: eff(k) = Floor + (1-Floor)/(1+StreamPenalty*(k-1)).
	StreamPenalty float64
	// EfficiencyFloor bounds how far multi-stream interference can degrade
	// a controller.
	EfficiencyFloor float64
	// WritePenalty is the controller cost multiplier for write bytes,
	// applied by EquivalentDemand.
	WritePenalty float64
}

// DefaultConfig returns the model parameters used across the reproduction.
// StreamPenalty/Floor are chosen so that a fully loaded 8-thread node keeps
// roughly 80% of its single-stream controller bandwidth, consistent with
// the saturation behaviour the paper observes for OC/ON/FT.C private
// traffic; WritePenalty reflects DRAM write turnaround cost.
func DefaultConfig() Config {
	return Config{
		StreamPenalty:   0.035,
		EfficiencyFloor: 0.70,
		WritePenalty:    1.5,
	}
}

// EquivalentDemand folds a read/write demand pair into a single
// controller-equivalent GB/s figure.
func (c Config) EquivalentDemand(readGBs, writeGBs float64) float64 {
	return readGBs + c.WritePenalty*writeGBs
}

// Efficiency returns the controller efficiency for k contending streams.
func (c Config) Efficiency(k int) float64 {
	if k <= 1 {
		return 1
	}
	eff := c.EfficiencyFloor + (1-c.EfficiencyFloor)/(1+c.StreamPenalty*float64(k-1))
	return eff
}

// System describes one machine under the contention model. It is
// immutable; each goroutine solves flow sets on its own Solver.
type System struct {
	m   *topology.Machine
	cfg Config
}

// New returns a System for the machine with the given model configuration.
func New(m *topology.Machine, cfg Config) *System {
	return &System{m: m, cfg: cfg}
}

// Result reports the outcome of one Solve call.
type Result struct {
	// Rates holds the achieved GB/s of each flow, in input order.
	Rates []float64
	// ControllerUtil is the per-node memory controller utilization in
	// [0,1] relative to effective (efficiency-scaled) capacity.
	ControllerUtil []float64
	// IngestUtil is the per-node core ingest utilization in [0,1].
	IngestUtil []float64
	// LinkUtil is the per-link utilization in [0,1].
	LinkUtil []float64
	// NodeOutGBs is the achieved outbound (read-side) traffic per source
	// node; this is what the per-node DRAM throughput counters expose and
	// what the canonical tuner profiles.
	NodeOutGBs []float64
}

// resource indices within the solver's flat resource table:
// [0,N)      controllers
// [N,2N)     ingest caps
// [2N,2N+L)  links
func (s *System) resourceCount() int { return 2*s.m.NumNodes() + s.m.NumLinks() }

// Solver computes max-min fair rates against one System while reusing all
// intermediate state across calls. It is not safe for concurrent use; give
// each goroutine its own Solver (the simulation engine owns one per run).
type Solver struct {
	sys *System

	// Per-resource scratch, sized once at construction.
	capacity []float64
	initial  []float64
	streams  []int
	load     []int32

	// The machine's routes as resource lists, built at the first fill in
	// one backing array: routeOf(p) for the pair p = src·N + dst, and
	// pairsThrough(r) for the pairs whose route uses resource r.
	routeOff, routeRes, throughOff, throughPairs []int32

	// Per-flow and per-pair scratch, grown on demand and reused.
	byDemand  []demandRef // the active flows, ascending by demand
	frozen    []bool      // per flow
	pairOff   []int32     // pair p's active flows are pairFlows[pairOff[p]:pairOff[p+1]]
	pairFlows []int32
	loaded    []int32   // resources with an active flow through them, ascending
	incs      []float64 // the increment of every round so far

	res Result
	// epoch counts Solve calls, so a caller holding the returned *Result
	// can prove it still describes the most recent solve.
	epoch uint64

	// memo is a ring of the solver's recent fills, allocated at its
	// second Solve so a one-shot solver pays nothing. memoNext is the slot
	// the next miss overwrites.
	memo     *[memoSize]memoEntry
	memoNext int
	memoHits uint64
}

// memoSize is the number of recent fills a Solver remembers. On the
// perfbench paper pass a ring of k fills answers 10.3% of all solves at
// k = 1, 36.2% at 2, 48.4% at 4, 56.2% at 8, 59.0% at 16 and 60.4% at 32
// (DESIGN §9).
const memoSize = 8

// memoEntry is one remembered solve: its input flows and the outputs it
// produced.
type memoEntry struct {
	hash  uint64
	flows []Flow
	// out holds Rates, ControllerUtil, IngestUtil, LinkUtil and
	// NodeOutGBs back to back; nil marks an unused slot.
	out []float64
}

// demandRef is an active flow: its demand (the key fill sorts by), its
// index and its pair.
type demandRef struct {
	d    float64
	i, p int32
}

// sameInput reports whether two flows agree on every field Solve reads:
// all but Tag.
func sameInput(a, b Flow) bool {
	return a.Src == b.Src && a.Dst == b.Dst && a.Demand == b.Demand && a.Streams == b.Streams
}

// NewSolver returns a reusable solver for the system. The float64 scratch
// and result slices are carved from one backing array (full slice
// expressions keep them from growing into each other): the fleet scheduler
// creates an engine — and with it a solver — per placement evaluation, so
// construction cost is on the hot path.
func (s *System) NewSolver() *Solver {
	n := s.m.NumNodes()
	rc := s.resourceCount()
	nl := s.m.NumLinks()
	f := make([]float64, 2*rc+3*n+nl)
	capacity, f := f[:rc:rc], f[rc:]
	initial, f := f[:rc:rc], f[rc:]
	cu, f := f[:n:n], f[n:]
	iu, f := f[:n:n], f[n:]
	lu, f := f[:nl:nl], f[nl:]
	return &Solver{
		sys:      s,
		capacity: capacity,
		initial:  initial,
		streams:  make([]int, n),
		load:     make([]int32, rc),
		res: Result{
			ControllerUtil: cu,
			IngestUtil:     iu,
			LinkUtil:       lu,
			NodeOutGBs:     f,
		},
	}
}

// Epoch returns the number of Solve calls performed on this solver. The
// *Result a Solve returns is the solver's reusable buffer — stable in
// identity, overwritten by the next Solve — so a cached pointer is valid
// exactly while the epoch captured alongside it is unchanged. This is the
// contract the simulation engine's quiescent-interval fast-forward relies
// on to replay a solve bit for bit.
func (sv *Solver) Epoch() uint64 { return sv.epoch }

// MemoHits returns the number of Solve calls answered from the memo.
func (sv *Solver) MemoHits() uint64 { return sv.memoHits }

// Solve computes demand-bounded max-min fair rates for the given flows.
// Flows with non-positive demand get rate 0. The algorithm is progressive
// filling: all unfrozen flows grow at the same rate until either a flow's
// demand is met (it freezes satisfied) or a resource saturates (all flows
// through it freeze bottlenecked); repeat until every flow is frozen. The
// returned Result shares the solver's buffers: it is valid only until the
// next Solve call on this solver.
//
// A call whose flows equal, field for field (Tag aside), those of one of
// the last memoSize solves this solver filled copies that solve's outputs
// instead of filling again. Filling is a deterministic function of
// exactly those fields, so a hit returns the bytes a fresh fill would.
// Demands compare with ==, which equates +0 and −0; both are
// non-positive, which is all the filling reads of them. A NaN demand
// never compares equal, so a flow set holding one always fills.
func (sv *Solver) Solve(flows []Flow) *Result {
	sv.epoch++
	if sv.epoch == 1 || len(flows) == 0 {
		return sv.fill(flows)
	}
	h := hashFlows(flows)
	if e := sv.lookup(h, flows); e != nil {
		sv.memoHits++
		return sv.recall(e)
	}
	res := sv.fill(flows)
	sv.remember(h, flows)
	return res
}

// hashFlows mixes the fields Solve reads, FNV-1a style, in two
// independent lanes (demand bits; the three integers folded into one
// word) so the multiplies overlap. It only picks candidates: lookup
// compares every field before it hits.
func hashFlows(flows []Flow) uint64 {
	const prime = 0x100000001b3
	d, i := uint64(0xcbf29ce484222325), uint64(len(flows))
	for _, f := range flows {
		d = (d ^ math.Float64bits(f.Demand)) * prime
		i = (i ^ uint64(f.Src) ^ uint64(f.Dst)<<20 ^ uint64(f.Streams)<<40) * prime
	}
	return d ^ i
}

// lookup returns the remembered solve of exactly these flows, or nil.
func (sv *Solver) lookup(h uint64, flows []Flow) *memoEntry {
	if sv.memo == nil {
		return nil
	}
next:
	for i := range sv.memo {
		e := &sv.memo[i]
		if e.out == nil || e.hash != h || len(e.flows) != len(flows) {
			continue
		}
		for j, f := range flows {
			if !sameInput(f, e.flows[j]) {
				continue next
			}
		}
		return e
	}
	return nil
}

// recall copies a remembered solve into the solver's result buffers.
func (sv *Solver) recall(e *memoEntry) *Result {
	res := &sv.res
	res.Rates = grow(res.Rates, len(e.flows))
	out := e.out
	out = out[copy(res.Rates, out):]
	out = out[copy(res.ControllerUtil, out):]
	out = out[copy(res.IngestUtil, out):]
	out = out[copy(res.LinkUtil, out):]
	copy(res.NodeOutGBs, out)
	return res
}

// remember stores the solve just filled in the oldest ring slot, reusing
// that slot's buffers; a slot too small for this solve grows once, to its
// whole size.
func (sv *Solver) remember(h uint64, flows []Flow) {
	if sv.memo == nil {
		sv.memo = new([memoSize]memoEntry)
	}
	e := &sv.memo[sv.memoNext]
	sv.memoNext = (sv.memoNext + 1) % memoSize
	e.hash = h
	e.flows = append(e.flows[:0], flows...)
	res := &sv.res
	n := len(res.Rates) + len(res.ControllerUtil) + len(res.IngestUtil) + len(res.LinkUtil) + len(res.NodeOutGBs)
	e.out = slices.Grow(e.out[:0], n)
	e.out = append(e.out, res.Rates...)
	e.out = append(e.out, res.ControllerUtil...)
	e.out = append(e.out, res.IngestUtil...)
	e.out = append(e.out, res.LinkUtil...)
	e.out = append(e.out, res.NodeOutGBs...)
}

// fill runs progressive filling into the solver's result buffers.
//
// Every round, each active flow takes the same increment: the least of
// every loaded resource's capacity/load and every active flow's remaining
// demand. A flow freezes once its demand is met (remaining ≤ eps) or a
// resource on its route saturates (capacity ≤ eps). fill repeats every
// floating-point operation of that loop the outputs depend on, but a
// round costs O(loaded resources + active flows), and a flow's route is
// read only when it freezes (DESIGN §9):
//
//   - the loaded resources are kept in ascending index order, so the
//     capacity/load minimum compares the same values in the same order;
//   - every active flow has taken every increment so far, and
//     x ↦ fl(x − inc) is monotone, so remaining demands keep the order of
//     the demands: the smallest is the first active flow's in byDemand,
//     and the flows a round satisfies are a prefix of it;
//   - a flow's rate is the running sum of the increments up to the round
//     it froze in;
//   - a loaded resource loses the increment once per active flow through
//     it, and its load counts exactly those flows;
//   - a saturated resource freezes the active flows of every pair through
//     it.
func (sv *Solver) fill(flows []Flow) *Result {
	s := sv.sys
	n := s.m.NumNodes()
	res := &sv.res
	res.Rates = grow(res.Rates, len(flows))
	zero(res.Rates)
	zero(res.ControllerUtil)
	zero(res.IngestUtil)
	zero(res.LinkUtil)
	zero(res.NodeOutGBs)
	if len(flows) == 0 {
		return res
	}

	// Effective controller capacity given stream counts.
	for i := range sv.streams {
		sv.streams[i] = 0
	}
	for _, f := range flows {
		if f.Demand > 0 {
			sv.streams[f.Src] += f.streamCount()
		}
	}
	capacity := sv.capacity
	for i := 0; i < n; i++ {
		node := s.m.Node(topology.NodeID(i))
		capacity[i] = node.ControllerGBs * s.cfg.Efficiency(sv.streams[i])
		capacity[n+i] = s.m.IngestGBs()
	}
	for l := 0; l < s.m.NumLinks(); l++ {
		capacity[2*n+l] = s.m.Link(topology.LinkID(l)).CapacityGBs
	}
	initial := sv.initial
	copy(initial, capacity)

	// The active flows, counted by pair.
	if sv.routeOff == nil {
		sv.buildRoutes()
	}
	pairs := n * n
	pairOff := grow(sv.pairOff, pairs+1)
	for p := range pairOff {
		pairOff[p] = 0
	}
	sv.frozen = grow(sv.frozen, len(flows))
	byDemand := grow(sv.byDemand, len(flows))[:0]
	for i, f := range flows {
		sv.frozen[i] = false
		if f.Demand > 0 {
			p := int32(int(f.Src)*n + int(f.Dst))
			pairOff[p]++
			byDemand = append(byDemand, demandRef{f.Demand, int32(i), p})
		}
	}
	sv.byDemand = byDemand
	if len(byDemand) == 0 {
		return sv.utilization(flows)
	}

	// Each resource's load (the active flows through it), each pair's
	// flow list, and the loaded resources.
	load := sv.load
	for r := range load {
		load[r] = 0
	}
	end := int32(0)
	for p, k := range pairOff[:pairs] {
		if k > 0 {
			for _, r := range sv.routeOf(int32(p)) {
				load[r] += k
			}
		}
		end += k
		pairOff[p] = end
	}
	pairOff[pairs] = end
	pairFlows := grow(sv.pairFlows, int(end))
	for _, f := range byDemand {
		pairOff[f.p]--
		pairFlows[pairOff[f.p]] = f.i
	}
	sv.pairOff, sv.pairFlows = pairOff, pairFlows
	loaded := grow(sv.loaded, len(load))[:0]
	for r, k := range load {
		if k > 0 {
			loaded = append(loaded, int32(r))
		}
	}
	sortByDemand(byDemand)

	const eps = 1e-9
	active := len(byDemand)
	front := 0                        // byDemand index of the first active flow
	frontRem := byDemand[0].d         // its remaining demand
	total := 0.0                      // the rate every active flow has reached
	incs := grow(sv.incs, active)[:0] // every round but the last freezes a flow
	for {
		// The uniform increment every active flow can take.
		// Resources the last round's freezes unloaded leave the list.
		inc := math.Inf(1)
		kept := loaded[:0]
		for _, r := range loaded {
			if load[r] == 0 {
				continue
			}
			kept = append(kept, r)
			if share := capacity[r] / float64(load[r]); share < inc {
				inc = share
			}
		}
		loaded = kept
		if frontRem < inc {
			inc = frontRem
		}
		if inc < 0 {
			inc = 0
		}
		// Apply the increment.
		total += inc
		frontRem -= inc
		incs = append(incs, inc)
		saturated := false
		for _, r := range loaded {
			c := capacity[r]
			for k := load[r]; k > 0; k-- {
				c -= inc
			}
			capacity[r] = c
			saturated = saturated || c <= eps
		}
		// Freeze the flows on saturated resources, then satisfied flows.
		before := active
		if saturated {
			for _, r := range loaded {
				if capacity[r] > eps {
					continue
				}
				for _, p := range sv.pairsThrough(r) {
					for _, i := range pairFlows[pairOff[p]:pairOff[p+1]] {
						if !sv.frozen[i] {
							sv.freeze(i, p, total)
							active--
						}
					}
				}
			}
		}
		for active > 0 {
			f := byDemand[front]
			if sv.frozen[f.i] {
				front++
				if next := byDemand[front]; next.d != f.d {
					frontRem = next.d
					for _, x := range incs {
						frontRem -= x
					}
				}
				continue
			}
			if frontRem > eps {
				break
			}
			sv.freeze(f.i, f.p, total)
			active--
		}
		if active == 0 {
			break
		}
		if active == before {
			// Defensive: cannot happen (inc always exhausts a demand or a
			// resource), but never loop forever on numerical corner cases.
			for _, f := range byDemand[front:] {
				if !sv.frozen[f.i] {
					res.Rates[f.i] = total
				}
			}
			break
		}
	}
	sv.loaded, sv.incs = loaded, incs
	return sv.utilization(flows)
}

// freeze fixes the rate of flow i, on pair p, and takes it off the loads
// of the resources on its route.
func (sv *Solver) freeze(i, p int32, rate float64) {
	sv.frozen[i] = true
	sv.res.Rates[i] = rate
	for _, r := range sv.routeOf(p) {
		sv.load[r]--
	}
}

// buildRoutes lists each pair's resources — the source controller, the
// destination's ingest cap, then the links of its route — and the pairs
// through each resource, all in one backing array.
func (sv *Solver) buildRoutes() {
	m := sv.sys.m
	n := m.NumNodes()
	pairs, rc := n*n, len(sv.load)
	size := 0
	for p := 0; p < pairs; p++ {
		size += 2 + len(m.Route(topology.NodeID(p/n), topology.NodeID(p%n)))
	}
	slab := make([]int32, pairs+1+size+rc+1+size)
	sv.routeOff, slab = slab[:pairs+1], slab[pairs+1:]
	sv.routeRes, slab = slab[:0:size], slab[size:]
	sv.throughOff, sv.throughPairs = slab[:rc+1], slab[rc+1:]
	for p := 0; p < pairs; p++ {
		src, dst := topology.NodeID(p/n), topology.NodeID(p%n)
		sv.routeRes = append(sv.routeRes, int32(src), int32(n+int(dst)))
		for _, l := range m.Route(src, dst) {
			sv.routeRes = append(sv.routeRes, int32(2*n+int(l)))
		}
		sv.routeOff[p+1] = int32(len(sv.routeRes))
	}
	// Count each resource's pairs, turn the counts into end offsets, then
	// fill each list back to front.
	off := sv.throughOff
	for _, r := range sv.routeRes {
		off[r]++
	}
	end := int32(0)
	for r := 0; r < rc; r++ {
		end += off[r]
		off[r] = end
	}
	off[rc] = end
	for p := int32(0); p < int32(pairs); p++ {
		for _, r := range sv.routeOf(p) {
			off[r]--
			sv.throughPairs[off[r]] = p
		}
	}
}

// routeOf returns pair p's resources.
func (sv *Solver) routeOf(p int32) []int32 {
	return sv.routeRes[sv.routeOff[p]:sv.routeOff[p+1]]
}

// pairsThrough returns the pairs whose route uses resource r.
func (sv *Solver) pairsThrough(r int32) []int32 {
	return sv.throughPairs[sv.throughOff[r]:sv.throughOff[r+1]]
}

// sortByDemand sorts the active flows by ascending demand: a Shell sort
// with Ciura's gaps, whose compares inline.
func sortByDemand(s []demandRef) {
	for _, h := range [...]int{701, 301, 132, 57, 23, 10, 4, 1} {
		for i := h; i < len(s); i++ {
			x := s[i]
			j := i
			for ; j >= h && x.d < s[j-h].d; j -= h {
				s[j] = s[j-h]
			}
			s[j] = x
		}
	}
}

// utilization fills the per-node outbound counters and the utilizations
// from the rates and the capacities the filling left.
func (sv *Solver) utilization(flows []Flow) *Result {
	n := sv.sys.m.NumNodes()
	res := &sv.res
	capacity, initial := sv.capacity, sv.initial
	for i, f := range flows {
		if res.Rates[i] > 0 {
			res.NodeOutGBs[f.Src] += res.Rates[i]
		}
	}
	for i := 0; i < n; i++ {
		if initial[i] > 0 {
			res.ControllerUtil[i] = (initial[i] - capacity[i]) / initial[i]
		}
		if initial[n+i] > 0 {
			res.IngestUtil[i] = (initial[n+i] - capacity[n+i]) / initial[n+i]
		}
	}
	for l := 0; l < sv.sys.m.NumLinks(); l++ {
		r := 2*n + l
		if initial[r] > 0 {
			res.LinkUtil[l] = (initial[r] - capacity[r]) / initial[r]
		}
	}
	return res
}

// grow returns s resized to n, reusing capacity; new elements are zeroed
// only where Go's append semantics leave them stale, so callers must reset
// any state they rely on.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n, n+n/2)
}

func zero(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// pairwiseBW measures the single-stream bandwidth from src to dst on the
// solver — the procedure behind Figure 1a: one saturating flow, nothing
// else running.
func pairwiseBW(sv *Solver, src, dst topology.NodeID) float64 {
	return sv.Solve([]Flow{{Src: src, Dst: dst, Demand: 1e6}}).Rates[0]
}

// MeasuredMatrix returns the full pairwise single-stream bandwidth matrix.
// One solver measures every pair, so its route lists are built once.
func (s *System) MeasuredMatrix() [][]float64 {
	n := s.m.NumNodes()
	sv := s.NewSolver()
	out := make([][]float64, n)
	for src := 0; src < n; src++ {
		out[src] = make([]float64, n)
		for dst := 0; dst < n; dst++ {
			out[src][dst] = pairwiseBW(sv, topology.NodeID(src), topology.NodeID(dst))
		}
	}
	return out
}
