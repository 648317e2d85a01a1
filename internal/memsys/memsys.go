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
	"fmt"
	"math"

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

// System solves flow sets against one machine. It is reusable and
// goroutine-safe for concurrent Solve calls (all state is per-call).
type System struct {
	m   *topology.Machine
	cfg Config
}

// New returns a System for the machine with the given model configuration.
func New(m *topology.Machine, cfg Config) *System {
	return &System{m: m, cfg: cfg}
}

// Machine returns the underlying machine description.
func (s *System) Machine() *topology.Machine { return s.m }

// Config returns the contention model configuration.
func (s *System) Config() Config { return s.cfg }

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

// TotalRate returns the sum of all achieved flow rates.
func (r *Result) TotalRate() float64 {
	total := 0.0
	for _, v := range r.Rates {
		total += v
	}
	return total
}

// resource indices within the solver's flat resource table:
// [0,N)      controllers
// [N,2N)     ingest caps
// [2N,2N+L)  links
func (s *System) resourceCount() int { return 2*s.m.NumNodes() + s.m.NumLinks() }

// Solve computes demand-bounded max-min fair rates for the given flows.
// Flows with non-positive demand get rate 0. The algorithm is progressive
// filling: all unfrozen flows grow at the same rate until either a flow's
// demand is met (it freezes satisfied) or a resource saturates (all flows
// through it freeze bottlenecked); repeat until every flow is frozen.
//
// Each call allocates a fresh Solver, which keeps System goroutine-safe.
// Callers on a hot loop should hold their own Solver and call its Solve,
// which reuses all scratch state and allocates nothing at steady state.
func (s *System) Solve(flows []Flow) *Result {
	return s.NewSolver().Solve(flows)
}

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

	// Per-flow scratch, grown on demand and reused.
	pathBuf   []int32 // concatenated resource lists
	pathOff   []int32 // pathBuf offsets; flow i's path is pathBuf[pathOff[i]:pathOff[i+1]]
	remaining []float64
	activeIdx []int32 // indices of unfrozen flows, ascending

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

// path returns flow i's resource list.
func (sv *Solver) path(i int32) []int32 {
	return sv.pathBuf[sv.pathOff[i]:sv.pathOff[i+1]]
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
// The returned Result shares the solver's buffers: it is valid only until
// the next Solve call on this solver.
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
// that slot's buffers.
func (sv *Solver) remember(h uint64, flows []Flow) {
	if sv.memo == nil {
		sv.memo = new([memoSize]memoEntry)
	}
	e := &sv.memo[sv.memoNext]
	sv.memoNext = (sv.memoNext + 1) % memoSize
	e.hash = h
	e.flows = append(e.flows[:0], flows...)
	res := &sv.res
	e.out = append(e.out[:0], res.Rates...)
	e.out = append(e.out, res.ControllerUtil...)
	e.out = append(e.out, res.IngestUtil...)
	e.out = append(e.out, res.LinkUtil...)
	e.out = append(e.out, res.NodeOutGBs...)
}

// fill runs progressive filling into the solver's result buffers.
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

	// Per-flow resource lists (flat) and the active-flow index list.
	sv.pathOff = grow(sv.pathOff, len(flows)+1)
	sv.remaining = grow(sv.remaining, len(flows))
	sv.activeIdx = sv.activeIdx[:0]
	sv.pathBuf = sv.pathBuf[:0]
	sv.pathOff[0] = 0
	for i, f := range flows {
		if f.Demand > 0 {
			sv.pathBuf = append(sv.pathBuf, int32(f.Src), int32(n+int(f.Dst)))
			for _, l := range s.m.Route(f.Src, f.Dst) {
				sv.pathBuf = append(sv.pathBuf, int32(2*n+int(l)))
			}
			sv.remaining[i] = f.Demand
			sv.activeIdx = append(sv.activeIdx, int32(i))
		}
		sv.pathOff[i+1] = int32(len(sv.pathBuf))
	}

	// Progressive filling. The per-resource active-flow counts (load) are
	// maintained incrementally: initialized once, decremented along a
	// flow's path when it freezes — no per-round rescan of the flow set.
	load := sv.load
	for r := range load {
		load[r] = 0
	}
	for _, i := range sv.activeIdx {
		for _, r := range sv.path(i) {
			load[r]++
		}
	}
	const eps = 1e-9
	for len(sv.activeIdx) > 0 {
		// The uniform increment every active flow can take.
		inc := math.Inf(1)
		for r, k := range load {
			if k > 0 {
				if share := capacity[r] / float64(k); share < inc {
					inc = share
				}
			}
		}
		for _, i := range sv.activeIdx {
			if sv.remaining[i] < inc {
				inc = sv.remaining[i]
			}
		}
		if inc < 0 {
			inc = 0
		}
		// Apply the increment.
		for _, i := range sv.activeIdx {
			res.Rates[i] += inc
			sv.remaining[i] -= inc
			for _, r := range sv.path(i) {
				capacity[r] -= inc
			}
		}
		// Freeze satisfied flows and flows on saturated resources,
		// compacting the active list in place (order is preserved).
		kept := sv.activeIdx[:0]
		for _, i := range sv.activeIdx {
			frozen := sv.remaining[i] <= eps
			if !frozen {
				for _, r := range sv.path(i) {
					if capacity[r] <= eps {
						frozen = true
						break
					}
				}
			}
			if frozen {
				for _, r := range sv.path(i) {
					load[r]--
				}
			} else {
				kept = append(kept, i)
			}
		}
		if len(kept) == len(sv.activeIdx) {
			// Defensive: cannot happen (inc always exhausts a demand or a
			// resource), but never loop forever on numerical corner cases.
			sv.activeIdx = kept
			break
		}
		sv.activeIdx = kept
	}

	// Utilizations and per-node outbound counters.
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
	for l := 0; l < s.m.NumLinks(); l++ {
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

// PairwiseBW measures the single-stream bandwidth from src to dst — the
// procedure behind Figure 1a: one saturating flow, nothing else running.
func (s *System) PairwiseBW(src, dst topology.NodeID) float64 {
	r := s.Solve([]Flow{{Src: src, Dst: dst, Demand: 1e6}})
	return r.Rates[0]
}

// MeasuredMatrix returns the full pairwise single-stream bandwidth matrix.
func (s *System) MeasuredMatrix() [][]float64 {
	n := s.m.NumNodes()
	out := make([][]float64, n)
	for src := 0; src < n; src++ {
		out[src] = make([]float64, n)
		for dst := 0; dst < n; dst++ {
			out[src][dst] = s.PairwiseBW(topology.NodeID(src), topology.NodeID(dst))
		}
	}
	return out
}

// Validate sanity-checks the configuration.
func (c Config) Validate() error {
	if c.StreamPenalty < 0 {
		return fmt.Errorf("memsys: negative stream penalty %v", c.StreamPenalty)
	}
	if c.EfficiencyFloor <= 0 || c.EfficiencyFloor > 1 {
		return fmt.Errorf("memsys: efficiency floor %v out of (0,1]", c.EfficiencyFloor)
	}
	if c.WritePenalty < 1 {
		return fmt.Errorf("memsys: write penalty %v below 1", c.WritePenalty)
	}
	return nil
}
