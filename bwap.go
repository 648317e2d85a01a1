// Package bwap is a faithful, fully simulated reproduction of
// "Bandwidth-Aware Page Placement in NUMA Systems" (Gureya et al.,
// IPDPS 2020).
//
// BWAP places an application's pages across NUMA nodes with *asymmetric
// weighted interleaving*: an offline canonical tuner profiles the machine's
// contended node-to-node bandwidths and computes per-node weights
// (Equations 2/5 of the paper), and an on-line DWP tuner then shifts page
// mass between worker and non-worker nodes by hill-climbing on sampled
// stall rates. Because Go cannot drive mbind(2) or PMU counters portably,
// the machine itself — topology, memory controllers, interconnect
// contention, the virtual-memory system and the performance counters — is
// simulated (see DESIGN.md for the substitution argument); the BWAP
// algorithms run unchanged on top.
//
// # Quick start
//
//	m := bwap.MachineA()                                   // the paper's 8-node Opteron
//	ct := bwap.NewCanonicalTuner(m, bwap.Config{})         // offline profiling stage
//	workers, _ := bwap.BestWorkerSet(m, 2)                 // AsymSched thread placement
//	res, _ := bwap.RunStandalone(m, bwap.Config{}, bwap.Streamcluster(), workers, bwap.NewBWAP(ct))
//	fmt.Println(res.Times["SC"])
//
// The experiments that regenerate every table and figure of the paper live
// in cmd/bwap-experiments; the library pieces are re-exported here so
// downstream users need only this package.
package bwap

import (
	"bwap/internal/core"
	"bwap/internal/fleet"
	"bwap/internal/memsys"
	"bwap/internal/mm"
	"bwap/internal/policy"
	"bwap/internal/sched"
	"bwap/internal/sim"
	"bwap/internal/topology"
	"bwap/internal/workload"
)

// Machine describes a NUMA system: nodes, links, routes, latencies.
type Machine = topology.Machine

// NodeID identifies a NUMA node.
type NodeID = topology.NodeID

// MatrixSpec parameterizes FromMatrix for custom machines.
type MatrixSpec = topology.MatrixSpec

// Spec is a parametric application model (demand, access mix, latency
// sensitivity, scalability).
type Spec = workload.Spec

// Engine is the discrete-time co-scheduling simulator.
type Engine = sim.Engine

// App is one application instance inside an Engine.
type App = sim.App

// Config tunes the simulation engine.
type Config = sim.Config

// Result summarizes a finished run.
type Result = sim.Result

// Placer is a page-placement policy.
type Placer = sim.Placer

// Hook runs every simulated tick (AutoNUMA and the BWAP tuners are hooks).
type Hook = sim.Hook

// CanonicalTuner computes canonical weight distributions per worker set.
type CanonicalTuner = core.CanonicalTuner

// BWAPPolicy is the complete policy (canonical tuner + on-line DWP tuner).
type BWAPPolicy = core.BWAP

// StaticDWP places pages at a fixed proximity factor with no tuning.
type StaticDWP = core.StaticDWP

// Params are the DWP tuner's search parameters (paper: n=20 c=5 t=0.2s x=10%).
type Params = core.Params

// Tuner is the read-side of a running DWP search.
type Tuner = core.Tuner

// Measurement is one completed tuner sampling period.
type Measurement = core.Measurement

// MemConfig tunes the contention model.
type MemConfig = memsys.Config

// Segment is a contiguous mapping with per-page node placement.
type Segment = mm.Segment

// AddressSpace is a simulated process address space.
type AddressSpace = mm.AddressSpace

// MachineA returns the paper's Machine A: 8-node AMD Opteron 6272 with the
// Figure 1a bandwidth matrix (amplitude 5.8x).
func MachineA() *Machine { return topology.MachineA() }

// MachineB returns the paper's Machine B: 4-node Intel Xeon E5-2660 v4 in
// Cluster-on-Die mode (amplitude 2.3x).
func MachineB() *Machine { return topology.MachineB() }

// Symmetric returns an n-node machine with identical remote bandwidths.
func Symmetric(n, coresPerNode int, localGBs, remoteGBs float64) *Machine {
	return topology.Symmetric(n, coresPerNode, localGBs, remoteGBs)
}

// HybridDRAMNVRAM returns a machine with DRAM compute nodes and memory-only
// NVRAM nodes — the paper's Section VI future-work direction. BWAP handles
// it unchanged: the canonical tuner profiles the slow media and weights it
// down.
func HybridDRAMNVRAM(computeNodes, nvramNodes, coresPerNode int, dramGBs, nvramGBs float64) *Machine {
	return topology.HybridDRAMNVRAM(computeNodes, nvramNodes, coresPerNode, dramGBs, nvramGBs)
}

// MemoryIntensive classifies an application by its MAPI (memory accesses
// per instruction) counter — the automation the paper proposes for the
// co-scheduled variant's workload classification. A threshold of 0 selects
// the default.
func MemoryIntensive(app *App, threshold float64) bool {
	return core.MemoryIntensive(app, threshold)
}

// NewPhaseDetector watches an application's MAPI variation and reports
// when it enters its stable phase — the paper's proposed automatic
// BWAP-init trigger. (BWAPPolicy.AutoDetectStablePhase wires it in
// automatically.)
func NewPhaseDetector(app *App) *core.PhaseDetector {
	return core.NewPhaseDetector(app)
}

// FromMatrix builds a machine whose measured pairwise bandwidths reproduce
// the given matrix.
func FromMatrix(spec MatrixSpec) (*Machine, error) { return topology.FromMatrix(spec) }

// Benchmarks returns the paper's five memory-intensive benchmarks
// (SC, OC, ON, SP.B, FT.C), calibrated to Table I.
func Benchmarks() []Spec { return workload.Benchmarks() }

// WorkloadByName returns a benchmark spec by its paper abbreviation
// ("SC", "OC", "ON", "SP.B", "FT.C", "Swaptions").
func WorkloadByName(name string) (Spec, error) { return workload.ByName(name) }

// Streamcluster returns the PARSEC Streamcluster model (the workload of
// Figure 4).
func Streamcluster() Spec { return workload.Streamcluster }

// SwaptionsSpec returns the compute-bound co-runner used by the
// co-scheduled scenarios.
func SwaptionsSpec() Spec { return workload.Swaptions }

// SyntheticWorkload builds a custom streaming workload.
func SyntheticWorkload(name string, readGBs, writeGBs, privateFrac, latencySensitivity float64) Spec {
	return workload.Synthetic(name, readGBs, writeGBs, privateFrac, latencySensitivity)
}

// NewEngine returns a simulation engine for the machine.
func NewEngine(m *Machine, cfg Config) *Engine { return sim.New(m, cfg) }

// NewCanonicalTuner returns the offline profiling stage of BWAP. The
// configuration should match the one used for the actual runs so profiled
// bandwidths see the same contention model.
func NewCanonicalTuner(m *Machine, cfg Config) *CanonicalTuner {
	return core.NewCanonicalTuner(m, cfg)
}

// NewBWAP returns the full policy: canonical weights + on-line DWP tuner,
// enforced with the portable user-level Algorithm 1.
func NewBWAP(ct *CanonicalTuner) *BWAPPolicy { return core.NewBWAP(ct) }

// NewBWAPUniform returns the BWAP-uniform ablation (no canonical tuner;
// the DWP search starts from uniform-all).
func NewBWAPUniform() *BWAPPolicy { return core.NewBWAPUniform() }

// DynamicBWAPPolicy is the Section VI future-work variant: it re-tunes the
// weight distribution whenever the application's access pattern (MAPI)
// shifts, using kernel-level enforcement so pages can migrate both ways.
type DynamicBWAPPolicy = core.DynamicBWAP

// NewDynamicBWAP returns the dynamic re-tuning policy.
func NewDynamicBWAP(ct *CanonicalTuner) *DynamicBWAPPolicy {
	return &core.DynamicBWAP{Canonical: ct}
}

// WorkloadPhase describes one regime of a phase-changing application.
type WorkloadPhase = workload.Phase

// FirstTouch returns the Linux default placement policy.
func FirstTouch() Placer { return policy.FirstTouch{} }

// UniformWorkers returns uniform interleaving across worker nodes (the
// strategy of Carrefour/AsymSched).
func UniformWorkers() Placer { return policy.UniformWorkers{} }

// UniformAll returns uniform interleaving across all nodes.
func UniformAll() Placer { return policy.UniformAll{} }

// AutoNUMA returns the locality-driven balancing policy (one instance per
// engine).
func AutoNUMA() Placer { return &policy.AutoNUMA{} }

// StaticWeighted places all pages by a fixed per-node weight vector.
func StaticWeighted(weights []float64) Placer { return policy.StaticWeighted{Weights: weights} }

// BestWorkerSet picks the k worker nodes with the highest aggregate
// inter-worker bandwidth (the AsymSched deployment rule the paper adopts).
func BestWorkerSet(m *Machine, k int) ([]NodeID, error) { return sched.BestWorkerSet(m, k) }

// RemainingNodes lists the nodes outside the worker set.
func RemainingNodes(m *Machine, workers []NodeID) []NodeID {
	return sched.RemainingNodes(m, workers)
}

// RunStandalone deploys one workload on the worker set under the given
// policy and runs it to completion.
func RunStandalone(m *Machine, cfg Config, spec Spec, workers []NodeID, placer Placer) (*Result, error) {
	e := sim.New(m, cfg)
	if _, err := e.AddApp(spec.Name, spec, workers, placer); err != nil {
		return nil, err
	}
	return e.Run()
}

// RunCoScheduled deploys a high-priority workload on the nodes outside the
// worker set (placed first-touch, as the paper's latency-sensitive app
// does) and the best-effort workload on the workers under the given
// policy. If the policy is a BWAPPolicy, its co-scheduled two-stage tuner
// is engaged automatically.
func RunCoScheduled(m *Machine, cfg Config, hi, best Spec, workers []NodeID, placer Placer) (*Result, error) {
	e := sim.New(m, cfg)
	rest := sched.RemainingNodes(m, workers)
	if len(rest) == 0 {
		return nil, errNoRoomForCoRunner
	}
	if _, err := e.AddApp(hi.Name, hi, rest, policy.FirstTouch{}); err != nil {
		return nil, err
	}
	if b, ok := placer.(*core.BWAP); ok {
		b.CoRunner = hi.Name
	}
	if _, err := e.AddApp(best.Name, best, workers, placer); err != nil {
		return nil, err
	}
	return e.Run()
}

// Fleet is the discrete-event job-stream scheduler over a set of simulated
// NUMA machines — the service layer above single-run engines. See
// internal/fleet and the DESIGN.md fleet section.
type Fleet = fleet.Fleet

// FleetConfig parameterizes a fleet (machines, policy, seed, cache).
type FleetConfig = fleet.Config

// FleetJob is one scheduled unit of a fleet's job stream.
type FleetJob = fleet.Job

// FleetStats summarizes a fleet's throughput, latency, utilization and
// tuning-cache economics.
type FleetStats = fleet.Stats

// Admission policy names for FleetConfig.Admission: each picks a job's
// worker-node set on the admitting machine.
const (
	FleetAdmitMostFree      = fleet.AdmitMostFree
	FleetAdmitBestBandwidth = fleet.AdmitBestBandwidth
	FleetAdmitAntiAffinity  = fleet.AdmitAntiAffinity
)

// FleetRecord is one line of the fleet's replayable JSONL event log.
type FleetRecord = fleet.Record

// FleetServer serves a fleet over HTTP (the bwapd daemon).
type FleetServer = fleet.Server

// FleetObserver is the fleet's deterministic telemetry layer: sim-time
// counters, histograms, a windowed timeline and optional lifecycle spans,
// fed purely by the event-record stream so attaching one never changes
// the event log.
type FleetObserver = fleet.Observer

// FleetObserverConfig parameterizes a FleetObserver (timeline window,
// ring size, optional Chrome trace-event span sink).
type FleetObserverConfig = fleet.ObserverConfig

// StreamSpec is one workload class of a fleet job stream: a spec plus an
// arrival process.
type StreamSpec = fleet.StreamSpec

// ArrivalSpec describes a deterministic arrival process (periodic or
// Poisson) for a job stream.
type ArrivalSpec = workload.ArrivalSpec

// TuningCache memoizes BWAP placement decisions across jobs, keyed by
// (topology fingerprint × workload signature × worker count × co-runner
// count), with single-flight probing. It is durable (Save/LoadInto a
// versioned snapshot file) and optionally LRU-bounded.
type TuningCache = fleet.TuningCache

// TuningCacheOption configures a TuningCache at construction.
type TuningCacheOption = fleet.TuningCacheOption

// TuningCacheStats is the cache's cumulative accounting (misses = probe
// runs; restored = entries loaded from a snapshot).
type TuningCacheStats = fleet.TuningCacheStats

// NewFleet builds a fleet of simulated NUMA machines serving a job stream.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return fleet.New(cfg) }

// NewFleetServer wraps a fleet in the bwapd HTTP API.
func NewFleetServer(f *Fleet) *FleetServer { return fleet.NewServer(f) }

// NewFleetObserver builds a telemetry observer; attach it to one fleet
// via FleetConfig.Obs.
func NewFleetObserver(cfg FleetObserverConfig) *FleetObserver { return fleet.NewObserver(cfg) }

// NewTuningCache returns a tuning cache shareable across fleets and
// daemons. Failed probes are forgotten (retried on the next lookup) and
// the cache is unbounded unless CacheMaxEntries bounds it.
func NewTuningCache(simCfg Config, probeScale float64, seed uint64, opts ...TuningCacheOption) *TuningCache {
	return fleet.NewTuningCache(simCfg, probeScale, seed, opts...)
}

// CacheMaxEntries bounds a tuning cache's placement entries with LRU
// eviction (n <= 0 keeps it unbounded).
func CacheMaxEntries(n int) TuningCacheOption { return fleet.CacheMaxEntries(n) }

// ProbeWorkers sizes the cache's speculative probe pool: n > 0 allows n
// concurrent background probes, n == 0 defaults to GOMAXPROCS, n < 0
// disables prefetching (probes run synchronously at admission). The pool
// width never changes any demand-side observable — logs, stats and
// metrics are byte-identical at every setting.
func ProbeWorkers(n int) TuningCacheOption { return fleet.ProbeWorkers(n) }

// DecodeFleetLog parses a fleet's JSONL event log for replay verification.
func DecodeFleetLog(data []byte) ([]FleetRecord, error) { return fleet.DecodeLog(data) }

// TraceArrival builds the arrival spec that replays explicit recorded
// timestamps verbatim — the trace-driven stream source.
func TraceArrival(times []float64) ArrivalSpec { return workload.TraceArrival(times) }

// ReadFleetTrace parses a fleet's JSONL event log back into trace-driven
// stream specs, so a recorded stream can be resubmitted and replayed.
// resolve maps workload names to specs; nil selects WorkloadByName.
func ReadFleetTrace(data []byte, resolve func(name string) (Spec, error)) ([]StreamSpec, error) {
	return fleet.ReadTrace(data, resolve)
}

type coRunnerError string

func (e coRunnerError) Error() string { return string(e) }

const errNoRoomForCoRunner = coRunnerError("bwap: worker set covers the whole machine; no nodes left for the co-runner")
