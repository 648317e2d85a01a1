// Package core implements BWAP — bandwidth-aware weighted page placement —
// exactly as Section III of the paper describes it:
//
//   - the canonical tuner (offline): profiles the machine with a
//     bandwidth-intensive reference application under uniform-all
//     interleaving, reads the per-node-pair throughput counters as the
//     bw(src→dst) estimate, and derives canonical weights via the min-BW
//     reduction (Equations 2, 4 and 5);
//   - the DWP tuner (on-line): from the canonical distribution (DWP=0),
//     hill-climbs the data-to-worker-proximity factor on sampled stall
//     rates, migrating pages incrementally at each step;
//   - Algorithm 1: the portable user-level approximation of weighted
//     interleaving built from sub-range mbind calls;
//   - the co-scheduled variant (Section III-B3): a two-stage search that
//     first protects a high-priority co-runner, then optimizes the
//     best-effort application.
package core

import (
	"fmt"

	"bwap/internal/cache"
	"bwap/internal/numaapi"
	"bwap/internal/sim"
	"bwap/internal/stats"
	"bwap/internal/topology"
	"bwap/internal/workload"
)

// ProbeSpec is the canonical application used for profiling
// (Section III-A3): one thread per hardware thread of the worker nodes,
// each performing a random traversal of a shared array — extremely
// bandwidth-intensive, read-only, fully shared, latency-oblivious.
func ProbeSpec() workload.Spec {
	return workload.Synthetic("canonical-probe", 60, 0, 0, 0)
}

// CanonicalTuner computes and caches canonical weight distributions per
// worker set for one machine. It is safe for concurrent use.
type CanonicalTuner struct {
	m *topology.Machine
	// SimCfg configures the profiling runs; Zero uses engine defaults.
	SimCfg sim.Config
	// ProfileSeconds is the simulated duration of one profiling run
	// (default 3 s).
	ProfileSeconds float64

	// entries caches one worker set's canonical weights per worker-set key
	// with single-flight semantics: concurrent first users of the same key
	// share a profiling run, while distinct keys profile in parallel.
	entries *cache.Cache[[]float64]
}

// NewCanonicalTuner returns a tuner for the machine. The simulation
// configuration should match the one experiments use, so that the profiled
// bandwidths reflect the same contention model.
func NewCanonicalTuner(m *topology.Machine, cfg sim.Config) *CanonicalTuner {
	return &CanonicalTuner{
		m:              m,
		SimCfg:         cfg,
		ProfileSeconds: 3,
		entries:        cache.New[[]float64](),
	}
}

func workerKey(workers []topology.NodeID) string {
	// Same bytes as NewBitmask(...).String(), rendered straight into a
	// stack buffer: this key is derived on every DWP-weight lookup, so the
	// node-slice/parts/join allocations of the naive rendering showed up in
	// fleet profiles.
	var buf [256]byte
	return string(numaapi.NewBitmask(workers...).AppendRanges(buf[:0]))
}

// uniformAllPlacer places the probe's pages uniformly across all nodes,
// the profiling configuration of Section III-A3.
type uniformAllPlacer struct{}

func (uniformAllPlacer) Name() string { return "profile-uniform-all" }

func (uniformAllPlacer) Place(e *sim.Engine, a *sim.App) error {
	mask := numaapi.AllNodes(e.M.NumNodes())
	for _, seg := range a.Segments() {
		if err := numaapi.InterleaveMemory(seg, mask); err != nil {
			return err
		}
	}
	return nil
}

// compute profiles the worker set and reduces the measured bw(src→dst)
// matrix to canonical weights.
func (ct *CanonicalTuner) compute(key string, workers []topology.NodeID) ([]float64, error) {
	cfg := ct.SimCfg
	secs := ct.ProfileSeconds
	if secs <= 0 {
		secs = 3
	}
	cfg.MaxTime = secs
	e := sim.New(ct.m, cfg)
	app, err := e.AddApp("canonical-probe", ProbeSpec(), workers, uniformAllPlacer{})
	if err != nil {
		return nil, fmt.Errorf("core: profiling %s: %w", key, err)
	}
	if _, err := e.Run(); err != nil {
		return nil, fmt.Errorf("core: profiling %s: %w", key, err)
	}
	return WeightsFromMinBW(MinBW(app.Counters.BWMatrixGBs(), workers)), nil
}

// MinBW reduces a profiled matrix to per-source minimum bandwidths over the
// worker set: minbw(n) = min over workers w of bw(n→w) (Equation 4).
func MinBW(matrix [][]float64, workers []topology.NodeID) []float64 {
	out := make([]float64, len(matrix))
	for src := range matrix {
		minV := -1.0
		for _, w := range workers {
			v := matrix[src][w]
			if minV < 0 || v < minV {
				minV = v
			}
		}
		if minV < 0 {
			minV = 0
		}
		out[src] = minV
	}
	return out
}

// WeightsFromMinBW normalizes min-bandwidths into the canonical weight
// distribution: wᵢ = minbw(nᵢ) / Σⱼ minbw(nⱼ) (Equations 2 and 5).
func WeightsFromMinBW(minbw []float64) []float64 {
	return stats.Normalize(minbw)
}

// Weights returns the canonical weight distribution for the worker set,
// profiling the machine at most once per worker set, through the
// single-flight cache (Section III-A: the canonical tuner runs offline, at
// installation time, for the relevant worker sets).
func (ct *CanonicalTuner) Weights(workers []topology.NodeID) ([]float64, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("core: empty worker set")
	}
	key := workerKey(workers)
	w, _, err := ct.entries.Get(key, func() ([]float64, error) {
		return ct.compute(key, workers)
	})
	return w, err
}
