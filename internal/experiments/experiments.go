// Package experiments regenerates every table and figure of the paper's
// evaluation (Section II and Section IV) on the simulated machines:
//
//	Figure 1a — node-to-node bandwidth matrix of Machine A
//	Figure 1b — baseline policies vs the offline n-dimensional search
//	Table I   — memory access characterization of the benchmarks
//	Figure 2  — co-scheduled speedups on Machine A (1/2/4 workers)
//	Figure 3a/b — co-scheduled speedups on Machine B (1/2 workers)
//	Figure 3c/d — stand-alone speedups at optimal worker counts
//	Table II  — DWP values found by the iterative search
//	Figure 4  — static-DWP sweep vs the on-line tuner (Streamcluster)
//	plus the Section IV-B overhead/accuracy analysis and the kernel- vs
//	user-level interleaving ablation.
//
// Absolute numbers come from the simulator, not the authors' testbed; the
// comparisons EXPERIMENTS.md makes are about shape (who wins, by roughly
// what factor, where trends reverse).
package experiments

import (
	"fmt"
	"math"
	"sync"

	"bwap/internal/cache"
	"bwap/internal/core"
	"bwap/internal/policy"
	"bwap/internal/sched"
	"bwap/internal/sim"
	"bwap/internal/stats"
	"bwap/internal/topology"
	"bwap/internal/workload"
)

// Profile bundles a machine with the simulation configuration and
// experiment scales used on it.
type Profile struct {
	// Name labels output.
	Name string
	// M is the machine under test.
	M *topology.Machine
	// SimCfg is the engine configuration every run uses.
	SimCfg sim.Config
	// Seeds is how many noise seeds BWAP runs average over (the paper
	// averages 5 runs).
	Seeds int
	// WorkScale uniformly scales benchmark work volumes, trading run length
	// for fidelity of the tuner's convergence window.
	WorkScale float64
	// SearchBudget is the evaluation budget of the Figure 1b offline search
	// (the paper spent ~180 evaluations per benchmark).
	SearchBudget int
	// TunerParams configures the DWP tuner; the zero value selects the
	// paper's n=20/c=5/t=0.2s/x=10%.
	TunerParams core.Params

	ct   *core.CanonicalTuner
	memo *runMemo
}

// runMemo remembers the result of every multi-seed run of a profile, so an
// artifact that repeats a deployment another has run — Table II, Figure 4
// and the overhead analysis repeat the tuned co-scheduled runs of Figures
// 2 and 3 — reuses it instead of simulating all its seeds again. Only
// multi-seed runs are kept: they are the ones artifacts repeat, and the
// memo lives as long as its profile. It answers only for the profile state
// it was filled under.
type runMemo struct {
	state runState
	runs  *cache.Cache[RunResult]
}

// runState is every profile field a run reads, compared by value (the
// machine and the engine configuration's pointers by identity).
type runState struct {
	m           *topology.Machine
	simCfg      sim.Config
	seeds       int
	workScale   float64
	tunerParams core.Params
}

// MachineA returns the experiment profile of the paper's Machine A.
//
// DemandFactor calibration: Table I demands were measured on Machine B's
// cores; Machine A packs 8 (vs 7) hungrier-relative-to-controller cores per
// node — Section II shows its workloads saturating node controllers hard.
// The factor 1.3 reproduces that demand/capacity regime.
func MachineA() *Profile {
	return &Profile{
		Name:         "machine-A",
		M:            topology.MachineA(),
		SimCfg:       sim.Config{DemandFactor: 1.3, Seed: 1},
		Seeds:        5,
		WorkScale:    0.25,
		SearchBudget: 180,
		TunerParams:  scaledTunerParams(0.25),
	}
}

// scaledTunerParams compresses the DWP tuner's sampling pipeline by the
// same factor the profile compresses work volumes, so the search converges
// at the same *fraction* of the run as it does in the paper (whose
// n=20/c=5/t=0.2s parameters assume minutes-long native runs; those remain
// the library defaults in core.DefaultParams).
func scaledTunerParams(workScale float64) core.Params {
	p := core.DefaultParams()
	if workScale >= 1 {
		return p
	}
	// Halve the per-sample window (bounded below by the tick length) and
	// shrink the sample count to keep the trimmed mean meaningful.
	p.N, p.C, p.T = 10, 2, 0.1
	if workScale <= 0.12 {
		p.N, p.C, p.T = 5, 1, 0.1
	}
	return p
}

// MachineB returns the experiment profile of the paper's Machine B (the
// Table I reference machine: DemandFactor 1).
func MachineB() *Profile {
	return &Profile{
		Name:         "machine-B",
		M:            topology.MachineB(),
		SimCfg:       sim.Config{DemandFactor: 1.0, Seed: 2},
		Seeds:        5,
		WorkScale:    0.25,
		SearchBudget: 180,
		TunerParams:  scaledTunerParams(0.25),
	}
}

// Quick returns a reduced-cost copy of the profile for tests and
// benchmarks: fewer seeds, shorter runs, smaller search budget. The
// steady-state behaviour (who wins) is unchanged; only averaging tightness
// suffers.
func (p *Profile) Quick() *Profile {
	q := *p
	q.ct, q.memo = nil, nil
	q.Seeds = 2
	q.WorkScale = 0.10
	q.SearchBudget = 48
	q.TunerParams = scaledTunerParams(q.WorkScale)
	return &q
}

// profileMu guards lazy construction of profile canonical tuners and run
// memos; the parallel harness may race on first use.
var profileMu sync.Mutex

// Canonical returns the profile's canonical tuner (shared so its profiling
// cache is reused across runs; safe for concurrent use).
func (p *Profile) Canonical() *core.CanonicalTuner {
	profileMu.Lock()
	defer profileMu.Unlock()
	if p.ct == nil {
		p.ct = core.NewCanonicalTuner(p.M, p.SimCfg)
	}
	return p.ct
}

// runs returns the profile's run memo, replacing it when a field a run
// reads has changed since it was made.
func (p *Profile) runs() *cache.Cache[RunResult] {
	st := runState{p.M, p.SimCfg, p.Seeds, p.WorkScale, p.TunerParams}
	profileMu.Lock()
	defer profileMu.Unlock()
	if p.memo == nil || p.memo.state != st {
		p.memo = &runMemo{state: st, runs: cache.New[RunResult](cache.ForgetErrors())}
	}
	return p.memo.runs
}

// Workers returns the k-node worker set chosen by the AsymSched rule.
func (p *Profile) Workers(k int) ([]topology.NodeID, error) {
	return sched.BestWorkerSet(p.M, k)
}

// PolicyNames is the fixed policy order of Figures 2 and 3.
var PolicyNames = []string{
	"first-touch", "uniform-workers", "uniform-all", "autonuma", "bwap-uniform", "bwap",
}

// NewPolicy builds a fresh placer by name. coRunner, when non-empty, makes
// the BWAP variants use the co-scheduled two-stage tuner against that app.
// Fresh instances matter: AutoNUMA and BWAP carry per-run state.
func (p *Profile) NewPolicy(name, coRunner string) (sim.Placer, error) {
	switch name {
	case "first-touch":
		return policy.FirstTouch{}, nil
	case "uniform-workers":
		return policy.UniformWorkers{}, nil
	case "uniform-all":
		return policy.UniformAll{}, nil
	case "autonuma":
		return &policy.AutoNUMA{}, nil
	case "bwap-uniform":
		b := core.NewBWAPUniform()
		b.CoRunner = coRunner
		if p.TunerParams != (core.Params{}) {
			b.Params = p.TunerParams
		}
		return b, nil
	case "bwap":
		b := core.NewBWAP(p.Canonical())
		b.CoRunner = coRunner
		if p.TunerParams != (core.Params{}) {
			b.Params = p.TunerParams
		}
		return b, nil
	}
	return nil, fmt.Errorf("experiments: unknown policy %q", name)
}

// policyIsNoisy reports whether a policy's runs depend on the noise seed
// (only the BWAP variants sample noisy counters).
func policyIsNoisy(name string) bool { return name == "bwap" || name == "bwap-uniform" }

// RunResult is the outcome of a single benchmark deployment.
type RunResult struct {
	// Time is the completion time in simulated seconds (averaged over
	// seeds for noisy policies).
	Time float64
	// StallRate is the app's lifetime average stalled cycles/s.
	StallRate float64
	// CoRunnerStallRate is the high-priority app's average stall rate in
	// co-scheduled runs (0 otherwise).
	CoRunnerStallRate float64
	// BestDWP and AppliedDWP report the BWAP tuner outcome (NaN for
	// non-BWAP policies).
	BestDWP, AppliedDWP float64
	// MigratedGB is the total page-migration volume.
	MigratedGB float64
}

const coRunnerName = "swaptions"

// runOnce executes one deployment: spec with the given placer on workers;
// if coScheduled, Swaptions occupies the remaining nodes first (placed
// locally, as the paper's high-priority app does).
func (p *Profile) runOnce(spec workload.Spec, workers []topology.NodeID, placerName string, coScheduled bool, seed uint64) (RunResult, error) {
	cfg := p.SimCfg
	cfg.Seed = seed
	e := sim.New(p.M, cfg)

	coRunner := ""
	if coScheduled {
		coRunner = coRunnerName
		rest := sched.RemainingNodes(p.M, workers)
		if len(rest) == 0 {
			return RunResult{}, fmt.Errorf("experiments: no nodes left for the co-runner")
		}
		if _, err := e.AddApp(coRunnerName, workload.Swaptions, rest, policy.FirstTouch{}); err != nil {
			return RunResult{}, err
		}
	}
	placer, err := p.NewPolicy(placerName, coRunner)
	if err != nil {
		return RunResult{}, err
	}
	app, err := e.AddApp(spec.Name, spec.Scaled(p.WorkScale), workers, placer)
	if err != nil {
		return RunResult{}, err
	}
	res, err := e.Run()
	if err != nil {
		return RunResult{}, err
	}
	if res.TimedOut {
		return RunResult{}, fmt.Errorf("experiments: %s under %s timed out", spec.Name, placerName)
	}

	out := RunResult{
		Time:       res.Times[spec.Name],
		StallRate:  res.AvgStallRate[spec.Name],
		BestDWP:    math.NaN(),
		AppliedDWP: math.NaN(),
		MigratedGB: float64(app.AS.TotalMigratedBytes()) / 1e9,
	}
	if coScheduled {
		out.CoRunnerStallRate = res.AvgStallRate[coRunnerName]
	}
	if b, ok := placer.(*core.BWAP); ok {
		if tuner := b.TunerFor(spec.Name); tuner != nil {
			if err := tuner.Err(); err != nil {
				return RunResult{}, fmt.Errorf("experiments: tuner for %s: %w", spec.Name, err)
			}
			out.BestDWP = tuner.BestDWP()
			out.AppliedDWP = tuner.AppliedDWP()
		}
	}
	return out, nil
}

// Run executes a deployment, averaging noisy policies over the profile's
// seeds. Seed replicas are independent simulations and run on the shared
// worker pool; aggregation happens in seed order, so the result is
// identical to a serial run. A multi-seed deployment the profile has run
// before returns its remembered result.
func (p *Profile) Run(spec workload.Spec, workers []topology.NodeID, placerName string, coScheduled bool) (RunResult, error) {
	if !policyIsNoisy(placerName) || p.Seeds <= 1 {
		return p.runSeeds(spec, workers, placerName, coScheduled, 1)
	}
	key := fmt.Sprintf("%s|%v|%s|%t", spec.Signature(), workers, placerName, coScheduled)
	r, _, err := p.runs().Get(key, func() (RunResult, error) {
		return p.runSeeds(spec, workers, placerName, coScheduled, p.Seeds)
	})
	return r, err
}

// runSeeds runs a deployment under seeds noise seeds and aggregates them.
func (p *Profile) runSeeds(spec workload.Spec, workers []topology.NodeID, placerName string, coScheduled bool, seeds int) (RunResult, error) {
	replicas := make([]RunResult, seeds)
	err := parallelFor(seeds, func(s int) error {
		r, err := p.runOnce(spec, workers, placerName, coScheduled, p.SimCfg.Seed+uint64(s)*7919)
		replicas[s] = r
		return err
	})
	if err != nil {
		return RunResult{}, err
	}
	var agg RunResult
	var times, stalls, bests, applieds, migs, coStalls []float64
	for _, r := range replicas {
		times = append(times, r.Time)
		stalls = append(stalls, r.StallRate)
		coStalls = append(coStalls, r.CoRunnerStallRate)
		migs = append(migs, r.MigratedGB)
		if !math.IsNaN(r.BestDWP) {
			bests = append(bests, r.BestDWP)
			applieds = append(applieds, r.AppliedDWP)
		}
	}
	agg.Time = stats.Mean(times)
	agg.StallRate = stats.Mean(stalls)
	agg.CoRunnerStallRate = stats.Mean(coStalls)
	agg.MigratedGB = stats.Mean(migs)
	agg.BestDWP, agg.AppliedDWP = math.NaN(), math.NaN()
	if len(bests) > 0 {
		agg.BestDWP = stats.Median(bests)
		agg.AppliedDWP = stats.Median(applieds)
	}
	return agg, nil
}

// OptimalWorkersStandalone maps each benchmark to the worker count the
// paper's Figure 3c/d deploys it with.
func OptimalWorkersStandalone(machine string) map[string]int {
	if machine == "machine-A" {
		return map[string]int{"SC": 4, "OC": 8, "ON": 8, "SP.B": 1, "FT.C": 8}
	}
	return map[string]int{"SC": 4, "OC": 4, "ON": 4, "SP.B": 1, "FT.C": 4}
}
