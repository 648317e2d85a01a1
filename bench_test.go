// Benchmarks: one testing.B target per table and figure of the paper's
// evaluation, running reduced-budget (Quick) versions of the experiment
// harnesses so a full `go test -bench=.` completes in minutes. The
// full-fidelity artifacts are produced by cmd/bwap-experiments.
package bwap_test

import (
	"fmt"
	"testing"

	"bwap"
	"bwap/internal/core"
	"bwap/internal/experiments"
	"bwap/internal/mm"
	"bwap/internal/sim"
	"bwap/internal/topology"
	"bwap/internal/workload"
)

func BenchmarkFig1aBandwidthMatrix(b *testing.B) {
	p := experiments.MachineA()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := experiments.RunFig1a(p)
		if len(f.Matrix) != 8 {
			b.Fatal("bad matrix")
		}
	}
}

func BenchmarkFig1bOfflineSearch(b *testing.B) {
	p := experiments.MachineA().Quick()
	p.SearchBudget = 24
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig1b(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Characterization(b *testing.B) {
	p := experiments.MachineB().Quick()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable1(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2CoScheduledMachineA(b *testing.B) {
	p := experiments.MachineA().Quick()
	p.Seeds = 1
	for i := 0; i < b.N; i++ {
		for _, nw := range []int{1, 2, 4} {
			if _, err := experiments.RunCoScheduled(p, nw, "fig2"); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig3abCoScheduledMachineB(b *testing.B) {
	p := experiments.MachineB().Quick()
	p.Seeds = 1
	for i := 0; i < b.N; i++ {
		for _, nw := range []int{1, 2} {
			if _, err := experiments.RunCoScheduled(p, nw, "fig3"); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig3cdStandalone(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range []*experiments.Profile{experiments.MachineA().Quick(), experiments.MachineB().Quick()} {
			p.Seeds = 1
			if _, err := experiments.RunStandalone(p, "fig3cd"); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTable2DWPSearch(b *testing.B) {
	p := experiments.MachineB().Quick()
	p.Seeds = 1
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable2(p, []int{1, 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4DWPSweep(b *testing.B) {
	p := experiments.MachineA().Quick()
	p.Seeds = 1
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig4(p, []int{1, 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOverheadAnalysis(b *testing.B) {
	p := experiments.MachineA().Quick()
	p.Seeds = 1
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunOverhead(p, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationKernelVsUser(b *testing.B) {
	p := experiments.MachineA().Quick()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunKernelVsUserAblation(p, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benches for the design choices DESIGN.md calls out.

// BenchmarkAblationCanonicalTuner measures bwap vs bwap-uniform (the
// canonical tuner's contribution) on the strongly asymmetric machine.
func BenchmarkAblationCanonicalTuner(b *testing.B) {
	p := experiments.MachineA().Quick()
	p.Seeds = 1
	ws, err := p.Workers(2)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := workload.ByName("FT.C")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, pol := range []string{"bwap-uniform", "bwap"} {
			if _, err := p.Run(spec, ws, pol, true); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationHybridMemory exercises the Section VI hybrid-memory
// future-work scenario: canonical weighting vs uniform-all on DRAM+NVRAM.
func BenchmarkAblationHybridMemory(b *testing.B) {
	m := topology.HybridDRAMNVRAM(2, 2, 8, 24, 6)
	cfg := sim.Config{Seed: 31}
	ct := core.NewCanonicalTuner(m, cfg)
	spec := workload.Synthetic("stream", 60, 0, 0, 0.1)
	spec.WorkGB = 150
	workers := []topology.NodeID{0, 1}
	for i := 0; i < b.N; i++ {
		for _, placer := range []sim.Placer{
			core.StaticDWP{Uniform: true, DWP: 0, UserLevel: true},
			core.StaticDWP{Canonical: ct, DWP: 0, UserLevel: true},
		} {
			e := sim.New(m, cfg)
			if _, err := e.AddApp("stream", spec, workers, placer); err != nil {
				b.Fatal(err)
			}
			if _, err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEngineTickThroughput measures raw simulator speed: simulated
// seconds per wall second for a fully loaded co-scheduled Machine A.
func BenchmarkEngineTickThroughput(b *testing.B) {
	m := topology.MachineA()
	spec := workload.OceanCP
	spec.WorkGB = 1e9 // never finishes; we bound by MaxTime
	for i := 0; i < b.N; i++ {
		e := sim.New(m, sim.Config{MaxTime: 10, DemandFactor: 1.3})
		if _, err := e.AddApp("oc", spec, []topology.NodeID{0, 1, 2, 3}, policyUniformAll{}); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

type policyUniformAll struct{}

func (policyUniformAll) Name() string { return "uniform-all" }
func (policyUniformAll) Place(e *sim.Engine, a *sim.App) error {
	all := make([]topology.NodeID, e.M.NumNodes())
	for i := range all {
		all[i] = topology.NodeID(i)
	}
	for _, seg := range a.Segments() {
		if err := seg.Mbind(0, seg.Length(), all, mm.MoveFlag); err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkEngineQuiescentAdvance measures the quiescent-interval
// fast-forward on a long quiescent single-app run: 3000 ticks advanced by
// AdvanceTo with the memoized replay path ("on") vs. the naive
// solve-every-tick reference ("off"). The two are byte-identical in results (pinned by
// TestFastForwardEquivalence); the acceptance criterion is on ≥ 5× faster.
func BenchmarkEngineQuiescentAdvance(b *testing.B) {
	m := topology.MachineA()
	spec := workload.OceanCP
	spec.WorkGB = 1e9 // quiescent throughout: nothing ever completes
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"on", false}, {"off", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := sim.New(m, sim.Config{MaxTime: 1e9, DemandFactor: 1.3, DisableFastForward: mode.disable})
				app, err := e.AddApp("oc", spec, []topology.NodeID{0, 1, 2, 3}, policyUniformAll{})
				if err != nil {
					b.Fatal(err)
				}
				if err := e.PlaceApp(app); err != nil {
					b.Fatal(err)
				}
				e.AdvanceTo(300)
				if e.Ticks() != 3000 {
					b.Fatalf("advanced %d ticks, want 3000", e.Ticks())
				}
			}
			b.ReportMetric(300*float64(b.N)/b.Elapsed().Seconds(), "sim-s/s")
		})
	}
}

// BenchmarkDynamicReTuning measures the Section VI extension experiment.
func BenchmarkDynamicReTuning(b *testing.B) {
	p := experiments.MachineB().Quick()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunDynamicExtension(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetThroughput measures the fleet scheduler's job-stream rate:
// jobs scheduled (admitted, run, completed and retuned) per wall second on
// a warm tuning cache. The stream repeats one workload class, so after the
// first iteration every admission is a cache hit — the steady state of a
// long-running bwapd.
func BenchmarkFleetThroughput(b *testing.B) {
	cache := bwap.NewTuningCache(bwap.Config{Seed: 1}, 0, 1)
	const jobs = 12
	stream := []bwap.StreamSpec{{
		Workload: bwap.Streamcluster(),
		Arrival:  bwap.ArrivalSpec{Process: "poisson", Rate: 0.4, Count: jobs},
		Workers:  2, WorkScale: 0.02,
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := bwap.NewFleet(bwap.FleetConfig{
			Machines: 2,
			SimCfg:   bwap.Config{Seed: 1},
			Seed:     1,
			Cache:    cache,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := f.SubmitStream(stream); err != nil {
			b.Fatal(err)
		}
		stats, err := f.Run()
		if err != nil {
			b.Fatal(err)
		}
		if stats.Completed != jobs {
			b.Fatalf("completed %d/%d", stats.Completed, jobs)
		}
	}
	b.ReportMetric(float64(jobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkFleetThroughputSharded measures the scheduler's multi-core
// scaling axis: the identical warm-cache job stream over 8 machines at
// tick-pool widths 1, 2 and 4 (Config.Shards; the name predates the
// pool). Every placement — and the event log — is bit-identical across
// widths, so the sub-benchmarks do the same simulated work; jobs/s
// differences are pure tick-advance parallelism. (On a single-core runner
// the widths tie modulo barrier overhead; the /4-beats-/1 gate assumes ≥4
// cores and is enforced by the CI multicore job via
// TestShardScalingMultiCoreGate.)
func BenchmarkFleetThroughputSharded(b *testing.B) {
	cache := bwap.NewTuningCache(bwap.Config{Seed: 1}, 0, 1)
	const jobs = 24
	stream := []bwap.StreamSpec{{
		Workload: bwap.Streamcluster(),
		Arrival:  bwap.ArrivalSpec{Process: "poisson", Rate: 2.0, Count: jobs},
		Workers:  2, WorkScale: 0.02,
	}}
	// Warm the shared cache before any timed iteration: otherwise the
	// first sub-benchmark pays every profiling probe inside its timed loop
	// and the cross-width speedup ratios are skewed.
	warm, err := bwap.NewFleet(bwap.FleetConfig{
		Machines: 8, SimCfg: bwap.Config{Seed: 1}, Seed: 1, Cache: cache,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := warm.SubmitStream(stream); err != nil {
		b.Fatal(err)
	}
	if _, err := warm.Run(); err != nil {
		b.Fatal(err)
	}
	for _, width := range []int{1, 2, 4} {
		b.Run(fmt.Sprint(width), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, err := bwap.NewFleet(bwap.FleetConfig{
					Machines: 8,
					Shards:   width,
					SimCfg:   bwap.Config{Seed: 1},
					Seed:     1,
					Cache:    cache,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := f.SubmitStream(stream); err != nil {
					b.Fatal(err)
				}
				stats, err := f.Run()
				if err != nil {
					b.Fatal(err)
				}
				if stats.Completed != jobs {
					b.Fatalf("completed %d/%d", stats.Completed, jobs)
				}
			}
			b.ReportMetric(float64(jobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// probeBurstStreams builds n single-job streams whose workload specs all
// hash to distinct signatures, so a cold tuning cache owes one probe
// mini-sim per stream — the worst-case admission burst a fresh bwapd
// faces. Shared by BenchmarkColdCacheProbeBurst and the CI multicore
// probe gate in scaling_test.go.
func probeBurstStreams(n int) []bwap.StreamSpec {
	streams := make([]bwap.StreamSpec, n)
	for i := range streams {
		spec := bwap.Streamcluster()
		spec.ReadGBs += 0.25 * float64(i) // distinct signature => distinct probe key
		streams[i] = bwap.StreamSpec{
			Workload: spec,
			Arrival:  bwap.ArrivalSpec{Process: "poisson", Rate: 4.0, Count: 1},
			Workers:  2, WorkScale: 0.02,
		}
	}
	return streams
}

// BenchmarkColdCacheProbeBurst measures the speculative probe pool on its
// target scenario: a cold cache hit by a burst of distinct workload
// classes, where every admission owes a probe mini-sim. Each iteration
// builds a fresh fleet with a fresh cache, so nothing is ever warm; the
// sub-benchmarks differ only in pool width. On a multi-core
// runner probe-workers=4 overlaps up to four probes with the scheduler
// and beats probe-workers=1 (enforced by TestProbeBurstMultiCoreGate in
// CI); the event logs are byte-identical either way.
func BenchmarkColdCacheProbeBurst(b *testing.B) {
	const sigs = 12
	streams := probeBurstStreams(sigs)
	for _, pw := range []int{1, 4} {
		b.Run(fmt.Sprintf("probe-workers=%d", pw), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, err := bwap.NewFleet(bwap.FleetConfig{
					Machines: 8,
					Shards:   2,
					SimCfg:   bwap.Config{Seed: 1},
					Seed:     1,
					Cache:    bwap.NewTuningCache(bwap.Config{Seed: 1}, 0, 1, bwap.ProbeWorkers(pw)),
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := f.SubmitStream(streams); err != nil {
					b.Fatal(err)
				}
				stats, err := f.Run()
				if err != nil {
					b.Fatal(err)
				}
				if stats.Completed != sigs {
					b.Fatalf("completed %d/%d", stats.Completed, sigs)
				}
				if stats.CacheMisses == 0 {
					b.Fatal("cold run recorded no probe misses; the burst is vacuous")
				}
			}
			b.ReportMetric(float64(sigs*b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkFleetTelemetryOverhead prices the observer on the fleet's
// event path: the identical warm-cache stream with telemetry off and on
// (counters, histograms and timeline; spans stay off, as they would on a
// hot path). The off/on delta is the telemetry-overhead headline in
// BENCH_5.json — the observer consumes records the scheduler emits
// anyway, so the two sub-benchmarks should be within noise of each other.
func BenchmarkFleetTelemetryOverhead(b *testing.B) {
	cache := bwap.NewTuningCache(bwap.Config{Seed: 1}, 0, 1)
	const jobs = 12
	stream := []bwap.StreamSpec{{
		Workload: bwap.Streamcluster(),
		Arrival:  bwap.ArrivalSpec{Process: "poisson", Rate: 0.4, Count: jobs},
		Workers:  2, WorkScale: 0.02,
	}}
	warm, err := bwap.NewFleet(bwap.FleetConfig{
		Machines: 2, SimCfg: bwap.Config{Seed: 1}, Seed: 1, Cache: cache,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := warm.SubmitStream(stream); err != nil {
		b.Fatal(err)
	}
	if _, err := warm.Run(); err != nil {
		b.Fatal(err)
	}
	for _, telemetry := range []bool{false, true} {
		name := "off"
		if telemetry {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := bwap.FleetConfig{
					Machines: 2,
					SimCfg:   bwap.Config{Seed: 1},
					Seed:     1,
					Cache:    cache,
				}
				if telemetry {
					cfg.Obs = bwap.NewFleetObserver(bwap.FleetObserverConfig{})
				}
				f, err := bwap.NewFleet(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := f.SubmitStream(stream); err != nil {
					b.Fatal(err)
				}
				stats, err := f.Run()
				if err != nil {
					b.Fatal(err)
				}
				if stats.Completed != jobs {
					b.Fatalf("completed %d/%d", stats.Completed, jobs)
				}
			}
			b.ReportMetric(float64(jobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}
