package main

import (
	"fmt"
	"time"

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

// A traced run reaches sim, memsys, mm and the core tuners only through
// higher layers, so it calls their public functions itself, with inputs
// built from the workload's own machines, benchmarks and worker counts.

// machineCase is one machine a workload runs on, with its engine config.
type machineCase struct {
	m   *topology.Machine
	cfg sim.Config
}

// layerInputs are the machines, benchmark classes and worker counts a
// workload feeds the layers below the one it enters through.
type layerInputs struct {
	machines []machineCase
	specs    []workload.Spec
	workers  []int
}

// cellWorkScale shortens the direct sim cells to a few simulated seconds
// each: enough ticks for a stable per-tick cost, little wall time.
const cellWorkScale = 0.02

// timeCalls runs fn n times under one span and returns seconds per call.
func timeCalls(tr *tracer, name string, id int64, n int, fn func() error) (float64, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	end := time.Now()
	tr.record(name, id, start, end)
	return end.Sub(start).Seconds() / float64(n), nil
}

// measureSim runs one uniform-workers cell per (machine, benchmark, worker
// count) with Engine.Run and reports host time per simulated tick, plus
// the engines' solve/replay split.
func measureSim(r *result, tr *tracer, in layerInputs) error {
	var runSec float64
	var ticks, solves, replays int
	id := int64(0)
	for _, mc := range in.machines {
		for _, spec := range in.specs {
			for _, k := range in.workers {
				ws, err := sched.BestWorkerSet(mc.m, k)
				if err != nil {
					return err
				}
				e := sim.New(mc.m, mc.cfg)
				if _, err := e.AddApp(spec.Name, spec.Scaled(cellWorkScale), ws, policy.UniformWorkers{}); err != nil {
					return err
				}
				id++
				start := time.Now()
				if _, err := e.Run(); err != nil {
					return fmt.Errorf("sim cell %s/%s/%dW: %w", mc.m.Name, spec.Name, k, err)
				}
				end := time.Now()
				tr.record("sim.Engine.Run", id, start, end)
				runSec += end.Sub(start).Seconds()
				ticks += e.Ticks()
				s, rp := e.FastForwardStats()
				solves += s
				replays += rp
			}
		}
	}
	r.check(ticks > 0, "sim cells ran no ticks")
	if ticks > 0 {
		r.layer["sim.run_us_per_tick"] = runSec / float64(ticks) * 1e6
	}
	if _, ok := r.layer["sim.tick_solves"]; !ok {
		r.layer["sim.tick_solves"] = float64(solves)
		r.layer["sim.tick_replays"] = float64(replays)
		r.layer["sim.replay_fraction"] = float64(replays) / float64(max(1, solves+replays))
	}
	return nil
}

// benchFlows builds the memory-system flow set of every benchmark placed
// uniform-workers on its best worker set: each worker node's threads read
// an equal share of the app's pages from every worker node.
func benchFlows(mc machineCase, in layerInputs, k int) ([]memsys.Flow, error) {
	cfg := memsys.DefaultConfig()
	factor := mc.cfg.DemandFactor
	if factor <= 0 {
		factor = 1
	}
	ws, err := sched.BestWorkerSet(mc.m, k)
	if err != nil {
		return nil, err
	}
	var flows []memsys.Flow
	for tag, spec := range in.specs {
		demand := cfg.EquivalentDemand(spec.ReadGBs, spec.WriteGBs) * factor / float64(len(ws))
		for _, dst := range ws {
			streams := mc.m.Node(dst).Cores
			for _, src := range ws {
				flows = append(flows, memsys.Flow{Src: src, Dst: dst, Demand: demand, Streams: streams, Tag: tag})
				streams = -1 // the dst threads are counted once per app
			}
		}
	}
	return flows, nil
}

// measureMemsys times Solver.Solve on the benchmarks' flow sets.
func measureMemsys(r *result, tr *tracer, in layerInputs) error {
	var per []float64
	for i, mc := range in.machines {
		for _, k := range in.workers {
			flows, err := benchFlows(mc, in, k)
			if err != nil {
				return err
			}
			sv := memsys.New(mc.m, memsys.DefaultConfig()).NewSolver()
			d, err := timeCalls(tr, "memsys.Solver.Solve", int64(i), 2000, func() error {
				if res := sv.Solve(flows); res == nil {
					return fmt.Errorf("nil result")
				}
				return nil
			})
			if err != nil {
				return err
			}
			per = append(per, d)
		}
	}
	r.layer["memsys.solve_us"] = mean(per) * 1e6
	return nil
}

// measureMM times the kernel-level weighted mbind, the page-fraction
// readout and Algorithm 1 on the benchmarks' shared segments, weighted by
// the canonical distribution of each worker set.
func measureMM(r *result, tr *tracer, in layerInputs) error {
	var mbind, frac, alg1 []float64
	for i, mc := range in.machines {
		ct := core.NewCanonicalTuner(mc.m, mc.cfg)
		for _, k := range in.workers {
			ws, err := sched.BestWorkerSet(mc.m, k)
			if err != nil {
				return err
			}
			weights, err := ct.Weights(ws)
			if err != nil {
				return err
			}
			for _, spec := range in.specs {
				size := uint64(spec.SharedGB * float64(1<<30))
				fresh := func() *mm.Segment {
					seg := mm.NewAddressSpace(mc.m.NumNodes()).AddSegment("shared", size, mm.SharedOwner)
					seg.FaultAll(ws[0])
					return seg
				}
				const n = 10
				segs := make([]*mm.Segment, n)
				for j := range segs {
					segs[j] = fresh()
				}
				j := 0
				d, err := timeCalls(tr, "mm.Segment.MbindWeighted", int64(i), n, func() error {
					j++
					return segs[j-1].MbindWeighted(weights, mm.MoveFlag)
				})
				if err != nil {
					return err
				}
				mbind = append(mbind, d)
				d, err = timeCalls(tr, "mm.Segment.Fractions", int64(i), n, func() error {
					if f := segs[0].Fractions(); len(f) != mc.m.NumNodes() {
						return fmt.Errorf("%d fractions", len(f))
					}
					return nil
				})
				if err != nil {
					return err
				}
				frac = append(frac, d)
				for j := range segs {
					segs[j] = fresh()
				}
				j = 0
				d, err = timeCalls(tr, "core.UserLevelWeightedInterleave", int64(i), n, func() error {
					j++
					return core.UserLevelWeightedInterleave(segs[j-1], weights, mm.MoveFlag)
				})
				if err != nil {
					return err
				}
				alg1 = append(alg1, d)
			}
		}
	}
	r.layer["mm.mbind_weighted_us"] = mean(mbind) * 1e6
	r.layer["mm.fractions_us"] = mean(frac) * 1e6
	r.layer["core.interleave_us"] = mean(alg1) * 1e6
	return nil
}

// canonicalSetup builds a canonical tuner per machine and profiles the
// worker sets of the given sizes — the installation-time step — and
// returns the wall time it took.
func canonicalSetup(tr *tracer, machines []machineCase, sizes []int) (float64, error) {
	start := time.Now()
	for _, mc := range machines {
		ct := core.NewCanonicalTuner(mc.m, mc.cfg)
		for _, k := range sizes {
			ws, err := sched.BestWorkerSet(mc.m, k)
			if err != nil {
				return 0, err
			}
			if _, err := ct.Weights(ws); err != nil {
				return 0, err
			}
		}
	}
	end := time.Now()
	tr.record("core.canonical", 0, start, end)
	return end.Sub(start).Seconds(), nil
}

// maxCoRunners bounds the co-runners a 1–2 node job can meet on a 4-node
// Machine B, so warming every count up to it leaves repeat classes no miss.
const maxCoRunners = 3

// warmCache demands the tuned DWP of every (benchmark, worker count,
// co-runner count) on the machine. Cold keys probe inline; the span name
// records whether the call hit.
func warmCache(tc *fleet.TuningCache, tr *tracer, m *topology.Machine, specs []workload.Spec, workers []int) error {
	id := int64(0)
	for _, spec := range specs {
		for _, k := range workers {
			for c := 0; c <= maxCoRunners; c++ {
				id++
				start := time.Now()
				_, hit, err := tc.DWP(m, spec, k, c)
				end := time.Now()
				if err != nil {
					return fmt.Errorf("cache.DWP %s/%dW/%dc: %w", spec.Name, k, c, err)
				}
				name := "cache.DWP.hit"
				if !hit {
					name = "cache.DWP.miss"
				}
				tr.record(name, id, start, end)
			}
		}
	}
	return nil
}

// recordCacheSpans turns warmCache's spans into the cache metrics.
func recordCacheSpans(r *result, tr *tracer) {
	r.layer["cache.dwp_hit_us"] = median(tr.seconds("cache.DWP.hit")) * 1e6
	r.layer["cache.dwp_miss_ms"] = median(tr.seconds("cache.DWP.miss")) * 1e3
}
