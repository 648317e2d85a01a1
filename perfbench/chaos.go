package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"runtime"
	"time"

	"bwap/internal/fleet"
	"bwap/internal/sim"
	"bwap/internal/topology"
	"bwap/internal/workload"
)

// The chaos stream: 1,000 jobs arriving as a Poisson process over 2,500
// simulated seconds on 8 Machine-B boxes. At work scale 0.25 the fleet
// runs near 0.6 utilization — busy enough that the faults hit running
// jobs, far enough below saturation that the simulated queue stays
// bounded. One job in twenty carries a one-off synthetic spec, so tuning
// probes are a visible share of every pass.
const (
	chaosMachines  = 8
	chaosJobs      = 1000
	chaosSpan      = 2500.0
	chaosWorkScale = 0.25
	chaosNovel     = 0.05
	// chaosStep is the simulated length of one traced Advance step.
	chaosStep = 10.0
	// chaosRetries is fleet.Config's default retry budget.
	chaosRetries = 3
	// chaosSetups is how many fleets each pass builds, right after the
	// previous pass, keeping the last: setup_s is the median over every
	// build of the run, each taken in the same state of the process.
	chaosSetups = 3
)

type chaosJob struct {
	spec    workload.Spec
	workers int
	at      float64
}

// chaosStream generates the seeded job stream. Its composition is fixed —
// an equal share of each of the five paper benchmarks × {1, 2} workers,
// and exactly chaosNovel of one-off synthetic specs that perturb a
// benchmark's read demand under a unique name — so seeds differ in order
// and timing, not in how much work a pass holds. Arrivals are a Poisson
// process conditioned on all jobs arriving within chaosSpan.
func chaosStream(seed uint64) []chaosJob {
	r := workload.NewRand(seed)
	benches := workload.Benchmarks()
	jobs := make([]chaosJob, chaosJobs)
	novel := int(chaosNovel * chaosJobs)
	for i := range jobs {
		spec := benches[i%len(benches)]
		if i < novel {
			spec.Name = fmt.Sprintf("%s~%d", spec.Name, i)
			spec.ReadGBs *= 0.8 + 0.4*r.Float64()
		}
		jobs[i] = chaosJob{spec: spec, workers: 1 + (i/len(benches))%2}
	}
	for i := len(jobs) - 1; i > 0; i-- {
		j := int(r.Uint64() % uint64(i+1))
		jobs[i], jobs[j] = jobs[j], jobs[i]
	}
	times, err := workload.ArrivalSpec{Process: workload.Poisson, Rate: 1, Count: chaosJobs}.Times(r.Uint64())
	if err != nil {
		panic(err) // the spec above is valid
	}
	for i := range jobs {
		jobs[i].at = times[i] * chaosSpan / times[len(times)-1]
	}
	return jobs
}

// chaosFaults is a rolling restart of every machine (drain, back after a
// minute) plus three crash waves on half the fleet, jittered by the seed.
func chaosFaults(seed uint64) *fleet.FaultPlan {
	half := make([]int, chaosMachines/2)
	for i := range half {
		half[i] = i
	}
	return &fleet.FaultPlan{Seed: seed, Faults: []fleet.FaultSpec{
		{Kind: fleet.FaultDrain, At: 150, Stagger: 280, RecoverAfter: 60, Jitter: 5},
		{Kind: fleet.FaultCrash, Machines: half, At: 400, Every: 700, Count: 3, RecoverAfter: 40, Jitter: 5},
	}}
}

// logSink counts and hashes the event log as the fleet streams it.
type logSink struct {
	records, bytes int
	h              hash.Hash
}

func newLogSink() *logSink { return &logSink{h: sha256.New()} }

func (s *logSink) Write(p []byte) (int, error) {
	s.records++
	s.bytes += len(p)
	s.h.Write(p)
	return len(p), nil
}

func (s *logSink) digest() string { return hex.EncodeToString(s.h.Sum(nil))[:16] }

// chaosPass is one run of the stream on a fresh fleet.
type chaosPass struct {
	// setups time each fleet.New; wall and cpu span the first Submit to
	// the drained Run. All in seconds.
	setups    []float64
	wall, cpu float64
	f         *fleet.Fleet
	stats     *fleet.Stats
	sink      *logSink
	probes    int
	traced    bool
}

// chaosConfig is the chaos fleet: 8 Machine-B boxes in at most two shards,
// a cold private tuning cache, no observer.
func chaosConfig(seed uint64, plan *fleet.FaultPlan, logW io.Writer) fleet.Config {
	return fleet.Config{
		Machines: chaosMachines,
		Shards:   min(2, runtime.GOMAXPROCS(0)),
		SimCfg:   sim.Config{Seed: seed},
		Seed:     seed,
		Faults:   plan,
		LogW:     logW,
	}
}

// runChaosPass builds a fleet with a cold private cache, submits the
// stream and drains it. A traced pass spans every Submit and drives the
// clock in fixed Advance steps up to the last arrival before Run handles
// the tail, so the step costs are visible; the log must not change.
func runChaosPass(jobs []chaosJob, plan *fleet.FaultPlan, opts options, tr *tracer, id int64) (*chaosPass, error) {
	p := &chaosPass{traced: tr != nil}
	for i := 0; i < chaosSetups; i++ {
		// Each fleet writes its schema record at once, so each gets a sink.
		p.sink = newLogSink()
		var w io.Writer = p.sink
		if opts.wrapLog != nil {
			w = opts.wrapLog(p.sink)
		}
		t0 := time.Now()
		var err error
		if p.f, err = fleet.New(chaosConfig(opts.seed, plan, w)); err != nil {
			return nil, err
		}
		p.setups = append(p.setups, since(t0))
	}
	f := p.f
	if tr != nil {
		f.Cache().SetProbeObserver(func(float64) { p.probes++ })
	}
	root := tr.open("chaos.pass", id, -1)
	t1, c1 := time.Now(), cpuSeconds()
	for _, j := range jobs {
		s := tr.open("fleet.Submit", id, root)
		_, err := f.Submit(j.spec, j.workers, chaosWorkScale, j.at)
		tr.close(s)
		if err != nil {
			return nil, err
		}
	}
	if tr != nil {
		last := jobs[len(jobs)-1].at
		for f.Now() < last {
			s := tr.open("fleet.Advance", id, root)
			err := f.Advance(chaosStep)
			tr.close(s)
			if err != nil {
				return nil, err
			}
		}
	}
	s := tr.open("fleet.Run", id, root)
	var err error
	p.stats, err = f.Run()
	tr.close(s)
	if err != nil {
		return nil, err
	}
	p.wall, p.cpu = since(t1), cpuSeconds()-c1
	tr.close(root)
	return p, nil
}

// checkChaosPass verifies one pass's outputs: job conservation, every job
// terminal (completed, or failed only after its retry budget), the log
// stream complete and — on the first pass — decodable with the schema
// record first.
func checkChaosPass(r *result, p *chaosPass, decode bool) {
	r.check(p.f.Conservation() == nil, "chaos: conservation: %v", p.f.Conservation())
	r.check(p.stats.Jobs == chaosJobs, "chaos: %d jobs submitted, want %d", p.stats.Jobs, chaosJobs)
	bad := 0
	for _, j := range p.f.Jobs() {
		if !(j.State == fleet.JobDone || (j.State == fleet.JobFailed && j.Attempts > chaosRetries)) {
			bad++
		}
	}
	r.check(bad == 0, "chaos: %d jobs neither completed nor failed by their retry budget", bad)
	r.check(p.sink.records == p.stats.LogRecords, "chaos: sink saw %d records, fleet wrote %d", p.sink.records, p.stats.LogRecords)
	if decode {
		recs, err := fleet.DecodeLog(p.f.LogBytes())
		r.check(err == nil && len(recs) == p.stats.LogRecords && len(recs) > 0 && recs[0].Type == "schema",
			"chaos: log decode: %v (%d records)", err, len(recs))
	}
}

func runChaos(opts options) (*result, error) {
	r := newResult()
	jobs := chaosStream(opts.seed)
	plan := chaosFaults(opts.seed)
	var tr *tracer
	if opts.trace {
		tr = newTracer()
		r.tr = tr
	}

	// Untraced runs time passes back to back; a traced run alternates an
	// untraced pass with a traced one, so the two compare like for like.
	// Each pass is checked as it ends and only its figures are kept, so the
	// live heap holds one fleet, not one per pass. Every pass replays the
	// same seeded stream, so every log must match the first, traced or not.
	var passes []*chaosPass
	var setups []float64
	var lastFleet *fleet.Fleet
	before := readRuntime()
	start := time.Now()
	for i := 0; len(passes) < 2 || since(start) < opts.seconds; i++ {
		var ptr *tracer
		if opts.trace && i%2 == 1 {
			ptr = tr
		}
		p, err := runChaosPass(jobs, plan, opts, ptr, int64(i))
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		checkChaosPass(r, p, i < 2)
		if i > 0 {
			r.check(p.sink.digest() == passes[0].sink.digest(), "chaos: pass %d log digest %s, first pass %s",
				i, p.sink.digest(), passes[0].sink.digest())
		}
		lastFleet, p.f = p.f, nil
		passes = append(passes, p)
		setups = append(setups, p.setups...)
	}
	allocMB, gcs := runtimeDelta(before)
	heap := liveHeapMB()
	runtime.KeepAlive(lastFleet)
	digest := passes[0].sink.digest()

	var walls, cpus, tracedWalls []float64
	for _, p := range passes {
		if p.traced {
			tracedWalls = append(tracedWalls, p.wall)
		} else {
			walls = append(walls, p.wall)
			cpus = append(cpus, p.cpu)
		}
	}
	st := passes[0].stats
	simPerSec := st.SimTime / median(walls)
	r.e2e["setup_s"] = median(setups)
	r.e2e["op_ms"] = median(walls) * 1e3
	r.e2e["heap_live_mb"] = heap
	r.layer["go.cpu_ms"] = median(cpus) * 1e3
	r.note("chaos: %d passes (%d traced), pass p25/p50/p75 %.1f/%.1f/%.1f ms, sim_s_per_s %.1f s/s, error_ratio %g",
		len(passes), len(tracedWalls), quantile(walls, 0.25)*1e3, median(walls)*1e3, quantile(walls, 0.75)*1e3,
		simPerSec, float64(r.failed)/float64(max(1, r.attempted)))
	r.note("chaos: simulated %.1f s, utilization %.3f, completed %d, failed %d, evacuations %d, retries %d, turnaround %.2f s, probes %d",
		st.SimTime, st.Utilization, st.Completed, st.FailedJobs, st.Evacuations, st.Retries, st.MeanTurnaround, st.CacheMisses)
	r.note("chaos: setup_s p25/p50/p75 %.4f/%.4f/%.4f ms over %d set-ups", quantile(setups, 0.25)*1e3,
		median(setups)*1e3, quantile(setups, 0.75)*1e3, len(setups))
	r.note("digest chaos.log sha256:%s (%d records, %d bytes)", digest, passes[0].sink.records, passes[0].sink.bytes)
	if !opts.trace {
		return r, nil
	}

	tp := passes[1]
	ts := tp.stats
	advanced := ts.SimTime
	r.layer["fleet.sim_s_per_s"] = simPerSec
	r.layer["fleet.advance_ms_per_sim_s"] = (tr.total("fleet.Advance") + tr.total("fleet.Run")) /
		float64(len(tracedWalls)) / advanced * 1e3
	r.layer["fleet.submit_us"] = mean(tr.seconds("fleet.Submit")) * 1e6
	r.layer["fleet.advance_batches"] = float64(ts.AdvanceBatches)
	r.layer["fleet.window_ticks_mean"] = float64(ts.AdvanceTicks) / float64(max(1, ts.AdvanceBatches))
	r.layer["fleet.log_records"] = float64(tp.sink.records)
	r.layer["fleet.log_bytes"] = float64(tp.sink.bytes)
	simStats(r, ts)
	r.layer["cache.hits"] = float64(ts.CacheHits)
	r.layer["cache.misses"] = float64(ts.CacheMisses)
	r.layer["cache.hit_ratio"] = float64(ts.CacheHits) / float64(max(1, ts.CacheHits+ts.CacheMisses))
	r.layer["cache.probes"] = float64(tp.probes)
	r.layer["sim.tick_solves"] = float64(ts.TickSolves)
	r.layer["sim.tick_replays"] = float64(ts.TickReplays)
	r.layer["sim.replay_fraction"] = float64(ts.TickReplays) / float64(max(1, ts.TickSolves+ts.TickReplays))
	r.layer["go.alloc_mb"] = allocMB / float64(len(passes))
	r.layer["go.gc_cycles"] = gcs / float64(len(passes))
	r.layer["trace.overhead_ratio"] = median(tracedWalls)/median(walls) - 1
	r.note("chaos: traced pass p50 %.1f ms vs untraced %.1f ms", median(tracedWalls)*1e3, median(walls)*1e3)

	mb := topology.MachineB()
	tc := fleet.NewTuningCache(sim.Config{Seed: opts.seed}, 0, opts.seed)
	benches := workload.Benchmarks()
	for pass := 0; pass < 2; pass++ { // cold, then warm
		if err := warmCache(tc, tr, mb, benches, []int{1, 2}); err != nil {
			return nil, err
		}
	}
	recordCacheSpans(r, tr)
	in := layerInputs{machines: []machineCase{{mb, sim.Config{Seed: opts.seed}}}, specs: benches, workers: []int{1, 2}}
	if err := measureSim(r, tr, in); err != nil {
		return nil, err
	}
	if err := measureMemsys(r, tr, in); err != nil {
		return nil, err
	}
	if err := measureMM(r, tr, in); err != nil {
		return nil, err
	}
	r.skip("chaos has no HTTP server", "server.submit_p50_us", "server.submit_p99_us", "server.read_p50_us",
		"server.read_p99_us", "server.metrics_p50_us", "http.overhead_p50_us", "http.submit_p99_ms",
		"http.read_p50_ms", "http.read_p99_ms", "loadgen.achieved_rps", "loadgen.late_p99_ms")
	r.skip("chaos has no wall-clock driver", "fleet.sim_lag_ratio")
	r.skip("chaos tunes through the fleet's cache, not a profile's canonical tuner", "core.canonical_ms")
	r.skip("chaos runs no paper artifact", "experiments.fig1a_s", "experiments.fig1b_s", "experiments.table1_s",
		"experiments.fig2_s", "experiments.fig3_s", "experiments.table2_s", "experiments.fig4_s", "experiments.overhead_s")
	return r, nil
}

// simStats copies the simulated statistics, which a host-only change
// must leave identical.
func simStats(r *result, st *fleet.Stats) {
	r.layer["fleet.jobs_completed"] = float64(st.Completed)
	r.layer["fleet.jobs_failed"] = float64(st.FailedJobs)
	r.layer["fleet.evacuations"] = float64(st.Evacuations)
	r.layer["fleet.retries"] = float64(st.Retries)
	r.layer["fleet.utilization"] = st.Utilization
	r.layer["fleet.turnaround_mean_s"] = st.MeanTurnaround
}
