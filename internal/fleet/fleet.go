// Package fleet is the service layer above the single-run BWAP engine: a
// deterministic discrete-event scheduler that drives a *stream* of jobs —
// workload specs with arrival processes and durations — across a fleet of
// simulated NUMA machines.
//
// The fleet's machines are partitioned into shards. Every machine is one
// sim.Engine advanced in lockstep with the others (identical tick length),
// so co-located jobs contend exactly as they do in the single-run
// experiments; a bounded worker pool advances the machines concurrently,
// which is the daemon's multi-core scaling axis. Jobs never cross shards
// once placed, and the event log is bit-identical for a given seed
// regardless of the shard and worker counts.
//
// The scheduler pops events off one fleet event heap in (timestamp, event
// kind, push sequence) order; between events it advances every machine in
// windows no longer than the next scheduled event and every machine's
// completion horizon allow, with one barrier per window, stopping after
// the window in which any job completes so the completion becomes an event
// of its own. A routing tier assigns each admission attempt to a shard
// (Config.Routing: least-loaded, hash-affinity, round-robin) and an
// AdmissionPolicy picks the node set on the chosen machine
// (Config.Admission: most-free, best-bandwidth, anti-affinity); jobs that
// do not fit wait in an arrival-ordered queue and are backfilled as
// capacity frees up. Under the bwap policy, placement consults the
// TuningCache — repeated jobs skip re-profiling — and churn (an arrival or
// departure on a machine) schedules a coalesced retune event that
// re-places the survivors for their new co-runner count.
//
// Every decision is appended to a JSONL event log; the same
// configuration, seed and job stream reproduce the log bit for bit.
package fleet

import (
	"container/heap"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"

	"bwap/internal/core"
	"bwap/internal/policy"
	"bwap/internal/sim"
	"bwap/internal/topology"
	"bwap/internal/workload"
)

// ErrQueueFull is returned (wrapped) by Submit when Config.MaxQueue
// backpressure rejects a job; the HTTP layer maps it to 429 so clients
// can tell a transient overload from an invalid request.
var ErrQueueFull = errors.New("fleet: admission queue full")

// ErrBadSpec is returned (wrapped) by Submit for a job too large to run:
// its scaled work volume, shared segment or per-node private segment is
// more than maxSpecScale times the largest built-in benchmark's, its
// expected run time more than maxRunScale times, or it is compute-bound
// and never finishes at all. One such job would hold a machine for as
// long as its work lasts while the jobs behind it queue; the HTTP layer
// answers 400.
var ErrBadSpec = errors.New("fleet: job exceeds the size bound")

// maxSpecScale is how many times the largest built-in benchmark's work
// volume and footprint a submitted job may have.
const maxSpecScale = 10

// maxRunScale is how many times the longest built-in benchmark's expected
// run time — work over read+write demand, FT.C's 194 s — a submitted job
// may take. It is twice maxSpecScale, so for a job that demands as much
// bandwidth as any built-in benchmark the volume bound binds first: at
// that bound and Streamcluster's demand, the lowest, a job runs 16.3
// times FT.C's time.
const maxRunScale = 2 * maxSpecScale

// Placement policy names accepted by Config.Policy.
const (
	PolicyBWAP           = "bwap"
	PolicyFirstTouch     = "first-touch"
	PolicyUniformAll     = "uniform-all"
	PolicyUniformWorkers = "uniform-workers"
)

// Config parameterizes a fleet. The zero value is completed by defaults.
type Config struct {
	// Machines is the fleet size (default 2).
	Machines int
	// Shards partitions the machines into independently advanced shards
	// (default 1; machine i belongs to shard i mod Shards). Must not
	// exceed Machines.
	Shards int
	// Workers bounds the goroutines advancing machines between events
	// (default min(Shards, GOMAXPROCS); clamped to Shards). Each window
	// runs on min(Workers, GOMAXPROCS) goroutines, the scheduler's own
	// included. The event log is bit-identical for any worker count.
	Workers int
	// Routing selects the job→shard tier (default RouteLeastLoaded).
	Routing string
	// Admission selects the node-selection policy on the admitting
	// machine (default AdmitMostFree).
	Admission string
	// NewMachine builds machine i's topology (default: the paper's
	// Machine B for every i). Machines sharing a topology structure share
	// canonical profiling and tuning-cache entries via the fingerprint.
	NewMachine func(i int) *topology.Machine
	// SimCfg configures every machine's engine. All machines tick with the
	// same DT; per-machine noise streams are decorrelated by deriving each
	// engine's seed from Seed and the machine index. New always turns on
	// SnapLatFeedback (see DESIGN.md §12).
	SimCfg sim.Config
	// Policy selects the placement policy for admitted jobs (default
	// PolicyBWAP).
	Policy string
	// RetuneDelay is how long after churn the coalesced retune fires, in
	// simulated seconds (default 0.5). Zero keeps the default; negative
	// disables retuning.
	RetuneDelay float64
	// MaxSimTime aborts a drain that never completes (default 1e6 s).
	MaxSimTime float64
	// MaxQueue bounds the arrived-but-unadmitted queue: Submit refuses
	// further jobs while that many are already waiting for capacity,
	// giving a daemon backpressure instead of an unbounded backlog
	// (0 = unbounded). Not-yet-due stream arrivals don't count, so
	// pre-submitted streams (SubmitStream, replay) are unaffected unless
	// the backlog genuinely builds.
	MaxQueue int
	// Faults optionally injects a deterministic machine-lifecycle schedule
	// (crashes, drains, recoveries, fleet growth); see FaultPlan. The plan
	// is materialized and validated at New.
	Faults *FaultPlan
	// MaxRetries is the per-job retry budget for crash-killed jobs: a job
	// killed more than MaxRetries times fails terminally (default 3;
	// negative means no retries).
	MaxRetries int
	// RetryBackoff is the base crash-retry delay in simulated seconds; the
	// k-th retry waits RetryBackoff·2^(k−1), capped at RetryBackoffCap
	// (defaults 2 and 60).
	RetryBackoff    float64
	RetryBackoffCap float64
	// Seed derives the arrival streams, engine seeds and probe seeds.
	Seed uint64
	// LogRetention bounds the in-memory mirror of the event log: 0 (the
	// default) retains every record, n > 0 retains only the most recent n
	// records, and n < 0 disables the mirror entirely. The streaming LogW
	// writer always receives every record, so long runs keep a complete
	// on-disk log while holding bounded memory. LogBytes (and everything
	// built on it: replay round-trips, log-equality tests) needs the full
	// mirror — with retention the tail it returns lacks the leading schema
	// record once trimming starts.
	LogRetention int
	// Cache optionally shares a TuningCache across fleets (and with a
	// daemon); nil builds a private one from SimCfg and Seed with the
	// default probe scale and pool. Probe tuning (NewTuningCache's
	// probeScale, the ProbeWorkers option) is configured on the cache.
	Cache *TuningCache
	// LogW optionally mirrors every event-log line as it is written.
	LogW io.Writer
	// Obs optionally attaches a telemetry observer (see NewObserver). The
	// observer is a pure consumer of the record stream plus exposition-time
	// gauge sync — it never touches the log, the RNG or the tick path, so
	// enabling it cannot change the event log by a byte. An observer must
	// not be shared between fleets.
	Obs *Observer
}

func (c Config) withDefaults() Config {
	if c.Machines <= 0 {
		c.Machines = 2
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Routing == "" {
		c.Routing = RouteLeastLoaded
	}
	if c.Admission == "" {
		c.Admission = AdmitMostFree
	}
	if c.NewMachine == nil {
		// One immutable topology serves every default machine: a Machine is
		// a static description, engines only read it, and sharing pays the
		// builder and the memoized fingerprint once per fleet instead of
		// once per machine. A NewMachine hook keeps whatever per-index
		// behaviour the caller wants.
		shared := topology.MachineB()
		c.NewMachine = func(int) *topology.Machine { return shared }
	}
	if c.Policy == "" {
		c.Policy = PolicyBWAP
	}
	if c.RetuneDelay == 0 {
		c.RetuneDelay = 0.5
	}
	if c.MaxSimTime <= 0 {
		c.MaxSimTime = 1e6
	}
	switch {
	case c.MaxRetries == 0:
		c.MaxRetries = 3
	case c.MaxRetries < 0:
		c.MaxRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 2
	}
	if c.RetryBackoffCap <= 0 {
		c.RetryBackoffCap = 60
	}
	return c
}

// JobState is a job's lifecycle position.
type JobState int

const (
	// JobPending means the arrival event is scheduled but has not fired.
	JobPending JobState = iota
	// JobQueued means the job arrived but no machine had capacity.
	JobQueued
	// JobRunning means the job is placed and executing.
	JobRunning
	// JobDone means the job completed.
	JobDone
	// JobRetryWait means a crash killed the job and its retry backoff is
	// ticking.
	JobRetryWait
	// JobFailed means the job exhausted its retry budget — terminal.
	JobFailed
)

func (s JobState) String() string {
	switch s {
	case JobPending:
		return "pending"
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobRetryWait:
		return "retry-wait"
	case JobFailed:
		return "failed"
	}
	return "unknown"
}

// Job is one unit of the stream: a workload spec, a worker-node demand and
// a work volume, admitted onto some machine at some time.
type Job struct {
	// ID is the 1-based admission-stream identifier.
	ID int
	// Spec is the unscaled workload; the tuning cache keys on its
	// Signature.
	Spec workload.Spec
	// Workers is the number of NUMA nodes the job asks for.
	Workers int
	// WorkScale scales Spec.WorkGB for this instance (1 = full volume).
	WorkScale float64
	// Arrival is the submission time in simulated seconds.
	Arrival float64

	// State, Machine, Nodes, Admit and Finish are maintained by the
	// scheduler. Machine is -1 until admission.
	State   JobState
	Machine int
	Nodes   []topology.NodeID
	Admit   float64
	Finish  float64
	// CacheHit reports whether admission placement came from the tuning
	// cache (bwap policy only).
	CacheHit bool
	// Attempts counts crash-kills of this job; past Config.MaxRetries the
	// job fails terminally.
	Attempts int

	app     *sim.App
	seen    bool   // completion already turned into an event
	sigHash uint64 // FNV-64a of Spec.Signature(), computed once at Submit
	// remFrac is the fraction of the job's scaled work volume still to
	// run: 1 until a drain snapshots progress, then scaled down so the
	// re-placed remainder is only what is left. Placement multiplies it
	// into WorkScale; keeping it an exact 1.0 for never-evacuated jobs
	// makes fault-free logs bit-identical to the pre-lifecycle scheduler.
	remFrac float64
}

// machine is one fleet member: a topology, its engine, allocation state,
// its home shard and its lifecycle state. A machine that is not up keeps
// ticking its (empty) engine so the fleet-wide lockstep clock survives the
// outage; it is merely invisible to bestFit until it recovers.
type machine struct {
	id            int
	shard         int
	topo          *topology.Machine
	eng           *sim.Engine
	free          []bool
	freeCount     int
	active        []*Job // admission order
	retunePending bool
	state         machineState
}

// freeNodes lists the machine's free nodes in ascending order.
func (m *machine) freeNodes() []topology.NodeID {
	nodes := make([]topology.NodeID, 0, m.freeCount)
	for i := range m.free {
		if m.free[i] {
			nodes = append(nodes, topology.NodeID(i))
		}
	}
	return nodes
}

// claim marks the given nodes used, validating the admission policy's
// choice (every node free, no duplicates). On error nothing is claimed.
func (m *machine) claim(nodes []topology.NodeID) error {
	for i, n := range nodes {
		if int(n) < 0 || int(n) >= len(m.free) || !m.free[n] {
			for _, p := range nodes[:i] { // unwind the prefix
				m.free[p] = true
				m.freeCount++
			}
			return fmt.Errorf("fleet: admission policy picked unavailable node %d on machine %d", n, m.id)
		}
		m.free[n] = false
		m.freeCount--
	}
	return nil
}

func (m *machine) release(nodes []topology.NodeID) {
	for _, n := range nodes {
		if !m.free[n] {
			m.free[n] = true
			m.freeCount++
		}
	}
}

// Fleet schedules a job stream over a sharded set of simulated machines.
// It is not safe for concurrent use; the HTTP server serializes access.
// (The worker pool inside Advance/Run is an implementation detail — it
// synchronizes on one barrier per advance window and never outlives the
// call.)
type Fleet struct {
	cfg       Config
	dt        float64
	machines  []*machine // by global id
	shards    []*shard
	workers   int
	router    Routing
	admission AdmissionPolicy
	cache     *TuningCache

	jobs    []*Job // by ID-1
	queue   []*Job // arrived, waiting for capacity; (Arrival, ID) order
	running int

	// compScratch backs collectComps' completion slice. The returned
	// slice is consumed by the run loop before the next advance step, and
	// collectComps runs only on the scheduler goroutine, so one buffer per
	// fleet is safe.
	compScratch []*Job

	// Lifecycle counters, maintained by the event handlers (scheduler
	// goroutine only; the server mutex covers concurrent readers).
	evacuations int
	retries     int
	failedJobs  int

	events   eventHeap // every scheduled event, (t, kind, seq) order
	eventSeq int
	now      float64
	pool     *tickPool // live only inside a run() invocation
	// batches/batchTicksSum count advance windows and the ticks they
	// covered — the denominator and numerator of the mean window the
	// horizon allows, the perf signal the engine suite gates on.
	batches       int64
	batchTicksSum int64

	log        eventLog
	totalNodes int
	obs        *Observer
}

// New builds a fleet.
func New(cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	switch cfg.Policy {
	case PolicyBWAP, PolicyFirstTouch, PolicyUniformAll, PolicyUniformWorkers:
	default:
		return nil, fmt.Errorf("fleet: unknown policy %q", cfg.Policy)
	}
	if cfg.Shards > cfg.Machines {
		return nil, fmt.Errorf("fleet: %d shards for %d machines", cfg.Shards, cfg.Machines)
	}
	// Every machine — including ones a machine-add fault grows later,
	// which inherit cfg.SimCfg — snaps the latency feedback to its fixed
	// point, so replayable stretches start dozens of ticks sooner after
	// each perturbation.
	cfg.SimCfg.SnapLatFeedback = true
	router, err := NewRouting(cfg.Routing)
	if err != nil {
		return nil, err
	}
	admission, err := NewAdmissionPolicy(cfg.Admission)
	if err != nil {
		return nil, err
	}
	dt := cfg.SimCfg.DT
	if dt <= 0 {
		dt = 0.1
	}
	f := &Fleet{cfg: cfg, dt: dt, router: router, admission: admission, cache: cfg.Cache}
	if f.cache == nil {
		f.cache = NewTuningCache(cfg.SimCfg, 0, cfg.Seed)
	}
	f.log.retain = cfg.LogRetention
	f.workers = cfg.Workers
	if f.workers <= 0 {
		f.workers = min(cfg.Shards, runtime.GOMAXPROCS(0))
	}
	if f.workers > cfg.Shards {
		f.workers = cfg.Shards
	}
	f.log.w = cfg.LogW
	f.obs = cfg.Obs
	if f.obs != nil {
		// A shared cache reports probes from the last fleet to attach; with
		// per-fleet caches (the default) attribution is exact.
		f.cache.SetProbeObserver(f.obs.observeProbe)
	}
	for s := 0; s < cfg.Shards; s++ {
		f.shards = append(f.shards, &shard{id: s})
	}
	for i := 0; i < cfg.Machines; i++ {
		topo := cfg.NewMachine(i)
		if topo == nil {
			return nil, fmt.Errorf("fleet: NewMachine(%d) returned nil", i)
		}
		if err := topo.Validate(); err != nil {
			return nil, fmt.Errorf("fleet: machine %d: %w", i, err)
		}
		simCfg := cfg.SimCfg
		// The fleet's event loop bounds time, not the per-engine MaxTime.
		simCfg.MaxTime = math.Inf(1)
		simCfg.Seed = cfg.Seed + uint64(i)*0x9e3779b97f4a7c15
		m := &machine{
			id:        i,
			shard:     i % cfg.Shards,
			topo:      topo,
			eng:       sim.New(topo, simCfg),
			free:      make([]bool, topo.NumNodes()),
			freeCount: topo.NumNodes(),
		}
		for j := range m.free {
			m.free[j] = true
		}
		f.machines = append(f.machines, m)
		sh := f.shards[m.shard]
		sh.machines = append(sh.machines, m)
		sh.nodes += topo.NumNodes()
		f.totalNodes += topo.NumNodes()
	}
	// The schema record is always line 0, so any consumer can version-gate
	// before touching the rest of the log.
	f.logAppend(-1, Record{T: 0, Type: "schema", Machine: -1, Version: LogSchemaVersion})
	if cfg.Faults != nil {
		evs, err := cfg.Faults.materialize(cfg.Machines, cfg.Seed)
		if err != nil {
			return nil, err
		}
		// Pushed in sorted order before any Submit, so the fault events'
		// sequence numbers are a pure function of the plan — a replay with
		// the same plan regenerates them exactly.
		for _, fe := range evs {
			f.push(fe.t, fe.kind, nil, fe.mach)
		}
	}
	return f, nil
}

// Now returns the fleet's simulated time.
func (f *Fleet) Now() float64 { return f.now }

// Jobs returns every submitted job, by ID order.
func (f *Fleet) Jobs() []*Job { return f.jobs }

// Job returns the job with the given 1-based ID, or nil.
func (f *Fleet) Job(id int) *Job {
	if id < 1 || id > len(f.jobs) {
		return nil
	}
	return f.jobs[id-1]
}

// Cache returns the fleet's tuning cache.
func (f *Fleet) Cache() *TuningCache { return f.cache }

// LogBytes returns the JSONL event log accumulated so far (records are
// appended on the scheduler goroutine in event order, so the log is
// independent of shard and worker counts). With Config.LogRetention > 0
// only the most recent records are returned (the schema record trims away
// once the bound bites); with LogRetention < 0 the mirror is disabled and
// LogBytes returns nil — stream via Config.LogW when a bounded-memory run
// still needs the full log.
func (f *Fleet) LogBytes() []byte { return f.log.buf.Bytes() }

// push schedules an event. Every push runs on the scheduler goroutine at
// a deterministic point of the loop, so the sequence number — the final
// tie-break — is itself deterministic.
func (f *Fleet) push(t float64, kind eventKind, job *Job, mach int) {
	f.eventSeq++
	heap.Push(&f.events, &event{t: t, kind: kind, seq: f.eventSeq, job: job, mach: mach})
}

// Submit schedules one job arrival at time at (finite, >= Now). Workers
// must fit on at least one machine or the job could never run.
func (f *Fleet) Submit(spec workload.Spec, workers int, workScale, at float64) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if workScale <= 0 || math.IsNaN(workScale) || math.IsInf(workScale, 0) {
		return nil, fmt.Errorf("fleet: work scale %g must be positive and finite", workScale)
	}
	if err := checkSpecSize(spec, workScale); err != nil {
		return nil, err
	}
	if math.IsNaN(at) || math.IsInf(at, 0) {
		return nil, fmt.Errorf("fleet: arrival %g is not finite", at)
	}
	if at < f.now {
		return nil, fmt.Errorf("fleet: arrival %.3f is in the past (now %.3f)", at, f.now)
	}
	fits := false
	for _, m := range f.machines {
		if workers >= 1 && workers <= m.topo.NumNodes() {
			fits = true
			break
		}
	}
	if !fits {
		return nil, fmt.Errorf("fleet: no machine has %d nodes", workers)
	}
	if f.cfg.MaxQueue > 0 && len(f.queue) >= f.cfg.MaxQueue {
		return nil, fmt.Errorf("%w (%d jobs waiting, max %d)", ErrQueueFull, len(f.queue), f.cfg.MaxQueue)
	}
	job := &Job{
		ID: len(f.jobs) + 1, Spec: spec, Workers: workers, WorkScale: workScale,
		Arrival: at, State: JobPending, Machine: -1, remFrac: 1,
	}
	h := fnv.New64a()
	h.Write([]byte(spec.Signature()))
	job.sigHash = h.Sum64()
	f.jobs = append(f.jobs, job)
	f.push(at, evArrive, job, -1)
	f.prefetch(job)
	return job, nil
}

// checkSpecSize enforces the ErrBadSpec bounds. It belongs to the fleet,
// not to workload.Spec.Validate: simulator tests and benchmarks run
// steady-state specs of 1e9 GB and more, and compute-bound co-runners, on
// purpose.
func checkSpecSize(spec workload.Spec, workScale float64) error {
	if spec.ComputeBound {
		return fmt.Errorf("%w: %s is compute-bound and never finishes", ErrBadSpec, spec.Name)
	}
	var work, run, shared, private float64
	for _, b := range workload.Benchmarks() {
		work = max(work, b.WorkGB)
		run = max(run, b.WorkGB/(b.ReadGBs+b.WriteGBs))
		shared = max(shared, b.SharedGB)
		private = max(private, b.PrivateGBPerNode)
	}
	for _, c := range []struct {
		what, unit string
		v, limit   float64
	}{
		{"scaled work volume", "GB", spec.WorkGB * workScale, maxSpecScale * work},
		{"expected run time", "s", spec.WorkGB * workScale / (spec.ReadGBs + spec.WriteGBs), maxRunScale * run},
		{"shared segment", "GB", spec.SharedGB, maxSpecScale * shared},
		{"private segment", "GB", spec.PrivateGBPerNode, maxSpecScale * private},
	} {
		if !(c.v <= c.limit) { // NaN fails too
			return fmt.Errorf("%w: %s of %g %s, limit %g %s", ErrBadSpec, c.what, c.v, c.unit, c.limit, c.unit)
		}
	}
	return nil
}

// prefetch hints the tuning cache's probe pool with the key this job's
// admission would demand if it were placed right now: the bestFit machine
// (the same read-only rule routing and admission compose to) and its
// current co-runner count. The prediction may be wrong — churn between
// the hint and the admission changes the co-runner count — in which case
// the hinted key is simply never consumed and the admission probes its
// real key inline, exactly as an unhinted run would; a hint can therefore
// never perturb the demand sequence, only overlap probe work with the
// scheduler. Cheap when wrong, free when the key is already cached.
func (f *Fleet) prefetch(job *Job) {
	if f.cfg.Policy != PolicyBWAP {
		return
	}
	if m := bestFit(f.machines, job.Workers); m != nil {
		f.cache.Prefetch(m.topo, job.Spec, job.Workers, len(m.active))
	}
}

// StreamSpec is one workload class of a job stream: a spec, an arrival
// process and a per-job shape.
type StreamSpec struct {
	// Workload is the job's (unscaled) spec.
	Workload workload.Spec
	// Arrival generates this class's submission times.
	Arrival workload.ArrivalSpec
	// Workers is the per-job NUMA-node demand.
	Workers int
	// WorkScale scales each job's work volume (default 1).
	WorkScale float64
}

// SubmitStream materializes every class's arrival process (seeded from the
// fleet seed and the class index) and submits the merged job stream. Jobs
// are numbered in global arrival order, ties broken by class order.
func (f *Fleet) SubmitStream(streams []StreamSpec) error {
	type pending struct {
		at    float64
		class int
		s     *StreamSpec
	}
	var all []pending
	for ci := range streams {
		s := &streams[ci]
		times, err := s.Arrival.Times(f.cfg.Seed + uint64(ci)*1_000_003)
		if err != nil {
			return fmt.Errorf("fleet: stream %d (%s): %w", ci, s.Workload.Name, err)
		}
		for _, at := range times {
			all = append(all, pending{at: at, class: ci, s: s})
		}
	}
	// Stable merge: arrival time, then class index. Insertion sort keeps
	// it dependency-free; streams are short relative to simulation work.
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && (all[j].at < all[j-1].at ||
			(all[j].at == all[j-1].at && all[j].class < all[j-1].class)); j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	for _, p := range all {
		ws := p.s.WorkScale
		if ws <= 0 {
			ws = 1
		}
		if _, err := f.Submit(p.s.Workload, p.s.Workers, ws, p.at); err != nil {
			return err
		}
	}
	return nil
}

// Run processes the whole submitted stream to completion and returns the
// final statistics. Before returning it waits out any probe prefetches
// still in flight (mispredicted hints no admission consumed), so a
// drained fleet leaves no background goroutine behind.
func (f *Fleet) Run() (*Stats, error) {
	defer f.cache.Quiesce()
	if err := f.run(math.Inf(1), true); err != nil {
		return nil, err
	}
	if err := f.log.Err(); err != nil {
		return nil, err
	}
	return f.Stats(), nil
}

// Advance moves simulated time forward by d seconds (finite, >= 0),
// handling every event that falls due — the daemon's clock driver.
func (f *Fleet) Advance(d float64) error {
	if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		return fmt.Errorf("fleet: advance %g must be finite and non-negative", d)
	}
	return f.run(f.now+d, false)
}

// ProcessDue handles events due at the current time without advancing the
// clock — how a daemon admits a just-submitted job synchronously.
func (f *Fleet) ProcessDue() error { return f.run(f.now, false) }

// eps returns the tolerance for clock comparisons: events bind to the
// first tick boundary at or after their timestamp, so an event is due only
// once the clock has actually reached it (modulo float accumulation
// drift). Binding forward means a job is never logged as admitted before
// its own arrival. Log timestamps are still not globally monotone:
// completion records carry interpolated sub-tick finish times, so one may
// trail an admit bound to the next tick boundary by up to one tick —
// consumers needing exact order must sort by Seq, which is dense and
// causal.
func (f *Fleet) eps() float64 { return f.dt * 1e-6 }

// run is the event loop. In drain mode it runs until no events remain and
// no job is running (error if MaxSimTime is hit first); otherwise it stops
// once the clock reaches target. The tick pool lives exactly as long as
// this invocation.
func (f *Fleet) run(target float64, drain bool) error {
	defer f.stopPool()
	for {
		// Handle everything due at the current tick, in heap order.
		if len(f.events) > 0 && f.events[0].t <= f.now+f.eps() {
			if err := f.handle(heap.Pop(&f.events).(*event)); err != nil {
				return err
			}
			continue
		}
		next := target
		if len(f.events) > 0 && f.events[0].t < next {
			next = f.events[0].t
		}
		// MaxSimTime is a drain guard only: a daemon-driven Advance keeps
		// its virtual clock running indefinitely.
		if drain {
			if len(f.events) == 0 {
				if f.running == 0 {
					if len(f.queue) > 0 {
						// Nothing runs, nothing is scheduled, yet jobs wait:
						// no future completion or recovery can ever admit
						// them (e.g. every machine they could route to is
						// down for good). Fail fast instead of grinding the
						// clock to MaxSimTime.
						return fmt.Errorf("fleet: %d jobs stranded in queue with no pending events (%d/%d machines up)",
							len(f.queue), f.machinesUp(), len(f.machines))
					}
					return nil
				}
				next = f.cfg.MaxSimTime
			}
			if next > f.cfg.MaxSimTime {
				next = f.cfg.MaxSimTime
			}
		}
		if f.now+f.eps() >= next {
			if !drain {
				return nil
			}
			return fmt.Errorf("fleet: MaxSimTime %.0f exceeded with %d running and %d queued jobs",
				f.cfg.MaxSimTime, f.running, len(f.queue))
		}
		for _, j := range f.advanceTo(next) {
			f.push(j.app.FinishTime(), evComplete, j, j.Machine)
		}
	}
}

// lookaheadWindow sizes the next advance window: the number of ticks the
// machines may free-run without any barrier, capped so the clock stays
// strictly below t (the next scheduled event already on the heap) and
// below every machine's completion horizon (the only event kind that
// emerges from inside an engine rather than from the heap; see
// sim.CompletionHorizonTicks for the demand-bound proof). The window does
// not require quiescence — solves, phase changes and init bursts may all
// happen inside it — so a busy fleet pays one barrier per emergent event
// instead of one per tick. The window size is a pure function of global
// fleet state, identical for every shard and worker count, which keeps
// the merged log invariant.
func (f *Fleet) lookaheadWindow(t float64) int {
	rt := (t - f.now) / f.dt
	if !(rt < 1<<40) {
		rt = 1 << 40
	}
	k := int(rt) - 1 // strictly below t: the tail ticks use the exact clock test
	if k < 1 {
		return 1
	}
	for _, m := range f.machines {
		if h := m.eng.CompletionHorizonTicks(k); h < k {
			if h < 1 {
				return 1
			}
			k = h
		}
	}
	return k
}

// handle dispatches one event.
func (f *Fleet) handle(ev *event) error {
	switch ev.kind {
	case evArrive:
		job := ev.job
		job.State = JobQueued
		f.logAppend(-1, Record{T: job.Arrival, Type: "arrive", Job: job.ID, Machine: -1,
			Workload: job.Spec.Name, Workers: job.Workers, WorkScale: job.WorkScale})
		// Re-hint with the fleet's current state: the submit-time prediction
		// was made before any placements, so arrival time is where queued
		// bursts get accurate (machine, co-runner) keys into the pool.
		f.prefetch(job)
		admitted, err := f.tryAdmit(job)
		if err != nil {
			return err
		}
		if !admitted {
			f.enqueue(job)
			f.logAppend(-1, Record{T: job.Arrival, Type: "queue", Job: job.ID, Machine: -1, Workload: job.Spec.Name})
		}
		return nil

	case evComplete:
		return f.complete(ev.job)

	case evRetune:
		return f.retune(f.machines[ev.mach])

	case evRetry:
		return f.retryJob(ev.job)

	case evMachineAdd:
		return f.addMachine()

	case evCrash, evDrain, evRecover:
		// FaultPlan targets may reference machines a machine-add creates
		// later; firing before the add is a plan bug, surfaced here.
		m, err := f.machineByID(ev.mach)
		if err != nil {
			return fmt.Errorf("fleet: %s event at %.3f: %w", ev.kind, ev.t, err)
		}
		switch ev.kind {
		case evCrash:
			return f.crashMachine(m)
		case evDrain:
			return f.drainMachine(m)
		default:
			return f.recoverMachine(m)
		}
	}
	return fmt.Errorf("fleet: unknown event kind %d", ev.kind)
}

// logAppend writes one record to the merged log, attributing it to a
// shard (-1 = router-level records: arrive, queue).
func (f *Fleet) logAppend(shardID int, rec Record) {
	f.log.append(rec)
	if shardID >= 0 {
		f.shards[shardID].records++
	}
	if f.obs != nil {
		f.obs.record(rec)
	}
}

// bestFit is THE machine-selection rule: the most-free up machine that
// fits the worker demand, ties to the earliest in the slice (= lowest id,
// as every machine list is id-ascending). Drained and crashed machines are
// invisible — that single check is how every admission path honors the
// lifecycle state. The least-loaded router and the shard-level admission
// both call it, which is what makes their composition pick the same
// machine for any shard partition — the replay-equivalence tests depend on
// this staying a single function.
func bestFit(ms []*machine, workers int) *machine {
	var best *machine
	for _, m := range ms {
		if m.state == machineUp && m.freeCount >= workers && (best == nil || m.freeCount > best.freeCount) {
			best = m
		}
	}
	return best
}

// tryAdmit asks the router for a shard, then admits within it: the
// shard's bestFit machine takes the job, with the admission policy
// picking the node set. False means no capacity on the routed shard (or
// nowhere, for the least-loaded router).
func (f *Fleet) tryAdmit(job *Job) (bool, error) {
	si := f.router.route(f, job)
	if si < 0 {
		return false, nil
	}
	s := f.shards[si]
	best := bestFit(s.machines, job.Workers)
	if best == nil {
		return false, nil
	}
	nodes, err := f.admission.PickNodes(best.topo, best.freeNodes(), job)
	if err != nil {
		return false, err
	}
	if len(nodes) != job.Workers {
		return false, fmt.Errorf("fleet: admission policy %s picked %d nodes for a %d-worker job",
			f.admission.Name(), len(nodes), job.Workers)
	}
	if err := best.claim(nodes); err != nil {
		return false, err
	}
	return true, f.place(job, best, nodes)
}

// place admits the job onto machine m with the chosen nodes: builds the
// policy's placer (consulting the tuning cache under bwap), registers the
// app and performs the initial placement.
func (f *Fleet) place(job *Job, m *machine, nodes []topology.NodeID) error {
	s := f.shards[m.shard]
	coRunners := len(m.active)

	var placer sim.Placer
	var dwp float64
	var hitPtr *bool
	switch f.cfg.Policy {
	case PolicyFirstTouch:
		placer = policy.FirstTouch{}
	case PolicyUniformAll:
		placer = policy.UniformAll{}
	case PolicyUniformWorkers:
		placer = policy.UniformWorkers{}
	case PolicyBWAP:
		var hit bool
		var err error
		dwp, hit, err = f.cache.DWP(m.topo, job.Spec, job.Workers, coRunners)
		if err != nil {
			m.release(nodes)
			return err
		}
		if hit {
			s.cacheHits++
		} else {
			s.cacheMisses++
		}
		job.CacheHit = hit
		hitPtr = &hit
		placer = core.StaticDWP{
			Canonical: f.cache.Canonical(m.topo),
			DWP:       dwp,
			UserLevel: true,
			Label:     "fleet-bwap",
		}
	}

	name := fmt.Sprintf("job-%d", job.ID)
	app, err := m.eng.AddApp(name, job.Spec.Scaled(job.WorkScale*job.remFrac), nodes, placer)
	if err != nil {
		m.release(nodes)
		return fmt.Errorf("fleet: admitting job %d: %w", job.ID, err)
	}
	if err := m.eng.PlaceApp(app); err != nil {
		// Deregister the half-admitted app so a later retry of this job
		// does not collide with its name.
		m.eng.RemoveApp(app) //nolint:errcheck // best-effort unwind
		m.release(nodes)
		return fmt.Errorf("fleet: placing job %d: %w", job.ID, err)
	}

	job.State = JobRunning
	job.Machine = m.id
	job.Nodes = nodes
	job.Admit = f.now
	job.app = app
	m.active = append(m.active, job)
	f.running++
	s.admitted++

	rec := Record{T: f.now, Type: "admit", Job: job.ID, Machine: m.id,
		Workload: job.Spec.Name, Nodes: nodeInts(nodes), CacheHit: hitPtr}
	if f.cfg.Policy == PolicyBWAP {
		rec.DWP = &dwp
	}
	f.logAppend(m.shard, rec)
	f.scheduleRetune(m)
	return nil
}

// complete handles a job departure: frees its nodes, detaches its app from
// the engine, and backfills the queue.
func (f *Fleet) complete(job *Job) error {
	m := f.machines[job.Machine]
	s := f.shards[m.shard]
	job.State = JobDone
	job.Finish = job.app.FinishTime()
	m.release(job.Nodes)
	if err := m.eng.RemoveApp(job.app); err != nil {
		return fmt.Errorf("fleet: completing job %d: %w", job.ID, err)
	}
	job.app = nil // nothing reads it after completion; Fleet.jobs outlives it
	for i, j := range m.active {
		if j == job {
			m.active = append(m.active[:i], m.active[i+1:]...)
			break
		}
	}
	f.running--
	s.completed++
	f.logAppend(m.shard, Record{T: job.Finish, Type: "complete", Job: job.ID, Machine: m.id,
		Workload: job.Spec.Name, Elapsed: job.Finish - job.Admit})
	if f.obs != nil {
		// Completion is a deterministic point of the record stream, so
		// sampling the engine fixed point here is shard-invariant.
		f.obs.observeEngine(m.eng)
	}
	f.scheduleRetune(m)
	return f.backfill()
}

// scheduleRetune arranges a coalesced retune of machine m's surviving jobs
// shortly after churn (bwap policy only).
func (f *Fleet) scheduleRetune(m *machine) {
	if f.cfg.Policy != PolicyBWAP || f.cfg.RetuneDelay < 0 || m.retunePending ||
		len(m.active) == 0 || m.state != machineUp {
		return
	}
	m.retunePending = true
	f.push(f.now+f.cfg.RetuneDelay, evRetune, nil, m.id)
}

// retune re-places every running job on m for its current co-runner count,
// migrating pages toward the cached placement for the new mix.
func (f *Fleet) retune(m *machine) error {
	m.retunePending = false
	// A retune scheduled before a drain/crash may fire while the machine is
	// down; the survivors (if any) are only jobs already completing.
	if len(m.active) == 0 || m.state != machineUp {
		return nil
	}
	// The retune keys are exact (same machine, co-runner count fixed for
	// the whole sweep), so hint them all before the serial consumption
	// loop: a cold retune of n distinct signatures runs its probes
	// pool-wide instead of one by one.
	for _, job := range m.active {
		f.cache.Prefetch(m.topo, job.Spec, job.Workers, len(m.active)-1)
	}
	s := f.shards[m.shard]
	jobs := make([]int, 0, len(m.active))
	for _, job := range m.active {
		dwp, hit, err := f.cache.DWP(m.topo, job.Spec, job.Workers, len(m.active)-1)
		if err != nil {
			return fmt.Errorf("fleet: retuning job %d: %w", job.ID, err)
		}
		if hit {
			s.cacheHits++
		} else {
			s.cacheMisses++
		}
		canonical, err := f.cache.Canonical(m.topo).Weights(job.Nodes)
		if err != nil {
			return fmt.Errorf("fleet: retuning job %d: %w", job.ID, err)
		}
		w, err := core.DWPWeights(canonical, job.Nodes, dwp)
		if err != nil {
			return fmt.Errorf("fleet: retuning job %d: %w", job.ID, err)
		}
		if err := core.ApplyWeights(job.app.AS, w, true); err != nil {
			return fmt.Errorf("fleet: retuning job %d: %w", job.ID, err)
		}
		jobs = append(jobs, job.ID)
	}
	s.retunes++
	f.logAppend(m.shard, Record{T: f.now, Type: "retune", Machine: m.id, Jobs: jobs})
	return nil
}

func nodeInts(nodes []topology.NodeID) []int {
	out := make([]int, len(nodes))
	for i, n := range nodes {
		out[i] = int(n)
	}
	return out
}
