package fleet

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strconv"
	"sync"

	"bwap/internal/obs"
	"bwap/internal/sim"
)

// ErrNoObserver is returned by the telemetry surfaces when the fleet was
// built without Config.Obs.
var ErrNoObserver = errors.New("fleet: no telemetry observer attached")

// ObserverConfig parameterizes an Observer.
type ObserverConfig struct {
	// Window is the timeline's base window width in simulated seconds
	// (default 1). /timeline?window= re-buckets in integer multiples of it.
	Window float64
	// TimelineSlots bounds the timeline ring per series (default
	// obs.DefaultTimelineSlots base windows).
	TimelineSlots int
	// SpanW, if set, receives per-job lifecycle spans as Chrome trace
	// events (open the file in chrome://tracing or Perfetto). Span output
	// is itself deterministic, but it allocates per span, so leave it nil
	// on hot benchmark paths.
	SpanW io.Writer
}

// Observer is the fleet's telemetry layer: a pure consumer of the merged
// event-record stream. Counters, histograms, timeline windows and spans
// update only from records (which are bit-reproducible per seed and
// independent of the tick pool's width); instantaneous gauges are synced from fleet
// state at exposition time. The observer never touches the log, the RNG,
// or the tick/barrier path — attaching one cannot change the event log by
// a byte, and replaying a recorded trace reproduces the /metrics
// exposition byte for byte (both pinned by tests).
//
// All observer state sits behind its own mutex: the fleet feeds records
// from its single scheduling thread, while exposition (WriteMetrics,
// TimelineSnapshot) may run concurrently from HTTP handlers without
// holding the fleet's lock — a slow scraper serializes against other
// scrapes, not against the simulation. An Observer still must not be
// shared between fleets.
type Observer struct {
	mu    sync.Mutex
	reg   *obs.Registry
	tl    *obs.Timeline
	spans *obs.SpanWriter

	// Record-driven counters.
	arrivals, queueEvents, admits, completions, failures *obs.Counter
	retries, evacuations, crashes, drains                *obs.Counter
	recovers, machineAdds, retunes                       *obs.Counter
	cacheHits, cacheMisses, probeRuns                    *obs.Counter

	// Record-driven histograms (sim-time valued).
	turnaround, queueWait, runtime *obs.Histogram
	retryBackoff                   *obs.Histogram
	probeLat                       *obs.Histogram
	latMult                        *obs.Histogram

	// Timeline series.
	tlArrivals, tlCompletions, tlTurnaround, tlQueueWait *obs.TimeSeries

	// simTime is the fleet clock captured by the last syncGauges — the
	// timeline's notion of "now" when rendered off the fleet's lock.
	simTime float64

	// Instantaneous gauges, synced from fleet state at exposition time.
	gSimTime, gMachines, gMachinesUp *obs.Gauge
	gQueueDepth, gJobsTotal          *obs.Gauge
	gJobState                        [6]*obs.Gauge // indexed by JobState
	gTickSolves, gTickMemoHits       *obs.Gauge
	gTickReplays                     *obs.Gauge
	machUp, machRunning              []*obs.Gauge // indexed by machine id

	jobs []jobTrack // indexed by job ID-1
}

// jobTrack is the observer's per-job lifecycle cursor: when the current
// phase (queued, running, retry-wait) began and where the job runs.
type jobTrack struct {
	arrival    float64
	phaseStart float64
	machine    int
}

// NewObserver builds a telemetry observer; attach it via Config.Obs.
func NewObserver(cfg ObserverConfig) *Observer {
	r := obs.NewRegistry()
	o := &Observer{
		reg: r,
		tl:  obs.NewTimeline(cfg.Window, cfg.TimelineSlots),
	}
	if cfg.SpanW != nil {
		o.spans = obs.NewSpanWriter(cfg.SpanW)
	}

	o.arrivals = r.Counter("bwap_job_arrivals_total", "Job arrival events fired.")
	o.queueEvents = r.Counter("bwap_job_queue_events_total", "Times a job entered the wait queue (no up machine had room for it).")
	o.admits = r.Counter("bwap_job_admits_total", "Job placements (fresh arrivals, evacuations and retries alike).")
	o.completions = r.Counter("bwap_job_completions_total", "Jobs that ran to completion.")
	o.failures = r.Counter("bwap_job_failures_total", "Jobs that exhausted their crash-retry budget (terminal).")
	o.retries = r.Counter("bwap_job_retries_total", "Crash-retry grants (a job killed twice counts twice).")
	o.evacuations = r.Counter("bwap_job_evacuations_total", "Jobs gracefully evacuated off draining machines.")
	o.crashes = r.Counter("bwap_machine_crashes_total", "Machine crash events.")
	o.drains = r.Counter("bwap_machine_drains_total", "Machine drain events.")
	o.recovers = r.Counter("bwap_machine_recovers_total", "Machines returned to service.")
	o.machineAdds = r.Counter("bwap_machine_adds_total", "Machines added to the fleet.")
	o.retunes = r.Counter("bwap_retunes_total", "Coalesced co-runner retunes (bwap policy).")
	o.cacheHits = r.Counter("bwap_cache_hits_total", "Admission placements served from the tuning cache.")
	o.cacheMisses = r.Counter("bwap_cache_misses_total", "Admission placements that had to probe.")
	o.probeRuns = r.Counter("bwap_probe_runs_total", "Tuning-probe simulations run by the cache.")

	// Latency histograms use exponential (log) buckets: job latencies span
	// orders of magnitude, so fixed-ratio buckets keep relative quantile
	// error constant across the range. The latency multiplier is a narrow
	// ratio >= 1, so it gets linear buckets instead.
	o.turnaround = r.Histogram("bwap_job_turnaround_seconds",
		"Arrival-to-completion time in simulated seconds.", obs.ExpBuckets(0.5, 2, 18))
	o.queueWait = r.Histogram("bwap_job_queue_wait_seconds",
		"Phase-start-to-admission wait in simulated seconds (per placement).", obs.ExpBuckets(0.1, 2, 16))
	o.runtime = r.Histogram("bwap_job_runtime_seconds",
		"Admission-to-finish runtime in simulated seconds (per completed placement).", obs.ExpBuckets(0.5, 2, 18))
	o.retryBackoff = r.Histogram("bwap_job_retry_backoff_seconds",
		"Crash-retry backoff delays in simulated seconds.", obs.ExpBuckets(1, 2, 8))
	o.probeLat = r.Histogram("bwap_probe_latency_seconds",
		"Elapsed simulated time of tuning-probe runs.", obs.ExpBuckets(1, 2, 12))
	o.latMult = r.Histogram("bwap_engine_lat_multiplier",
		"Per-node latency-feedback multipliers sampled at each completion on the completing machine.",
		obs.LinearBuckets(1, 0.1, 20))

	o.tlArrivals = o.tl.Series("arrivals")
	o.tlCompletions = o.tl.Series("completions")
	o.tlTurnaround = o.tl.Series("turnaround")
	o.tlQueueWait = o.tl.Series("queue_wait")

	o.gSimTime = r.Gauge("bwap_sim_time_seconds", "Fleet simulated clock.")
	o.gMachines = r.Gauge("bwap_machines_total", "Fleet size.")
	o.gMachinesUp = r.Gauge("bwap_machines_up", "Machines currently in service.")
	o.gQueueDepth = r.Gauge("bwap_queue_depth", "Jobs waiting for capacity.")
	o.gJobsTotal = r.Gauge("bwap_jobs_total", "Jobs submitted (the per-state bwap_jobs gauges partition this).")
	for st := JobPending; st <= JobFailed; st++ {
		o.gJobState[st] = r.Gauge("bwap_jobs", "Jobs by lifecycle state.",
			obs.Label{Key: "state", Value: st.String()})
	}
	o.gTickSolves = r.Gauge("bwap_tick_solves", "Engine ticks that ran a full flow build + solve, summed over machines.")
	o.gTickMemoHits = r.Gauge("bwap_tick_memo_hits", "Engine tick solves answered from the solver's memo of recent solves (a subset of bwap_tick_solves), summed over machines.")
	o.gTickReplays = r.Gauge("bwap_tick_replays", "Engine ticks replayed from a memoized solve, summed over machines.")
	return o
}

// Turnaround returns the arrival-to-completion histogram.
func (o *Observer) Turnaround() *obs.Histogram { return o.turnaround }

// QueueWait returns the admission-wait histogram.
func (o *Observer) QueueWait() *obs.Histogram { return o.queueWait }

// CloseSpans terminates the span stream's JSON array (no-op without a
// span sink). Call it once, after the run.
func (o *Observer) CloseSpans() error {
	if o.spans == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.spans.Close()
}

// track returns the job's cursor, or nil for an id the observer never saw
// arrive (possible only if the observer was attached mid-run).
func (o *Observer) track(id int) *jobTrack {
	if id < 1 || id > len(o.jobs) {
		return nil
	}
	return &o.jobs[id-1]
}

// spanArgs is the args payload of job spans; a struct (not a map) keeps
// the JSON field order fixed.
type spanArgs struct {
	Workload string `json:"workload,omitempty"`
	Outcome  string `json:"outcome,omitempty"`
}

// pid maps a machine id to a span process id (fleet-level records,
// machine -1, land on pid 0).
func pid(machine int) int { return machine + 1 }

// record consumes one event-log record — the observer's only input on the
// scheduler path. For already-tracked jobs with spans disabled this path
// is allocation-free (pinned by TestObserverRecordAllocationFree); the
// uncontended mutex costs nanoseconds and keeps exposition off the
// fleet's lock.
func (o *Observer) record(rec Record) {
	o.mu.Lock()
	defer o.mu.Unlock()
	switch rec.Type {
	case "arrive":
		for len(o.jobs) < rec.Job {
			o.jobs = append(o.jobs, jobTrack{})
		}
		if jt := o.track(rec.Job); jt != nil {
			*jt = jobTrack{arrival: rec.T, phaseStart: rec.T, machine: -1}
		}
		o.arrivals.Inc()
		o.tlArrivals.Observe(rec.T, 1)

	case "queue":
		o.queueEvents.Inc()

	case "admit":
		o.admits.Inc()
		if rec.CacheHit != nil {
			if *rec.CacheHit {
				o.cacheHits.Inc()
			} else {
				o.cacheMisses.Inc()
			}
		}
		if jt := o.track(rec.Job); jt != nil {
			wait := rec.T - jt.phaseStart
			o.queueWait.Observe(wait)
			o.tlQueueWait.Observe(rec.T, wait)
			if o.spans != nil && wait > 0 {
				o.spans.Complete("queued", "job", pid(-1), rec.Job, jt.phaseStart, wait,
					spanArgs{Workload: rec.Workload})
			}
			jt.phaseStart = rec.T
			jt.machine = rec.Machine
		}

	case "complete":
		o.completions.Inc()
		o.runtime.Observe(rec.Elapsed)
		o.tlCompletions.Observe(rec.T, 1)
		if jt := o.track(rec.Job); jt != nil {
			turn := rec.T - jt.arrival
			o.turnaround.Observe(turn)
			o.tlTurnaround.Observe(rec.T, turn)
			if o.spans != nil {
				o.spans.Complete("running", "job", pid(rec.Machine), rec.Job,
					jt.phaseStart, rec.T-jt.phaseStart, spanArgs{Workload: rec.Workload, Outcome: "complete"})
			}
		}

	case "drain", "crash":
		outcome := "evacuated"
		if rec.Type == "crash" {
			o.crashes.Inc()
			outcome = "killed"
		} else {
			o.drains.Inc()
			o.evacuations.Add(float64(len(rec.Jobs)))
		}
		for _, id := range rec.Jobs {
			if jt := o.track(id); jt != nil {
				if o.spans != nil {
					o.spans.Complete("running", "job", pid(rec.Machine), id,
						jt.phaseStart, rec.T-jt.phaseStart, spanArgs{Outcome: outcome})
				}
				jt.phaseStart = rec.T
				jt.machine = -1
			}
		}
		if o.spans != nil {
			o.spans.Instant(rec.Type, "machine", pid(rec.Machine), 0, rec.T, nil)
		}

	case "retry":
		o.retries.Inc()
		o.retryBackoff.Observe(rec.RetryAt - rec.T)
		if jt := o.track(rec.Job); jt != nil {
			if o.spans != nil {
				o.spans.Complete("retry-wait", "job", pid(-1), rec.Job,
					rec.T, rec.RetryAt-rec.T, spanArgs{Workload: rec.Workload})
			}
			jt.phaseStart = rec.RetryAt
		}

	case "fail":
		o.failures.Inc()
		if o.spans != nil {
			o.spans.Instant("fail", "job", pid(-1), rec.Job, rec.T, nil)
		}

	case "recover":
		o.recovers.Inc()
		if o.spans != nil {
			o.spans.Instant("recover", "machine", pid(rec.Machine), 0, rec.T, nil)
		}

	case "machine-add":
		o.machineAdds.Inc()
		if o.spans != nil {
			o.spans.Instant("machine-add", "machine", pid(rec.Machine), 0, rec.T, nil)
		}

	case "retune":
		o.retunes.Inc()
	}
}

// observeEngine samples the completing machine's latency-feedback
// multipliers — the engine fixed point exposed as a first-class signal.
// Called at completion events, a deterministic point of the record
// stream, so the histogram is invariant over the pool's width.
func (o *Observer) observeEngine(eng *sim.Engine) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, v := range eng.LatMultipliers() {
		o.latMult.Observe(v)
	}
}

// observeProbe receives every tuning-probe run's elapsed simulated time
// (wired through TuningCache.SetProbeObserver).
func (o *Observer) observeProbe(simSeconds float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.probeRuns.Inc()
	o.probeLat.Observe(simSeconds)
}

// syncGauges refreshes the instantaneous gauges from fleet state. Called
// at exposition time only: gauges describe "now", and at deterministic
// observation points (a drained run's end, a quiescent daemon) the values
// are as reproducible as the record stream. Per-machine series are
// created here on first sight, so a machine-add shows up on the next
// exposition. The caller must hold the fleet's lock (or otherwise own the
// fleet); the observer's own lock is taken here.
func (o *Observer) syncGauges(f *Fleet) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.simTime = f.now
	o.gSimTime.Set(f.now)
	o.gMachines.Set(float64(len(f.machines)))
	o.gMachinesUp.Set(float64(f.machinesUp()))
	o.gQueueDepth.Set(float64(len(f.queue)))
	o.gJobsTotal.Set(float64(len(f.jobs)))
	var byState [6]int
	for _, j := range f.jobs {
		if j.State >= 0 && int(j.State) < len(byState) {
			byState[j.State]++
		}
	}
	for st, g := range o.gJobState {
		g.Set(float64(byState[st]))
	}
	var solves, replays, hits int64
	for _, m := range f.machines {
		s, r := m.eng.FastForwardStats()
		solves += int64(s)
		replays += int64(r)
		hits += int64(m.eng.SolveMemoHits())
	}
	o.gTickSolves.Set(float64(solves))
	o.gTickMemoHits.Set(float64(hits))
	o.gTickReplays.Set(float64(replays))

	for len(o.machUp) < len(f.machines) {
		lbl := obs.Label{Key: "machine", Value: strconv.Itoa(len(o.machUp))}
		o.machUp = append(o.machUp,
			o.reg.Gauge("bwap_machine_up", "1 while the machine is in service, else 0.", lbl))
		o.machRunning = append(o.machRunning,
			o.reg.Gauge("bwap_machine_running_jobs", "Jobs currently placed on the machine.", lbl))
	}
	for i, m := range f.machines {
		up := 0.0
		if m.state == machineUp {
			up = 1
		}
		o.machUp[i].Set(up)
		o.machRunning[i].Set(float64(len(m.active)))
	}
}

// WriteMetrics renders the Prometheus text exposition from the observer's
// last-synced state — counters, histograms and gauges as of the most
// recent syncGauges. Safe to call concurrently with the fleet advancing;
// it takes only the observer's lock, and only for the in-memory render:
// w may be a live socket, and a slow client must not hold up recording.
func (o *Observer) WriteMetrics(w io.Writer) error {
	o.mu.Lock()
	var b bytes.Buffer
	err := o.reg.Write(&b)
	o.mu.Unlock()
	if err != nil {
		return err
	}
	_, werr := w.Write(b.Bytes())
	return werr
}

// Observer returns the attached telemetry observer (nil without one).
func (f *Fleet) Observer() *Observer { return f.obs }

// TimelineSnapshot is the /timeline JSON payload: windowed rolling stats
// per series. Series maps render with sorted keys, so the payload is as
// deterministic as the record stream feeding it.
type TimelineSnapshot struct {
	SimTime    float64                     `json:"sim_time"`
	BaseWindow float64                     `json:"base_window"`
	Window     float64                     `json:"window"`
	Series     map[string][]obs.WindowStat `json:"series"`
}

// TimelineSnapshot renders the timeline re-bucketed to the requested
// window (rounded to an integer multiple of the base window; <= base
// keeps the base), stamped with the fleet clock as of the last
// SyncSimTime/syncGauges. Safe to call concurrently with the fleet
// advancing; it takes only the observer's lock.
func (o *Observer) TimelineSnapshot(window float64) *TimelineSnapshot {
	o.mu.Lock()
	defer o.mu.Unlock()
	base := o.tl.Width()
	k := 1
	if window > base {
		k = int(math.Round(window / base))
	}
	return &TimelineSnapshot{
		SimTime:    o.simTime,
		BaseWindow: base,
		Window:     float64(k) * base,
		Series:     o.tl.Snapshot(k),
	}
}

// SyncSimTime refreshes the observer's copy of the fleet clock — the
// cheap slice of syncGauges the timeline needs. The caller must hold the
// fleet's lock (or otherwise own the fleet).
func (o *Observer) SyncSimTime(f *Fleet) {
	o.mu.Lock()
	o.simTime = f.now
	o.mu.Unlock()
}
