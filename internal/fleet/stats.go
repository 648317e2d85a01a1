package fleet

// Stats summarizes a fleet's state, serialized by the daemon's /fleet
// endpoint and rendered by the fleet experiment.
type Stats struct {
	// Policy is the placement policy in force.
	Policy string `json:"policy"`
	// Admission names the node-selection policy.
	Admission string `json:"admission"`
	// Machines is the fleet size; MachinesUp the members currently in
	// service; Shards the tick pool's width (Config.Shards).
	Machines   int `json:"machines"`
	MachinesUp int `json:"machines_up"`
	Shards     int `json:"shards"`
	// SimTime is the current simulated time.
	SimTime float64 `json:"sim_time"`

	// Jobs counts every submission; Pending/Queued/RetryWait/Running/
	// Completed/FailedJobs partition it (the job-conservation invariant:
	// the six always sum to Jobs).
	Jobs       int `json:"jobs"`
	Pending    int `json:"pending"`
	Queued     int `json:"queued"`
	RetryWait  int `json:"retry_wait"`
	Running    int `json:"running"`
	Completed  int `json:"completed"`
	FailedJobs int `json:"failed_jobs"`

	// Evacuations counts jobs gracefully moved off draining machines;
	// Retries counts crash-retry grants (a job killed twice counts twice).
	Evacuations int `json:"evacuations"`
	Retries     int `json:"retries"`

	// MeanWait is the mean time from arrival to admission over completed
	// jobs; MeanRuntime the mean admission-to-finish time; MeanTurnaround
	// their sum measured end to end.
	MeanWait       float64 `json:"mean_wait"`
	MeanRuntime    float64 `json:"mean_runtime"`
	MeanTurnaround float64 `json:"mean_turnaround"`
	// ThroughputJobsPerSec is completed jobs per simulated second.
	ThroughputJobsPerSec float64 `json:"throughput_jobs_per_sec"`
	// Utilization is the busy-node-seconds fraction across the fleet.
	// Busy time is counted in whole node-ticks, so it is the same for any
	// pool width and any cut of the run into windows.
	Utilization float64 `json:"utilization"`

	// CacheHits/CacheMisses count this fleet's tuning-cache lookups
	// (admissions and retunes, bwap policy only).
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// CacheEvictions/CacheRestored/CacheEntries report the backing tuning
	// cache's DWP layer: LRU evictions under a CacheMaxEntries bound,
	// entries loaded from a snapshot file, and current occupancy. Unlike
	// the hit/miss counters these are properties of the (possibly shared)
	// cache itself, not of this fleet's lookups alone.
	CacheEvictions int64 `json:"cache_evictions"`
	CacheRestored  int64 `json:"cache_restored"`
	CacheEntries   int   `json:"cache_entries"`
	// TickSolves/TickReplays report the engines' quiescent-interval
	// fast-forward economics, summed over machines: ticks that ran a full
	// flow build + memsys solve vs. ticks replayed from a cached solve.
	// A healthy steady-state fleet replays most ticks.
	TickSolves  int64 `json:"tick_solves"`
	TickReplays int64 `json:"tick_replays"`
	// TickMemoHits counts the TickSolves the memsys solver answered from
	// its memo of recent solves rather than by progressive filling.
	TickMemoHits int64 `json:"tick_memo_hits"`
	// AdvanceBatches counts advance windows (each sized by
	// lookaheadWindow); AdvanceTicks is the total ticks they covered.
	// Their ratio — the mean barrier-free window — measures how well the
	// engine's horizon prediction amortizes the window barrier: sharper
	// horizons mean fewer, longer batches for the same tick sequence.
	AdvanceBatches int64 `json:"advance_batches"`
	AdvanceTicks   int64 `json:"advance_ticks"`
	// LogRecords is the number of event-log lines written.
	LogRecords int `json:"log_records"`
}

// Stats computes the current snapshot.
func (f *Fleet) Stats() *Stats {
	s := &Stats{
		Policy:         f.cfg.Policy,
		Admission:      f.admission.Name(),
		Machines:       len(f.machines),
		MachinesUp:     f.machinesUp(),
		Shards:         f.cfg.Shards,
		SimTime:        f.now,
		Jobs:           len(f.jobs),
		Evacuations:    f.evacuations,
		Retries:        f.retries,
		AdvanceBatches: f.batches,
		AdvanceTicks:   f.batchTicksSum,
		CacheHits:      f.cacheHits,
		CacheMisses:    f.cacheMisses,
		LogRecords:     f.log.seq,
	}
	cs := f.cache.Stats()
	s.CacheEvictions = cs.Evictions
	s.CacheRestored = cs.Restored
	s.CacheEntries = cs.Entries
	for _, m := range f.machines {
		solves, replays := m.eng.FastForwardStats()
		s.TickSolves += int64(solves)
		s.TickReplays += int64(replays)
		s.TickMemoHits += int64(m.eng.SolveMemoHits())
	}
	var wait, run, turn float64
	for _, j := range f.jobs {
		switch j.State {
		case JobPending:
			s.Pending++
		case JobQueued:
			s.Queued++
		case JobRunning:
			s.Running++
		case JobDone:
			s.Completed++
			wait += j.Admit - j.Arrival
			run += j.Finish - j.Admit
			turn += j.Finish - j.Arrival
		case JobRetryWait:
			s.RetryWait++
		case JobFailed:
			s.FailedJobs++
		}
	}
	if s.Completed > 0 {
		n := float64(s.Completed)
		s.MeanWait = wait / n
		s.MeanRuntime = run / n
		s.MeanTurnaround = turn / n
	}
	if f.now > 0 {
		s.ThroughputJobsPerSec = float64(s.Completed) / f.now
		s.Utilization = float64(f.busyNodeTicks) * f.dt / (f.now * float64(f.totalNodes))
	}
	return s
}
