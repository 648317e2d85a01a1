// bwapd serves a simulated fleet of NUMA machines over HTTP: jobs are
// submitted as workload specs, admitted onto the up machine with the most
// free nodes, with nodes chosen by the admission policy (-admission),
// placed by the selected placement policy (BWAP placements come from the
// single-flight tuning cache, so repeat jobs skip re-profiling), and
// advanced through simulated time by a background clock decoupled from wall
// time. -shards sets the tick pool's width: the machines advance on
// min(shards, GOMAXPROCS) goroutines, free-running through
// conservative-lookahead windows with one barrier per window — the
// daemon's multi-core scaling axis; the event log stays bit-identical for
// a given seed at any width. See the fleet section and §12 of DESIGN.md
// for the event model, the replayable JSONL log format and the advance
// engine.
//
// The tuning cache is durable: -cache-file loads a snapshot on boot (warm
// start — repeated workload signatures skip re-profiling across restarts)
// and persists it on SIGINT/SIGTERM; -cache-max-entries adds an LRU bound.
// With -replay the daemon does not serve at all: it reads a recorded JSONL
// event log, resubmits the stream at its recorded timestamps against a
// fresh fleet (warmed from -cache-file when given), prints the cache
// economics and exits.
//
// Usage:
//
//	bwapd                                   # 2× Machine B fleet on :8080
//	bwapd -machines 8 -machine A -policy bwap -sim-rate 500
//	bwapd -machines 8 -shards 4             # multi-core tick advance
//	bwapd -admission best-bandwidth
//	bwapd -log fleet-events.jsonl           # mirror the event log to disk
//	bwapd -cache-file tuning.json           # warm-startable tuning cache
//	bwapd -replay fleet-events.jsonl -cache-file tuning.json
//	bwapd -fault-plan chaos.json            # deterministic crash/drain schedule
//	bwapd -span-log spans.json              # per-job lifecycle spans (Perfetto)
//	bwapd -obs=false                        # disable telemetry entirely
//
// Machines have a lifecycle: a -fault-plan file (see fleet.FaultPlan)
// schedules deterministic crashes, drains, recoveries and fleet growth,
// and the /drain and /recover endpoints do the same interactively.
// Drained machines evacuate their jobs gracefully (progress preserved);
// crashed machines kill them, and the jobs retry with capped exponential
// backoff up to -max-retries before failing terminally.
//
// Telemetry is on by default: an observer consumes the fleet's event
// records into sim-time counters, histograms and a windowed timeline,
// served as a Prometheus text exposition on /metrics and as JSON on
// /timeline?window=W. The observer never touches the event log — enabling
// it cannot change the log by a byte. -span-log additionally streams
// per-job lifecycle spans (queued → running → retry-wait) as Chrome
// trace-event JSON that chrome://tracing and Perfetto open directly.
// Diagnostics go to stderr as structured log/slog lines; -log-level sets
// the threshold.
//
// Endpoints:
//
//	POST /submit   {"workload":"SC","workers":2,"work_scale":0.05,"count":3}
//	GET  /status?id=1
//	GET  /jobs
//	GET  /fleet
//	GET  /machines
//	POST /drain?machine=0
//	POST /recover?machine=0
//	GET  /log
//	GET  /metrics
//	GET  /timeline?window=10
//	GET  /healthz
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	_ "net/http/pprof" // -pprof: registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"syscall"
	"time"

	"bwap/internal/fleet"
	"bwap/internal/sim"
	"bwap/internal/topology"
)

// HTTP server timeouts: a client that trickles its headers or its body,
// or parks an idle keep-alive connection, must not hold a connection open
// indefinitely. ReadTimeout spans the whole request, body included; 30 s
// still admits the 1 MiB /submit cap from a client sending 35 KB/s.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	machines := flag.Int("machines", 2, "fleet size")
	shards := flag.Int("shards", 1, "tick pool width: a window advances the machines on min(shards, GOMAXPROCS) goroutines (at most -machines)")
	admission := flag.String("admission", fleet.AdmitMostFree, "node-selection policy: most-free, best-bandwidth, anti-affinity")
	machine := flag.String("machine", "B", "machine model: A (8-node Opteron), B (4-node Xeon)")
	policy := flag.String("policy", fleet.PolicyBWAP, "placement policy: bwap, first-touch, uniform-all, uniform-workers")
	seed := flag.Uint64("seed", 1, "deterministic seed for engines, probes and arrival noise")
	simRate := flag.Float64("sim-rate", 100, "simulated seconds advanced per wall second")
	probeScale := flag.Float64("probe-scale", fleet.DefaultProbeWorkScale, "tuning-probe work fraction")
	probeWorkers := flag.Int("probe-workers", 0, "speculative probe pool width (0 = GOMAXPROCS, negative = no prefetching; wall-clock only, never changes a log byte)")
	logRetention := flag.Int("log-retention", 0, "in-memory event-log mirror: 0 = full, n > 0 = most recent n records, negative = disabled (-log still streams everything)")
	retune := flag.Float64("retune-delay", 0.5, "simulated seconds after churn before co-located jobs are re-tuned (negative disables)")
	logPath := flag.String("log", "", "mirror the JSONL event log to this file")
	cacheFile := flag.String("cache-file", "", "tuning-cache snapshot: loaded on boot if present, saved on shutdown")
	cacheMax := flag.Int("cache-max-entries", 0, "LRU bound on cached placements (0 = unbounded)")
	maxQueue := flag.Int("max-queue", 0, "reject submissions once this many jobs wait for admission (0 = unbounded)")
	faultPlan := flag.String("fault-plan", "", "JSON FaultPlan injecting deterministic crashes/drains/recoveries/machine-adds")
	maxRetries := flag.Int("max-retries", 3, "per-job retry budget for crash-killed jobs (negative = no retries)")
	replayPath := flag.String("replay", "", "replay a recorded JSONL event log instead of serving, then exit")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for in-situ profiling of the fleet hot paths")
	obsOn := flag.Bool("obs", true, "attach the sim-time telemetry observer (/metrics, /timeline)")
	obsWindow := flag.Float64("obs-window", 1, "timeline base window in simulated seconds")
	spanLog := flag.String("span-log", "", "write per-job lifecycle spans as Chrome trace-event JSON to this file (needs -obs)")
	logLevel := flag.String("log-level", "info", "structured-log threshold on stderr: debug, info, warn, error")
	flag.Parse()

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "bwapd: bad -log-level %q (want debug, info, warn or error)\n", *logLevel)
		os.Exit(2)
	}
	// Only a positive, finite rate drives the clock: Fleet.Advance refuses
	// negative and non-finite steps, and a zero rate never moves it.
	if !(*simRate > 0) || math.IsInf(*simRate, 1) {
		fmt.Fprintf(os.Stderr, "bwapd: -sim-rate %g must be positive and finite\n", *simRate)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	slog.SetDefault(logger)
	// Output flushers, reassigned as each sink opens (and idempotent, so
	// the normal and fatal exit paths may both run them). fatal flushes
	// before exiting: a failure after hours of serving must still leave a
	// valid span log and a synced event log behind.
	closeSpans := func() {}
	syncEventLog := func() {}
	fatal := func(err error) {
		logger.Error("fatal", "err", err)
		closeSpans()
		syncEventLog()
		os.Exit(1)
	}

	if *pprofAddr != "" {
		// A separate listener (and the default mux, where the pprof import
		// registers itself) keeps profiling off the public API surface. It
		// covers -replay runs too, so recorded streams can be profiled.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
		logger.Info("pprof listening", "url", fmt.Sprintf("http://%s/debug/pprof/", *pprofAddr))
	}

	var newMachine func(int) *topology.Machine
	switch *machine {
	case "A", "a":
		newMachine = func(int) *topology.Machine { return topology.MachineA() }
	case "B", "b":
		newMachine = func(int) *topology.Machine { return topology.MachineB() }
	default:
		fmt.Fprintf(os.Stderr, "bwapd: unknown machine model %q\n", *machine)
		os.Exit(2)
	}

	cacheOpts := []fleet.TuningCacheOption{fleet.ProbeWorkers(*probeWorkers)}
	if *cacheMax > 0 {
		cacheOpts = append(cacheOpts, fleet.CacheMaxEntries(*cacheMax))
	}
	cache := fleet.NewTuningCache(sim.Config{Seed: *seed}, *probeScale, *seed, cacheOpts...)
	if *cacheFile != "" {
		switch n, err := cache.LoadInto(*cacheFile); {
		case err == nil:
			logger.Info("warm start: restored cached placements", "entries", n, "file", *cacheFile)
		case os.IsNotExist(err):
			logger.Info("cold start: snapshot will be written on shutdown", "file", *cacheFile)
		case errors.Is(err, fleet.ErrBadSnapshot):
			// A corrupt or stale-format snapshot is recoverable: the daemon
			// boots cold and overwrites the bad file on shutdown. Only real
			// I/O problems (unreadable file, permission) abort the boot.
			logger.Warn("ignoring unusable cache snapshot; booting cold", "file", *cacheFile, "err", err)
		default:
			fatal(err)
		}
	}

	var faults *fleet.FaultPlan
	if *faultPlan != "" {
		var err error
		if faults, err = fleet.LoadFaultPlan(*faultPlan); err != nil {
			fatal(err)
		}
	}
	if *maxRetries == 0 {
		*maxRetries = -1 // flag 0 means "no retries"; Config 0 means default
	}

	cfg := fleet.Config{
		Machines:     *machines,
		Shards:       *shards,
		Admission:    *admission,
		NewMachine:   newMachine,
		SimCfg:       sim.Config{Seed: *seed},
		Policy:       *policy,
		RetuneDelay:  *retune,
		MaxQueue:     *maxQueue,
		Faults:       faults,
		MaxRetries:   *maxRetries,
		Seed:         *seed,
		LogRetention: *logRetention,
		Cache:        cache,
	}

	// Telemetry applies to serve and replay runs alike. The observer only
	// consumes records, so attaching it never changes the event log.
	var spanFile *os.File
	if *obsOn {
		ocfg := fleet.ObserverConfig{Window: *obsWindow}
		if *spanLog != "" {
			f, err := os.Create(*spanLog)
			if err != nil {
				fatal(err)
			}
			spanFile = f
			ocfg.SpanW = f
		}
		cfg.Obs = fleet.NewObserver(ocfg)
	} else if *spanLog != "" {
		logger.Warn("-span-log ignored without -obs")
	}
	spansClosed := false
	closeSpans = func() {
		if spansClosed || cfg.Obs == nil {
			return
		}
		spansClosed = true
		if err := cfg.Obs.CloseSpans(); err != nil {
			logger.Warn("span log close failed", "err", err)
		}
		if spanFile != nil {
			// Sync before Close: the terminating "]" CloseSpans just wrote
			// must hit the disk, or a crash right after exit leaves a span
			// file that is not valid JSON.
			if err := spanFile.Sync(); err != nil {
				logger.Warn("span log sync failed", "err", err)
			}
			spanFile.Close() //nolint:errcheck // synced and reported above
			logger.Info("span log written", "file", *spanLog)
		}
	}

	// The replay input is read before -log opens anything, so -log pointing
	// at the same file (under any alias) can never truncate it unread.
	var replayData []byte
	if *replayPath != "" {
		var err error
		if replayData, err = os.ReadFile(*replayPath); err != nil {
			fatal(err)
		}
	}

	if *logPath != "" {
		f, err := os.Create(*logPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		cfg.LogW = f
		syncEventLog = func() {
			if err := f.Sync(); err != nil {
				logger.Warn("event log sync failed", "err", err)
			}
		}
	}

	if *replayPath != "" {
		// -log applies here too: the replayed run regenerates its own
		// event log, mirrored like the serve path's.
		err := replay(cfg, *replayPath, replayData, *cacheFile)
		closeSpans()
		if err != nil {
			fatal(err)
		}
		return
	}

	fl, err := fleet.New(cfg)
	if err != nil {
		fatal(err)
	}
	srv := fleet.NewServer(fl)
	srv.SimRate = *simRate
	srv.Log = logger
	srv.Start()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		// Bounded drain: in-flight requests (a probe mid-run) get a grace
		// window, but a stalled client must not hold up the shutdown path
		// the cache save depends on.
		drainCtx, cancelDrain := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancelDrain()
		httpSrv.Shutdown(drainCtx) //nolint:errcheck // exiting anyway
	}()

	fmt.Printf("bwapd: %d× machine %s fleet (tick pool width %d), policy %s, admission %s, listening on %s\n",
		*machines, *machine, *shards, *policy, *admission, *addr)
	err = httpSrv.ListenAndServe()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		// Tear the driver down before fatal flushes the span log: the clock
		// goroutine must not append spans behind the terminated array.
		cancel()
		<-drained
		srv.Stop()
		fatal(err)
	}
	// ListenAndServe returns the instant Shutdown is called; wait for the
	// drain to finish so the snapshot includes entries from requests that
	// were still in flight at the signal.
	cancel()
	<-drained
	srv.Stop()
	closeSpans()
	if *cacheFile != "" {
		if err := cache.Save(*cacheFile); err != nil {
			fatal(err)
		}
		logger.Info("saved cached placements", "entries", cache.Stats().Entries, "file", *cacheFile)
	}
}

// replay runs a recorded event log (already read into data) through a
// fresh fleet at its recorded timestamps — the daemon's own logs as input
// streams. With a cache file the fleet starts warm and repeated signatures
// run zero probes; the updated cache is saved back afterwards.
func replay(cfg fleet.Config, logPath string, data []byte, cacheFile string) error {
	streams, err := fleet.ReadTrace(data, nil)
	if err != nil {
		return err
	}
	jobs := 0
	for _, s := range streams {
		jobs += len(s.Arrival.Trace)
	}
	fl, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	if err := fl.SubmitStream(streams); err != nil {
		return err
	}
	stats, err := fl.Run()
	if err != nil {
		return err
	}
	cs := fl.Cache().Stats()
	fmt.Printf("bwapd: replayed %d jobs (%d classes) from %s\n", jobs, len(streams), logPath)
	fmt.Printf("bwapd: mean turnaround %.1fs, mean wait %.1fs, utilization %.1f%%\n",
		stats.MeanTurnaround, stats.MeanWait, 100*stats.Utilization)
	if o := fl.Observer(); o != nil && o.Turnaround().Count() > 0 {
		turn, wait := o.Turnaround(), o.QueueWait()
		fmt.Printf("bwapd: turnaround p50 %.1fs p99 %.1fs, queue wait p50 %.1fs p99 %.1fs\n",
			turn.Quantile(0.5), turn.Quantile(0.99), wait.Quantile(0.5), wait.Quantile(0.99))
	}
	fmt.Printf("bwapd: cache — hits %d, probes %d, restored %d, evictions %d, entries %d\n",
		cs.Hits, cs.Misses, cs.Restored, cs.Evictions, cs.Entries)
	if cacheFile != "" {
		if err := fl.Cache().Save(cacheFile); err != nil {
			return err
		}
		fmt.Printf("bwapd: saved %d cached placements to %s\n", fl.Cache().Stats().Entries, cacheFile)
	}
	return nil
}
