package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"bwap/internal/fleet"
	"bwap/internal/sim"
	"bwap/internal/topology"
	"bwap/internal/workload"
)

// The daemon workload: bwapd's handler on a loopback listener with 8
// Machine-B machines, the observer on and the default SimRate/Tick driver.
// Its users follow the repository's documented bwapd client — the README's
// curl session and the CI smoke test: a session posts one batch /submit of
// a paper benchmark with count 2 or 3 and work_scale 0.02 or 0.05, reads
// one of its jobs back through /status and polls /fleet. Sessions are
// independent users, so they arrive as an open loop, Poisson at 50/s
// (about 150 requests/s, sized on a 2-vCPU host below the knee where
// latency climbs). Each session's submit is timed from its scheduled
// send; its reads are sent as soon as the previous reply is in, as a
// script would send them. Three shares have no documented source and are
// assumptions: one session in fifty submits a novel spec instead of a
// named benchmark (the cache miss that probes inline), half the sessions
// ask for 1 worker rather than the documented 2 (so both cached worker
// counts are hit), and a scraper reads /metrics once a second.
const (
	daemonMachines = 8
	daemonSessions = 50.0 // arrivals per second
	daemonNovel    = 0.02 // share of sessions submitting a novel spec
	daemonScrape   = time.Second
	// daemonSetups is how many daemons a run starts, in daemonBursts
	// bursts; setup_s is their median. On a shared VM the host's speed
	// switches between a fast and a slow mode that lasts from a fraction
	// of a second to minutes, so the set-ups are spread over the run.
	daemonSetups = 51
	daemonBursts = 6
	// daemonDrainJobs are submitted straight to the fleet after a traced
	// window, so Fleet.Submit has spans on the daemon's own state.
	daemonDrainJobs = 100
)

// daemonCounts and daemonWorkScales are the documented batch sizes and
// work scales (CI smoke test, README).
var (
	daemonCounts     = []int{2, 3}
	daemonWorkScales = []float64{0.02, 0.05}
)

// Request kinds. A session opens with reqSubmit or reqNovel and follows up
// with reqStatus and reqFleet; reqMetrics is the scraper.
const (
	reqSubmit = iota
	reqNovel
	reqStatus
	reqFleet
	reqMetrics
)

// daemonReq is one scheduled arrival: a session or a scrape.
type daemonReq struct {
	at    time.Duration // send time, from the start of the window
	kind  int           // reqSubmit, reqNovel or reqMetrics
	body  []byte        // the session's submit body
	count int           // jobs in the session's batch
}

type submitBody struct {
	Workload  string         `json:"workload,omitempty"`
	Spec      *workload.Spec `json:"spec,omitempty"`
	Workers   int            `json:"workers"`
	WorkScale float64        `json:"work_scale"`
	Count     int            `json:"count"`
}

// daemonSchedule generates the seeded schedule for the window: Poisson
// session arrivals with their submit bodies, and the scrapes.
func daemonSchedule(seed uint64, seconds float64) ([]daemonReq, error) {
	r := workload.NewRand(seed)
	// Twice the expected count, so the stream outlasts the window.
	arrivals := workload.ArrivalSpec{Process: workload.Poisson, Rate: daemonSessions, Count: int(2*daemonSessions*seconds) + 100}
	times, err := arrivals.Times(r.Uint64())
	if err != nil {
		return nil, err
	}
	benches := workload.Benchmarks()
	var out []daemonReq
	for i, t := range times {
		if t >= seconds {
			break
		}
		spec := benches[r.Uint64()%uint64(len(benches))]
		body := submitBody{Workload: spec.Name, Workers: 1 + int(r.Uint64()%2),
			WorkScale: daemonWorkScales[r.Uint64()%2], Count: daemonCounts[r.Uint64()%2]}
		req := daemonReq{at: time.Duration(t * float64(time.Second)), kind: reqSubmit, count: body.Count}
		if r.Float64() < daemonNovel {
			req.kind = reqNovel
			spec.Name = fmt.Sprintf("%s~%d", spec.Name, i)
			spec.ReadGBs *= 0.8 + 0.4*r.Float64()
			body.Workload, body.Spec = "", &spec
		}
		if req.body, err = json.Marshal(body); err != nil {
			return nil, err
		}
		out = append(out, req)
	}
	for t := daemonScrape; t.Seconds() < seconds; t += daemonScrape {
		out = append(out, daemonReq{at: t, kind: reqMetrics})
	}
	slices.SortStableFunc(out, func(a, b daemonReq) int { return cmp.Compare(a.at, b.at) })
	return out, nil
}

// daemon is one running bwapd: fleet, server driver and HTTP listener.
type daemon struct {
	f      *fleet.Fleet
	srv    *fleet.Server
	hs     *http.Server
	served chan error
	url    string
	sink   *logSink
	// handlerOverhead accumulates the tracing middleware's own cost.
	mu              sync.Mutex
	handlerOverhead time.Duration
	handlerTotal    time.Duration
}

// startDaemon builds the fleet with a warmed tuning cache, starts the
// clock driver and serves the handler on a loopback port. A traced run
// wraps the handler in a span-recording middleware.
func startDaemon(opts options, tr *tracer) (*daemon, error) {
	tc := fleet.NewTuningCache(sim.Config{Seed: opts.seed}, 0, opts.seed)
	if err := warmCache(tc, tr, topology.MachineB(), workload.Benchmarks(), []int{1, 2}); err != nil {
		return nil, err
	}
	d := &daemon{sink: newLogSink(), served: make(chan error, 1)}
	var err error
	d.f, err = fleet.New(fleet.Config{
		Machines: daemonMachines,
		Shards:   min(2, runtime.GOMAXPROCS(0)),
		SimCfg:   sim.Config{Seed: opts.seed},
		Seed:     opts.seed,
		Cache:    tc,
		Obs:      fleet.NewObserver(fleet.ObserverConfig{}),
		LogW:     d.sink,
	})
	if err != nil {
		return nil, err
	}
	d.srv = fleet.NewServer(d.f)
	h := d.srv.Handler()
	if opts.wrapHandler != nil {
		h = opts.wrapHandler(h)
	}
	if tr != nil {
		h = d.traceHandler(tr, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	d.srv.Start()
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// traceHandler records each scheduled request's handler time as a span
// whose id is the request's schedule index, and totals its own bookkeeping
// cost. Untagged requests — health checks, clock reads and the /status
// sweep after the window — pass through unrecorded.
func (d *daemon) traceHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id, err := strconv.ParseInt(req.Header.Get("X-Perfbench-Req"), 10, 64)
		if err != nil {
			next.ServeHTTP(w, req)
			return
		}
		name := "server.read"
		switch req.URL.Path {
		case "/submit":
			name = "server.submit"
		case "/metrics":
			name = "server.metrics"
		}
		start := time.Now()
		next.ServeHTTP(w, req)
		end := time.Now()
		tr.record(name, id, start, end)
		cost := time.Since(end)
		d.mu.Lock()
		d.handlerOverhead += cost
		d.handlerTotal += end.Sub(start) + cost
		d.mu.Unlock()
	})
}

// stop shuts the listener and the clock driver down and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.srv.Stop()
	return err
}

// sample is one completed request.
type sample struct {
	kind          int
	tag           int     // the request's X-Perfbench-Req id
	latency, late float64 // seconds from the scheduled send; send lag
	transport     float64 // seconds from the actual send to the response read
	ok            bool
	// status and detail describe a failed request.
	status, detail string
}

// client drives the open loop with at most GOMAXPROCS connections.
type client struct {
	d     *daemon
	http  *http.Client
	mu    sync.Mutex
	acked []int // job ids of successful submits, in ack order
}

func newClient(d *daemon) *client {
	n := runtime.GOMAXPROCS(0)
	return &client{d: d, http: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true},
	}}
}

// do sends one request and reads the whole response.
func (c *client) do(method, path string, body []byte, tag int) (int, []byte, error) {
	req, err := http.NewRequest(method, c.d.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if tag > 0 {
		req.Header.Set("X-Perfbench-Req", strconv.Itoa(tag))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// call sends one tagged request due at sched and checks its response with
// valid, which sees only 200 replies.
func (c *client) call(kind int, method, path string, body []byte, tag int, sched time.Time,
	valid func([]byte) error) sample {
	sent := time.Now()
	s := sample{kind: kind, tag: tag, late: sent.Sub(sched).Seconds()}
	code, data, err := c.do(method, path, body, tag)
	end := time.Now()
	s.latency, s.transport = end.Sub(sched).Seconds(), end.Sub(sent).Seconds()
	s.status = strconv.Itoa(code)
	switch {
	case err != nil:
		s.detail = err.Error()
	case code != http.StatusOK:
		s.detail = string(bytes.TrimSpace(data))
	default:
		if err := valid(data); err != nil {
			s.detail = err.Error()
		} else {
			s.ok = true
		}
	}
	return s
}

// session runs schedule entry i. A scrape is one GET /metrics. A session
// posts its batch, then reads the batch's first job through /status and
// polls /fleet, each as soon as the previous reply is in; a failed submit
// ends it. Each request is tagged 3i+1, 3i+2 or 3i+3.
func (c *client) session(i int, req daemonReq, sched time.Time) []sample {
	if req.kind == reqMetrics {
		return []sample{c.call(reqMetrics, http.MethodGet, "/metrics", nil, 3*i+1, sched, func(data []byte) error {
			if len(data) == 0 {
				return errors.New("empty exposition")
			}
			return nil
		})}
	}
	var ids []int
	sub := c.call(req.kind, http.MethodPost, "/submit", req.body, 3*i+1, sched, func(data []byte) error {
		var resp struct{ IDs []int }
		if err := json.Unmarshal(data, &resp); err != nil || len(resp.IDs) != req.count {
			return fmt.Errorf("submit of %d jobs answered %q", req.count, data)
		}
		ids = resp.IDs
		return nil
	})
	if !sub.ok {
		return []sample{sub}
	}
	c.mu.Lock()
	c.acked = append(c.acked, ids...)
	c.mu.Unlock()
	status := c.call(reqStatus, http.MethodGet, "/status?id="+strconv.Itoa(ids[0]), nil, 3*i+2, time.Now(),
		func(data []byte) error {
			var view struct{ ID int }
			if json.Unmarshal(data, &view) != nil || view.ID != ids[0] {
				return fmt.Errorf("status of %d answered %q", ids[0], data)
			}
			return nil
		})
	poll := c.call(reqFleet, http.MethodGet, "/fleet", nil, 3*i+3, time.Now(), func(data []byte) error {
		if !json.Valid(data) {
			return fmt.Errorf("fleet answered %q", data)
		}
		return nil
	})
	return []sample{sub, status, poll}
}

// spinWindow is how long before a send the dispatcher stops sleeping and
// spins: the runtime's timers wake up to a millisecond late, which would
// otherwise add the generator's own lateness to every latency.
const spinWindow = time.Millisecond

func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Until(t) > 0 {
		runtime.Gosched()
	}
}

// simNow reads the daemon's simulated clock through GET /fleet.
func (c *client) simNow() (float64, error) {
	code, data, err := c.do(http.MethodGet, "/fleet", nil, 0)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("GET /fleet: %d", code)
	}
	var st struct {
		SimTime float64 `json:"sim_time"`
	}
	err = json.Unmarshal(data, &st)
	return st.SimTime, err
}

// burstSize is how many of the daemonSetups set-ups burst k of
// daemonBursts runs.
func burstSize(k int) int {
	return daemonSetups*(k+1)/daemonBursts - daemonSetups*k/daemonBursts
}

// startStop times n set-ups, each torn down at once.
func startStop(opts options, n int) ([]float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		d, err := startDaemon(opts, nil)
		if err != nil {
			return nil, err
		}
		secs = append(secs, since(t0))
		if err := d.stop(); err != nil {
			return nil, err
		}
	}
	return secs, nil
}

func runDaemon(opts options) (*result, error) {
	r := newResult()
	var tr *tracer
	if opts.trace {
		tr = newTracer()
		r.tr = tr
	}
	schedule, err := daemonSchedule(opts.seed, opts.seconds)
	if err != nil {
		return nil, err
	}
	// daemonSetups set-ups in daemonBursts bursts spread over the run — one
	// before the window, one after it and the rest at even breaks in it,
	// where the load pauses — so setup_s samples the host across the run,
	// as op_ms does. The last set-up of the first burst is the daemon under
	// test; a traced run spans its cache warm-up, whose every call is a
	// miss.
	setups, err := startStop(opts, burstSize(0)-1)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	d, err := startDaemon(opts, tr)
	if err != nil {
		return nil, err
	}
	setups = append(setups, since(t0))

	c := newClient(d)
	for i := 0; i < 2*runtime.GOMAXPROCS(0); i++ { // open the connections
		if code, _, err := c.do(http.MethodGet, "/healthz", nil, 0); err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("healthz: %d %v", code, err)
		}
	}
	cacheBefore := d.f.Cache().Stats()
	sim0, err := c.simNow()
	if err != nil {
		return nil, err
	}
	before := readRuntime()
	var breakAlloc, breakGCs float64 // the breaks' share of the runtime counters
	sessions := make([][]sample, len(schedule))
	var wg sync.WaitGroup
	wallStart := time.Now()
	start, seg := wallStart, 0
	for i, req := range schedule {
		if next := min(int(req.at.Seconds()/opts.seconds*(daemonBursts-1)), daemonBursts-2); next > seg {
			// A break: the sessions in flight finish, the next burst of
			// set-ups runs, and the rest of the schedule moves later by the
			// length of the break.
			paused := time.Now()
			wg.Wait()
			b0 := readRuntime()
			n := 0
			for ; seg < next; seg++ {
				n += burstSize(seg + 1)
			}
			more, err := startStop(opts, n)
			if err != nil {
				return nil, err
			}
			setups = append(setups, more...)
			runtime.GC()
			a, g := runtimeDelta(b0)
			breakAlloc, breakGCs = breakAlloc+a, breakGCs+g
			start = start.Add(time.Since(paused))
		}
		sched := start.Add(req.at)
		waitUntil(sched)
		wg.Add(1)
		go func(i int, req daemonReq) {
			defer wg.Done()
			sessions[i] = c.session(i, req, sched)
		}(i, req)
	}
	wg.Wait()
	window := since(start)
	allocMB, gcs := runtimeDelta(before)
	allocMB, gcs = allocMB-breakAlloc, gcs-breakGCs
	heap := liveHeapMB()
	sim1, err := c.simNow()
	if err != nil {
		return nil, err
	}
	// The driver runs through the breaks, so the simulated rate is taken
	// over the whole wall time.
	wall := since(wallStart)
	cacheAfter := d.f.Cache().Stats()

	var samples []sample
	for _, ss := range sessions {
		samples = append(samples, ss...)
	}
	var submits, reads, late []float64
	kinds := map[int]int{}
	for _, s := range samples {
		r.check(s.ok, "daemon: request kind %d: HTTP %s: %s", s.kind, s.status, s.detail)
		kinds[s.kind]++
		switch s.kind {
		case reqSubmit, reqNovel:
			submits = append(submits, s.latency)
			late = append(late, s.late)
		case reqMetrics:
			reads = append(reads, s.latency)
			late = append(late, s.late)
		default:
			reads = append(reads, s.latency)
		}
	}
	// Every acknowledged id must resolve via /status (outside the window).
	for _, id := range c.acked {
		code, data, err := c.do(http.MethodGet, "/status?id="+strconv.Itoa(id), nil, 0)
		var view struct{ ID int }
		ok := err == nil && code == http.StatusOK && json.Unmarshal(data, &view) == nil && view.ID == id
		r.check(ok, "daemon: acknowledged job %d does not resolve: %d %v", id, code, err)
	}
	if err := d.stop(); err != nil {
		return nil, err
	}

	// The server is stopped: the fleet is ours. A traced run submits a
	// batch straight to it and drains in driver-sized Advance steps; an
	// untraced run drains with Run. Either way conservation must hold.
	extra := 0
	if tr != nil {
		benches := workload.Benchmarks()
		for i := 0; i < daemonDrainJobs; i++ {
			s := tr.open("fleet.Submit", int64(i), -1)
			_, err := d.f.Submit(benches[i%len(benches)], 1+i%2, daemonWorkScales[i%2], d.f.Now())
			tr.close(s)
			if err != nil {
				return nil, err
			}
			extra++
		}
		step := d.srv.SimRate * d.srv.Tick.Seconds()
		for st := d.f.Stats(); st.Completed+st.FailedJobs < st.Jobs; st = d.f.Stats() {
			s := tr.open("fleet.Advance", 0, -1)
			err := d.f.Advance(step)
			tr.close(s)
			if err != nil {
				return nil, err
			}
		}
	}
	final, err := d.f.Run()
	if err != nil {
		return nil, err
	}
	r.check(d.f.Conservation() == nil, "daemon: conservation after drain: %v", d.f.Conservation())
	r.check(final.Jobs == len(c.acked)+extra, "daemon: fleet holds %d jobs, %d acknowledged", final.Jobs, len(c.acked)+extra)
	r.check(final.Completed+final.FailedJobs == final.Jobs, "daemon: %d of %d jobs unfinished after drain",
		final.Jobs-final.Completed-final.FailedJobs, final.Jobs)

	after, err := startStop(opts, daemonSetups-len(setups))
	if err != nil {
		return nil, err
	}
	setups = append(setups, after...)

	simRate := (sim1 - sim0) / wall
	lag := 1 - simRate/d.srv.SimRate
	r.e2e["setup_s"] = median(setups)
	r.e2e["op_ms"] = median(submits) * 1e3
	r.e2e["heap_live_mb"] = heap
	r.note("daemon: %d requests in %.2f s (%d sessions: %d submits, %d novel, %d status, %d fleet; %d metrics scrapes), %d jobs, error_ratio %g",
		len(samples), window, kinds[reqSubmit]+kinds[reqNovel], kinds[reqSubmit], kinds[reqNovel], kinds[reqStatus],
		kinds[reqFleet], kinds[reqMetrics], len(c.acked), float64(r.failed)/float64(max(1, r.attempted)))
	r.note("setup_s p25/p50/p75 %.3f/%.3f/%.3f ms over %d set-ups in %d bursts",
		quantile(setups, 0.25)*1e3, median(setups)*1e3, quantile(setups, 0.75)*1e3, len(setups), daemonBursts)
	r.note("submit_p50_ms %.4f ms", median(submits)*1e3)
	r.note("submit_p99_ms %.4f ms%s", quantile(submits, 0.99)*1e3, tailNote(len(submits)))
	r.note("read_p50_ms %.4f ms", median(reads)*1e3)
	r.note("read_p99_ms %.4f ms%s", quantile(reads, 0.99)*1e3, tailNote(len(reads)))
	// The documented jobs last about 50 ms of wall time, so the fleet is
	// sometimes idle and the driver freezes the clock: the lag counts those
	// freezes as well as the driver falling behind.
	r.note("daemon: sim_s_per_s %.2f s/s (SimRate %g, lag %.4f incl. idle freezes), late p50 %.3f ms p99 %.3f ms, utilization %.3f, cache hits %d misses %d in window",
		simRate, d.srv.SimRate, lag, median(late)*1e3, quantile(late, 0.99)*1e3, final.Utilization,
		cacheAfter.Hits-cacheBefore.Hits, cacheAfter.Misses-cacheBefore.Misses)
	r.note("digest daemon.log sha256:%s (%d records; not reproducible: admissions follow wall-clock arrival)",
		d.sink.digest(), d.sink.records)
	if !opts.trace {
		return r, nil
	}

	handler := map[int64]float64{}
	for _, name := range []string{"server.submit", "server.read", "server.metrics"} {
		ids, durs := tr.named(name)
		for i, id := range ids {
			handler[id] = durs[i]
		}
	}
	var overhead []float64
	for _, s := range samples {
		if h, ok := handler[int64(s.tag)]; ok {
			overhead = append(overhead, s.transport-h)
		}
	}
	serverReads := append(tr.seconds("server.read"), tr.seconds("server.metrics")...)
	r.layer["server.submit_p50_us"] = median(tr.seconds("server.submit")) * 1e6
	r.layer["server.submit_p99_us"] = quantile(tr.seconds("server.submit"), 0.99) * 1e6
	r.layer["server.read_p50_us"] = median(serverReads) * 1e6
	r.layer["server.read_p99_us"] = quantile(serverReads, 0.99) * 1e6
	r.layer["server.metrics_p50_us"] = median(tr.seconds("server.metrics")) * 1e6
	r.layer["http.overhead_p50_us"] = median(overhead) * 1e6
	r.layer["http.submit_p99_ms"] = quantile(submits, 0.99) * 1e3
	r.layer["http.read_p50_ms"] = median(reads) * 1e3
	r.layer["http.read_p99_ms"] = quantile(reads, 0.99) * 1e3
	r.layer["fleet.sim_s_per_s"] = simRate
	r.layer["fleet.sim_lag_ratio"] = lag
	advanced := float64(len(tr.seconds("fleet.Advance"))) * d.srv.SimRate * d.srv.Tick.Seconds()
	r.layer["fleet.advance_ms_per_sim_s"] = tr.total("fleet.Advance") / math.Max(advanced, 1e-9) * 1e3
	r.layer["fleet.submit_us"] = mean(tr.seconds("fleet.Submit")) * 1e6
	r.layer["fleet.advance_batches"] = float64(final.AdvanceBatches)
	r.layer["fleet.window_ticks_mean"] = float64(final.AdvanceTicks) / float64(max(1, final.AdvanceBatches))
	r.layer["fleet.log_records"] = float64(d.sink.records)
	r.layer["fleet.log_bytes"] = float64(d.sink.bytes)
	simStats(r, final)
	hits, misses := cacheAfter.Hits-cacheBefore.Hits, cacheAfter.Misses-cacheBefore.Misses
	r.layer["cache.hits"] = float64(hits)
	r.layer["cache.misses"] = float64(misses)
	r.layer["cache.hit_ratio"] = float64(hits) / float64(max(1, hits+misses))
	r.layer["cache.probes"] = float64(misses) // the cache runs one probe per miss
	// A hit sweep over the warmed keys gives the hit cost.
	if err := warmCache(d.f.Cache(), tr, topology.MachineB(), workload.Benchmarks(), []int{1, 2}); err != nil {
		return nil, err
	}
	recordCacheSpans(r, tr)
	r.layer["sim.tick_solves"] = float64(final.TickSolves)
	r.layer["sim.tick_replays"] = float64(final.TickReplays)
	r.layer["sim.replay_fraction"] = float64(final.TickReplays) / float64(max(1, final.TickSolves+final.TickReplays))
	r.layer["go.alloc_mb"] = allocMB / float64(len(samples))
	r.layer["go.gc_cycles"] = gcs / float64(len(samples))
	r.layer["loadgen.achieved_rps"] = float64(len(samples)) / window
	r.layer["loadgen.late_p99_ms"] = quantile(late, 0.99) * 1e3
	d.mu.Lock()
	r.layer["trace.overhead_ratio"] = d.handlerOverhead.Seconds() / math.Max(d.handlerTotal.Seconds(), 1e-12)
	d.mu.Unlock()

	mb := topology.MachineB()
	in := layerInputs{machines: []machineCase{{mb, sim.Config{Seed: opts.seed}}}, specs: workload.Benchmarks(), workers: []int{1, 2}}
	if err := measureSim(r, tr, in); err != nil {
		return nil, err
	}
	if err := measureMemsys(r, tr, in); err != nil {
		return nil, err
	}
	canon, err := canonicalSetup(tr, in.machines, in.workers)
	if err != nil {
		return nil, err
	}
	r.layer["core.canonical_ms"] = canon * 1e3
	r.skip("process CPU on the daemon includes the in-process load generator (its HTTP client and the spin before each send), which cannot be separated from bwapd's",
		"go.cpu_ms")
	r.skip("the daemon places through the tuning cache; mm and Algorithm 1 run inside its probes",
		"mm.mbind_weighted_us", "mm.fractions_us", "core.interleave_us")
	r.skip("the daemon runs no paper artifact", "experiments.fig1a_s", "experiments.fig1b_s",
		"experiments.table1_s", "experiments.fig2_s", "experiments.fig3_s", "experiments.table2_s",
		"experiments.fig4_s", "experiments.overhead_s")
	return r, nil
}
