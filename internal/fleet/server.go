package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"bwap/internal/workload"
)

// Server exposes a Fleet over HTTP — the bwapd daemon. The fleet itself is
// single-threaded; the server serializes all access behind one mutex, so
// concurrent submissions are safe and admission (including any tuning-
// cache probe) happens synchronously inside the POST. Simulated time is
// decoupled from wall time: a background driver advances the clock at
// SimRate simulated seconds per wall second while jobs are outstanding and
// freezes it when the fleet is idle.
//
// Endpoints:
//
//	POST /submit  {"workload":"SC","workers":2,"work_scale":0.05,"count":1}
//	              → {"ids":[1],"cache_hits":[false]}; "spec" may replace
//	              "workload" with a full custom spec object
//	GET  /status?id=N → one job
//	GET  /jobs        → every job
//	GET  /fleet       → Stats
//	GET  /machines    → per-machine MachineView slice
//	POST /drain?machine=N   → gracefully evacuate machine N (409 if not up)
//	POST /recover?machine=N → bring machine N back up (409 if already up)
//	GET  /log         → the merged JSONL event log
//	GET  /metrics     → Prometheus text exposition (404 without an observer)
//	GET  /timeline?window=W → windowed telemetry series as JSON
//	GET  /healthz     → 200 ok
//
// Every endpoint accepts exactly its listed method (GET endpoints also
// take HEAD); anything else is 405 with an Allow header.
type Server struct {
	mu    sync.Mutex
	fleet *Fleet
	// Log receives structured warnings (e.g. a background-driver failure);
	// nil falls back to slog.Default().
	Log *slog.Logger
	// driveErr is the first error the background driver hit; it is
	// reported by /healthz (503) and /fleet, since the driver itself has
	// no requester to fail.
	driveErr error

	// SimRate is simulated seconds advanced per wall second (default 100).
	SimRate float64
	// Tick is the wall interval of the background driver (default 10 ms).
	Tick time.Duration

	// lifeMu serializes Start/Stop end to end (including Stop's wait for
	// the driver to exit), so a Start racing an in-progress Stop cannot
	// spawn a second driver before the old one has observed its closed
	// stop channel. It is never taken by the driver itself, so holding it
	// across the done-wait cannot deadlock. stop/done belong to the
	// current driver goroutine and are additionally guarded by mu.
	lifeMu sync.Mutex
	stop   chan struct{}
	done   chan struct{}
}

// NewServer wraps a fleet.
func NewServer(f *Fleet) *Server {
	return &Server{fleet: f, SimRate: 100, Tick: 10 * time.Millisecond}
}

// Start launches the background clock driver. Safe to call concurrently
// with Stop; at most one driver runs at any instant.
func (s *Server) Start() {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.drive(s.stop, s.done)
}

// Stop halts the clock driver and waits for it to exit. Safe to call
// concurrently with Start; exactly one caller tears down each driver, and
// the driver is fully gone before a subsequent Start can launch another.
func (s *Server) Stop() {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
	// With the driver gone no new prefetch can be kicked; waiting out the
	// in-flight ones leaves the cache at rest, so a post-Stop snapshot
	// (bwapd's -cache-file save) sees only consumed, demand-attested
	// entries and tests sequenced after Stop see no stray goroutines.
	s.fleet.Cache().Quiesce()
}

// drive owns the channels it was started with rather than reading them
// from the struct, so a concurrent Stop+Start pair can never swap them
// under the running goroutine.
func (s *Server) drive(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(s.Tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			s.mu.Lock()
			// Freeze virtual time while idle: an empty daemon stays at a
			// reproducible clock instead of burning ticks.
			busy := s.fleet.running > 0 || len(s.fleet.events) > 0
			var failed error
			if busy {
				if err := s.fleet.Advance(s.SimRate * s.Tick.Seconds()); err != nil && s.driveErr == nil {
					s.driveErr = err
					failed = err
				}
			}
			now := s.fleet.Now()
			s.mu.Unlock()
			// Log off the lock: slog writes to stderr, and every request
			// handler contends on s.mu.
			if failed != nil {
				s.logger().Warn("background driver failed; clock frozen",
					"err", failed, "sim_time", now)
			}
		}
	}
}

// /submit bounds. The body bound caps the memory one request can make
// the decoder hold; the count bound caps how long one batch holds the
// fleet mutex, which every other handler and the clock driver wait on.
// Documented clients send batches of 1–3.
const (
	maxSubmitBody  = 1 << 20 // bytes; larger bodies get 413
	maxSubmitCount = 1024    // jobs per request; more gets 400
)

// submitRequest is the POST /submit body.
type submitRequest struct {
	// Workload names a built-in benchmark (SC, OC, ON, SP.B, FT.C).
	Workload string `json:"workload,omitempty"`
	// Spec is a full custom workload spec; overrides Workload.
	Spec *workload.Spec `json:"spec,omitempty"`
	// Workers is the per-job NUMA-node demand (default 1).
	Workers int `json:"workers,omitempty"`
	// WorkScale scales the spec's work volume (default 1).
	WorkScale float64 `json:"work_scale,omitempty"`
	// Count submits that many identical jobs (default 1, at most
	// maxSubmitCount).
	Count int `json:"count,omitempty"`
}

// submitResponse reports every job the batch put into the fleet. On a
// mid-batch failure the response carries the partial IDs and cache flags
// alongside the error — including the job whose own admission failed, if
// it was submitted: those jobs exist in the fleet, so dropping their IDs
// would strand the client.
type submitResponse struct {
	IDs       []int   `json:"ids"`
	CacheHits []bool  `json:"cache_hits"`
	SimTime   float64 `json:"sim_time"`
	Error     string  `json:"error,omitempty"`
}

// jobView is the JSON shape of one job.
type jobView struct {
	ID        int     `json:"id"`
	Workload  string  `json:"workload"`
	Workers   int     `json:"workers"`
	State     string  `json:"state"`
	Machine   int     `json:"machine"`
	Nodes     []int   `json:"nodes,omitempty"`
	Arrival   float64 `json:"arrival"`
	Admit     float64 `json:"admit"`
	Finish    float64 `json:"finish"`
	CacheHit  bool    `json:"cache_hit"`
	WorkScale float64 `json:"work_scale"`
	Attempts  int     `json:"attempts,omitempty"`
}

func viewOf(j *Job) jobView {
	v := jobView{
		ID: j.ID, Workload: j.Spec.Name, Workers: j.Workers,
		State: j.State.String(), Machine: j.Machine,
		Arrival: j.Arrival, Admit: j.Admit, Finish: j.Finish,
		CacheHit: j.CacheHit, WorkScale: j.WorkScale, Attempts: j.Attempts,
	}
	for _, n := range j.Nodes {
		v.Nodes = append(v.Nodes, int(n))
	}
	return v
}

// logger returns the server's structured logger (slog.Default when unset).
func (s *Server) logger() *slog.Logger {
	if s.Log != nil {
		return s.Log
	}
	return slog.Default()
}

// methods wraps h so only the allowed method is accepted (GET endpoints
// also take HEAD — net/http suppresses the body); anything else is 405
// with an Allow header, per RFC 9110.
func methods(allow string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != allow && !(allow == http.MethodGet && r.Method == http.MethodHead) {
			w.Header().Set("Allow", allow)
			writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("%s only", allow))
			return
		}
		h(w, r)
	}
}

// Handler returns the daemon's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/submit", methods(http.MethodPost, s.handleSubmit))
	mux.HandleFunc("/status", methods(http.MethodGet, s.handleStatus))
	mux.HandleFunc("/jobs", methods(http.MethodGet, s.handleJobs))
	mux.HandleFunc("/fleet", methods(http.MethodGet, s.handleFleet))
	mux.HandleFunc("/machines", methods(http.MethodGet, s.handleMachines))
	mux.HandleFunc("/drain", methods(http.MethodPost, s.handleDrain))
	mux.HandleFunc("/recover", methods(http.MethodPost, s.handleRecover))
	mux.HandleFunc("/log", methods(http.MethodGet, s.handleLog))
	mux.HandleFunc("/metrics", methods(http.MethodGet, s.handleMetrics))
	mux.HandleFunc("/timeline", methods(http.MethodGet, s.handleTimeline))
	mux.HandleFunc("/healthz", methods(http.MethodGet, func(w http.ResponseWriter, _ *http.Request) {
		s.mu.Lock()
		err := s.driveErr
		s.mu.Unlock()
		if err != nil {
			http.Error(w, "driver failed: "+err.Error(), http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	}))
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeErr(w, status, fmt.Errorf("bad body: %w", err))
		return
	}
	var spec workload.Spec
	switch {
	case req.Spec != nil:
		spec = *req.Spec
	case req.Workload != "":
		var err error
		spec, err = workload.ByName(req.Workload)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("need workload or spec"))
		return
	}
	// Zero means "default"; negatives are requests for something impossible
	// and rejecting them beats silently running a different job than asked.
	if req.Workers < 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("negative workers %d", req.Workers))
		return
	}
	if req.WorkScale < 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("negative work_scale %g", req.WorkScale))
		return
	}
	if req.Count < 0 || req.Count > maxSubmitCount {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("count %d outside [0, %d]", req.Count, maxSubmitCount))
		return
	}
	if req.Workers == 0 {
		req.Workers = 1
	}
	if req.WorkScale == 0 {
		req.WorkScale = 1
	}
	if req.Count == 0 {
		req.Count = 1
	}

	// The batch runs under the mutex; the response write happens after it
	// is released, so a stalled client cannot wedge the fleet (mid-batch
	// errors carry the already-admitted IDs and cache flags along).
	status := http.StatusOK
	resp := submitResponse{IDs: []int{}, CacheHits: []bool{}}
	s.mu.Lock()
	for i := 0; i < req.Count; i++ {
		job, err := s.fleet.Submit(spec, req.Workers, req.WorkScale, s.fleet.Now())
		if err != nil {
			// Backpressure is transient and retryable; invalid input is not.
			status = http.StatusBadRequest
			if errors.Is(err, ErrQueueFull) {
				status = http.StatusTooManyRequests
			}
			resp.Error = err.Error()
			break
		}
		// The job is in the fleet from here on, so its ID rides in the
		// response even if its own admission below fails.
		resp.IDs = append(resp.IDs, job.ID)
		// Admit synchronously: the arrival is due now, so ProcessDue runs
		// placement — and on a cache hit the probe is skipped, which is
		// the repeat-job latency win the cache exists for.
		procErr := s.fleet.ProcessDue()
		resp.CacheHits = append(resp.CacheHits, job.CacheHit)
		if procErr != nil {
			status = http.StatusInternalServerError
			resp.Error = procErr.Error()
			break
		}
	}
	resp.SimTime = s.fleet.Now()
	s.mu.Unlock()
	writeJSON(w, status, resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.URL.Query().Get("id"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad id: %w", err))
		return
	}
	s.mu.Lock()
	job := s.fleet.Job(id)
	var view jobView
	if job != nil {
		view = viewOf(job)
	}
	s.mu.Unlock()
	if job == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no job %d", id))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	views := make([]jobView, 0, len(s.fleet.Jobs()))
	for _, j := range s.fleet.Jobs() {
		views = append(views, viewOf(j))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleFleet(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	resp := struct {
		*Stats
		DriverError string `json:"driver_error,omitempty"`
	}{Stats: s.fleet.Stats()}
	if s.driveErr != nil {
		resp.DriverError = s.driveErr.Error()
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMachines(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	views := s.fleet.Machines()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, views)
}

// lifecycleOp parses the machine parameter and runs op under the fleet
// mutex — the shared shape of /drain and /recover. A state conflict
// (draining a down machine, recovering an up one) maps to 409, an unknown
// machine to 404, and success returns the machine's new view.
func (s *Server) lifecycleOp(w http.ResponseWriter, r *http.Request, op func(int) error) {
	id, err := strconv.Atoi(r.URL.Query().Get("machine"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad machine: %w", err))
		return
	}
	s.mu.Lock()
	if _, err := s.fleet.machineByID(id); err != nil {
		s.mu.Unlock()
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if err := op(id); err != nil {
		s.mu.Unlock()
		writeErr(w, http.StatusConflict, err)
		return
	}
	view := s.fleet.Machines()[id]
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.lifecycleOp(w, r, s.fleet.Drain)
}

func (s *Server) handleRecover(w http.ResponseWriter, r *http.Request) {
	s.lifecycleOp(w, r, s.fleet.Recover)
}

func (s *Server) handleLog(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	data := append([]byte(nil), s.fleet.LogBytes()...)
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(data) //nolint:errcheck // client went away
}

// handleMetrics renders the telemetry registry as Prometheus text
// exposition format 0.0.4. Only the gauge sync — the one step that reads
// fleet state — runs under the server mutex; the registry render and the
// client write happen outside it (behind the observer's own lock), so a
// slow scraper or a large exposition cannot stall the simulation driver.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	o := s.fleet.Observer()
	if o == nil {
		writeErr(w, http.StatusNotFound, ErrNoObserver)
		return
	}
	s.mu.Lock()
	o.syncGauges(s.fleet)
	s.mu.Unlock()
	var b bytes.Buffer
	if err := o.WriteMetrics(&b); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(b.Bytes()) //nolint:errcheck // client went away
}

// handleTimeline renders the windowed telemetry series; ?window=W merges
// base windows up to roughly W simulated seconds each.
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	var window float64
	if q := r.URL.Query().Get("window"); q != "" {
		v, err := strconv.ParseFloat(q, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad window %q", q))
			return
		}
		window = v
	}
	o := s.fleet.Observer()
	if o == nil {
		writeErr(w, http.StatusNotFound, ErrNoObserver)
		return
	}
	// Only the clock capture needs the fleet; the series render runs off
	// the server mutex, behind the observer's own lock.
	s.mu.Lock()
	o.SyncSimTime(s.fleet)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, o.TimelineSnapshot(window))
}
