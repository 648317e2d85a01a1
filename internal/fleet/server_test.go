package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bwap/internal/sim"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Machines:   1,
		NewMachine: smallMachine,
		SimCfg:     sim.Config{Seed: 21},
		Policy:     PolicyBWAP,
		Seed:       21,
	}
	// Full-volume probes: on the small test machine a default-scale probe
	// finishes in well under a millisecond, which puts the miss-vs-hit
	// latency comparison inside scheduler noise on a loaded single-core
	// runner. Full volume keeps the probe an order of magnitude above the
	// noise floor.
	cfg.Cache = NewTuningCache(cfg.SimCfg, 1, cfg.Seed)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(f)
	s.SimRate = 2000 // drain quickly in wall time
	ts := httptest.NewServer(s.Handler())
	s.Start()
	t.Cleanup(func() { ts.Close(); s.Stop() })
	return s, ts
}

func postSubmit(t *testing.T, url string, body string) submitResponse {
	t.Helper()
	resp, err := http.Post(url+"/submit", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out submitResponse
	if resp.StatusCode != http.StatusOK {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e) //nolint:errcheck
		t.Fatalf("submit: %d %v", resp.StatusCode, e)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// jobBody is a fast custom spec submitted through the full HTTP path.
const jobBody = `{"spec":{"Name":"httpjob","ReadGBs":10,"WriteGBs":1,"PrivateFrac":0.3,
"LatencySensitivity":0.2,"SyncFactor":0.1,"WorkGB":400,"SharedGB":0.25,"PrivateGBPerNode":0.1},
"workers":4,"work_scale":0.05}`

// TestServerConcurrentSubmissions hammers /submit from many goroutines:
// every submission must succeed, exactly one may probe (the rest hit the
// tuning cache — repeat jobs skip re-profiling), and the stream must drain.
func TestServerConcurrentSubmissions(t *testing.T) {
	_, ts := newTestServer(t)
	const n = 6
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			postSubmit(t, ts.URL, jobBody)
		}()
	}
	wg.Wait()

	// All jobs take the whole 4-node machine, so they run serially and
	// every admission sees co-runner count 0: one cache key, one probe.
	deadline := time.Now().Add(30 * time.Second) //bwap:wallclock polling deadline for the real background driver
	var stats Stats
	for {
		getJSON(t, ts.URL+"/fleet", &stats)
		if stats.Completed == n {
			break
		}
		if time.Now().After(deadline) { //bwap:wallclock polling deadline for the real background driver
			t.Fatalf("stream did not drain: %+v", stats)
		}
		time.Sleep(20 * time.Millisecond) //bwap:wallclock poll interval against the real driver goroutine
	}
	if stats.CacheMisses != 1 {
		t.Fatalf("CacheMisses = %d, want 1 (repeat jobs must not re-profile)", stats.CacheMisses)
	}
	if stats.CacheHits < n-1 {
		t.Fatalf("CacheHits = %d, want >= %d", stats.CacheHits, n-1)
	}

	var views []jobView
	getJSON(t, ts.URL+"/jobs", &views)
	if len(views) != n {
		t.Fatalf("/jobs returned %d, want %d", len(views), n)
	}
	hits := 0
	for _, v := range views {
		if v.State != "done" {
			t.Fatalf("job %d state %q", v.ID, v.State)
		}
		if v.CacheHit {
			hits++
		}
	}
	if hits != n-1 {
		t.Fatalf("%d jobs hit the cache, want %d", hits, n-1)
	}
}

// TestServerShardedConcurrentLoad is the stats-race audit test: submits
// stream in from several goroutines while pollers hammer every read
// endpoint — /fleet and /machines read counters the advancing scheduler
// and its tick pool mutate, so any counter not guarded by the server
// mutex plus the per-window barrier is a -race failure here (CI runs this
// package with -race).
func TestServerShardedConcurrentLoad(t *testing.T) {
	cfg := Config{
		Machines:   4,
		Shards:     2,
		NewMachine: smallMachine,
		SimCfg:     sim.Config{Seed: 33},
		Policy:     PolicyBWAP,
		Seed:       33,
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(f)
	s.SimRate = 2000
	ts := httptest.NewServer(s.Handler())
	s.Start()
	t.Cleanup(func() { ts.Close(); s.Stop() })

	const body = `{"spec":{"Name":"loadjob","ReadGBs":10,"WriteGBs":1,"PrivateFrac":0.3,
"LatencySensitivity":0.2,"SyncFactor":0.1,"WorkGB":400,"SharedGB":0.25,"PrivateGBPerNode":0.1},
"workers":2,"work_scale":0.05}`
	const jobs = 8

	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for _, path := range []string{"/fleet", "/machines", "/jobs", "/log", "/healthz", "/status?id=1"} {
		pollers.Add(1)
		go func(path string) {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + path)
				if err == nil {
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
				}
			}
		}(path)
	}

	var submitters sync.WaitGroup
	for i := 0; i < 4; i++ {
		submitters.Add(1)
		go func() {
			defer submitters.Done()
			for j := 0; j < jobs/4; j++ {
				postSubmit(t, ts.URL, body)
			}
		}()
	}
	submitters.Wait()

	deadline := time.Now().Add(30 * time.Second) //bwap:wallclock polling deadline for the real background driver
	var stats Stats
	for {
		getJSON(t, ts.URL+"/fleet", &stats)
		if stats.Completed == jobs {
			break
		}
		if time.Now().After(deadline) { //bwap:wallclock polling deadline for the real background driver
			t.Fatalf("stream did not drain under load: %+v", stats)
		}
		time.Sleep(20 * time.Millisecond) //bwap:wallclock poll interval against the real driver goroutine
	}
	close(stop)
	pollers.Wait()
}

// TestServerEndpoints covers status, log and validation paths.
func TestServerEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	out := postSubmit(t, ts.URL, jobBody)
	if len(out.IDs) != 1 || out.IDs[0] != 1 {
		t.Fatalf("submit response %+v", out)
	}

	var v jobView
	getJSON(t, ts.URL+"/status?id=1", &v)
	if v.ID != 1 || v.Workload != "httpjob" {
		t.Fatalf("status = %+v", v)
	}
	if v.State != "running" && v.State != "done" {
		t.Fatalf("job state %q immediately after synchronous admission", v.State)
	}

	if resp, _ := http.Get(ts.URL + "/status?id=99"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job returned %d", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/submit"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /submit returned %d", resp.StatusCode)
	}
	if resp, _ := http.Post(ts.URL+"/submit", "application/json",
		bytes.NewReader([]byte(`{}`))); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty submit returned %d", resp.StatusCode)
	}

	// Wait for completion, then the log must decode and contain the job.
	deadline := time.Now().Add(30 * time.Second) //bwap:wallclock polling deadline for the real background driver
	for {
		getJSON(t, ts.URL+"/status?id=1", &v)
		if v.State == "done" {
			break
		}
		if time.Now().After(deadline) { //bwap:wallclock polling deadline for the real background driver
			t.Fatal("job never finished")
		}
		time.Sleep(20 * time.Millisecond) //bwap:wallclock poll interval against the real driver goroutine
	}
	resp, err := http.Get(ts.URL + "/log")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	recs, err := DecodeLog(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]bool{}
	for _, r := range recs {
		types[r.Type] = true
	}
	for _, want := range []string{"arrive", "admit", "complete"} {
		if !types[want] {
			t.Fatalf("log missing %q records: %v", want, types)
		}
	}
}

// TestServerSubmitValidation pins the /submit input contract: zero values
// select defaults, negative workers/work_scale/count are rejected with 400
// instead of being silently coerced into a different job than asked for,
// and a batch above maxSubmitCount or a body above maxSubmitBody is
// refused before it can hold the fleet mutex.
func TestServerSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"negative workers", `{"workload":"SC","workers":-1}`, http.StatusBadRequest},
		{"negative work_scale", `{"workload":"SC","work_scale":-0.5}`, http.StatusBadRequest},
		{"negative count", `{"workload":"SC","count":-2}`, http.StatusBadRequest},
		{"count above cap", `{"workload":"SC","count":100000000}`, http.StatusBadRequest},
		{"oversized body", `{"workload":"SC","pad":"` + strings.Repeat("x", maxSubmitBody) + `"}`, http.StatusRequestEntityTooLarge},
		{"unknown workload", `{"workload":"nope"}`, http.StatusBadRequest},
		{"no workload", `{}`, http.StatusBadRequest},
		{"bad json", `{`, http.StatusBadRequest},
		{"zero values default", `{"workload":"SC","workers":0,"work_scale":0,"count":0}`, http.StatusOK},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/submit", "application/json", bytes.NewReader([]byte(c.body)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.status {
				body, _ := io.ReadAll(resp.Body)
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, c.status, body)
			}
		})
	}
}

// TestServerPartialBatchSubmit is the lost-IDs regression test: a batch
// that fails mid-way (here on job 4, via MaxQueue capacity exhaustion)
// must return the IDs and cache flags of the jobs already admitted into
// the fleet alongside the error — those jobs exist and will run.
func TestServerPartialBatchSubmit(t *testing.T) {
	cfg := Config{
		Machines:   1,
		NewMachine: smallMachine,
		SimCfg:     sim.Config{Seed: 4},
		Policy:     PolicyFirstTouch,
		Seed:       4,
		MaxQueue:   2,
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(f)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	// The clock driver stays off: job 1 occupies the whole machine and
	// never finishes, so jobs 2-3 queue and job 4 hits the bound.
	body := `{"spec":{"Name":"batch","ReadGBs":10,"WriteGBs":1,"PrivateFrac":0.3,
"LatencySensitivity":0.2,"SyncFactor":0.1,"WorkGB":400,"SharedGB":0.25,"PrivateGBPerNode":0.1},
"workers":4,"work_scale":1,"count":10}`
	resp, err := http.Post(ts.URL+"/submit", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity batch returned %d, want 429 (retryable backpressure)", resp.StatusCode)
	}
	var out submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Error == "" {
		t.Fatalf("partial response carries no error: %+v", out)
	}
	if len(out.IDs) != 3 || len(out.CacheHits) != 3 {
		t.Fatalf("partial response lost admitted jobs: ids=%v cache_hits=%v, want 3 of each", out.IDs, out.CacheHits)
	}
	for i, id := range out.IDs {
		if id != i+1 {
			t.Fatalf("partial IDs = %v, want [1 2 3]", out.IDs)
		}
		if f.Job(id) == nil {
			t.Fatalf("returned job %d not in the fleet", id)
		}
	}
	// The failed submission must not have entered the fleet.
	if got := len(f.Jobs()); got != 3 {
		t.Fatalf("fleet holds %d jobs, want 3", got)
	}
}

// TestMaxQueueIgnoresPendingStream pins the backpressure semantics:
// MaxQueue bounds the arrived-but-unadmitted queue, not future arrivals,
// so a pre-submitted stream longer than the bound (the replay path) is
// accepted and drains normally.
func TestMaxQueueIgnoresPendingStream(t *testing.T) {
	cfg := testConfig(PolicyFirstTouch, 6)
	cfg.MaxQueue = 1
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SubmitStream(testStreams()); err != nil {
		t.Fatalf("pre-submitted stream rejected by MaxQueue: %v", err)
	}
	stats, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 7 {
		t.Fatalf("completed %d/7", stats.Completed)
	}
}

// TestServerStartStopRace hammers the driver lifecycle from many
// goroutines; run under -race (CI does) this pins the mutex-guarded
// stop/done handover. Every interleaving must end with at most one driver,
// and the final Stop must leave none.
func TestServerStartStopRace(t *testing.T) {
	cfg := testConfig(PolicyFirstTouch, 9)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(f)
	s.Tick = time.Millisecond
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Start()
				s.Stop()
			}
		}()
	}
	wg.Wait()
	s.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop != nil || s.done != nil {
		t.Fatal("driver channels survived the final Stop")
	}
}

// TestServerSubmitLatencyDrop measures the placement-latency effect the
// tuning cache exists for: the first submission of a workload runs the
// profiling probe inline, the second skips it. The hit must be at least
// several times faster; the generous ratio keeps slow-CI noise out.
func TestServerSubmitLatencyDrop(t *testing.T) {
	_, ts := newTestServer(t)
	start := time.Now() //bwap:wallclock measures real handler latency to prove the cache hit is cheap
	first := postSubmit(t, ts.URL, jobBody)
	missLatency := time.Since(start) //bwap:wallclock measures real handler latency to prove the cache hit is cheap
	// Let the first job drain so the repeat admission happens synchronously
	// inside the second POST instead of queueing behind a busy machine.
	deadline := time.Now().Add(30 * time.Second) //bwap:wallclock polling deadline for the real background driver
	for {
		var v jobView
		getJSON(t, ts.URL+"/status?id=1", &v)
		if v.State == "done" {
			break
		}
		if time.Now().After(deadline) { //bwap:wallclock polling deadline for the real background driver
			t.Fatal("first job never finished")
		}
		time.Sleep(10 * time.Millisecond) //bwap:wallclock poll interval against the real driver goroutine
	}
	start = time.Now() //bwap:wallclock measures real handler latency to prove the cache hit is cheap
	second := postSubmit(t, ts.URL, jobBody)
	hitLatency := time.Since(start) //bwap:wallclock measures real handler latency to prove the cache hit is cheap
	if first.CacheHits[0] || !second.CacheHits[0] {
		t.Fatalf("cache flags: first=%v second=%v", first.CacheHits[0], second.CacheHits[0])
	}
	if hitLatency > missLatency {
		t.Fatalf("cache hit submission (%v) slower than probing one (%v)", hitLatency, missLatency)
	}
	t.Logf("miss=%v hit=%v (%.1fx)", missLatency, hitLatency, float64(missLatency)/float64(hitLatency))
}

// TestServerRejectsOversizedSpec pins the size bound on submitted jobs: a
// spec whose scaled work volume or footprint is beyond maxSpecScale times
// the largest built-in benchmark's is refused with 400 before it enters
// the fleet, the fleet still accounts for every job, and the next valid
// job is admitted onto the machine the oversized one would have held.
func TestServerRejectsOversizedSpec(t *testing.T) {
	f, err := New(Config{
		Machines:   1,
		NewMachine: smallMachine,
		SimCfg:     sim.Config{Seed: 5},
		Policy:     PolicyFirstTouch,
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(f).Handler())
	t.Cleanup(ts.Close)
	spec := func(workGB, sharedGB, privateGB string) string {
		return `{"spec":{"Name":"big","ReadGBs":10,"WriteGBs":1,"PrivateFrac":0.3,"WorkGB":` + workGB +
			`,"SharedGB":` + sharedGB + `,"PrivateGBPerNode":` + privateGB + `},"workers":4`
	}
	for _, c := range []struct{ name, body string }{
		{"work volume", spec("1e300", "0.25", "0.1") + `}`},
		{"work scale", `{"workload":"OC","workers":4,"work_scale":1e6}`},
		{"shared segment", spec("400", "1e6", "0.1") + `}`},
		{"private segment", spec("400", "0.25", "1e6") + `}`},
	} {
		resp, err := http.Post(ts.URL+"/submit", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "size bound") {
			t.Fatalf("%s: status %d (%s), want 400 naming the size bound", c.name, resp.StatusCode, body)
		}
		if n := len(f.Jobs()); n != 0 {
			t.Fatalf("%s: rejected job entered the fleet (%d jobs)", c.name, n)
		}
		if err := f.Conservation(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	out := postSubmit(t, ts.URL, spec("400", "0.25", "0.1")+`}`)
	if len(out.IDs) != 1 {
		t.Fatalf("valid job after the rejections: ids %v", out.IDs)
	}
	if j := f.Job(out.IDs[0]); j.State != JobRunning {
		t.Fatalf("valid job after the rejections is %v, want running", j.State)
	}
	if err := f.Conservation(); err != nil {
		t.Fatal(err)
	}
}

// TestServerRejectsNeverFinishingSpec pins the two jobs the size bound
// let through that never finish: a compute-bound workload and a spec
// whose work volume is in bounds but whose demand is so low that its
// expected run time is not. Both are refused with 400 before they enter
// the fleet, and the next valid job is admitted onto the one machine they
// would have held for good.
func TestServerRejectsNeverFinishingSpec(t *testing.T) {
	f, err := New(Config{
		Machines:   1,
		NewMachine: smallMachine,
		SimCfg:     sim.Config{Seed: 5},
		Policy:     PolicyFirstTouch,
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(f).Handler())
	t.Cleanup(ts.Close)
	for _, c := range []struct{ name, body, says string }{
		{"compute-bound", `{"workload":"Swaptions"}`, "compute-bound"},
		{"starved demand", `{"spec":{"Name":"slow","ReadGBs":1e-9,"PrivateFrac":0.3,"WorkGB":400,` +
			`"SharedGB":0.25,"PrivateGBPerNode":0.1},"workers":4}`, "expected run time"},
	} {
		resp, err := http.Post(ts.URL+"/submit", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), c.says) {
			t.Fatalf("%s: status %d (%s), want 400 naming the %s", c.name, resp.StatusCode, body, c.says)
		}
		if n := len(f.Jobs()); n != 0 {
			t.Fatalf("%s: rejected job entered the fleet (%d jobs)", c.name, n)
		}
		if err := f.Conservation(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	out := postSubmit(t, ts.URL, `{"workload":"SC","workers":4}`)
	if len(out.IDs) != 1 {
		t.Fatalf("valid job after the rejections: ids %v", out.IDs)
	}
	if j := f.Job(out.IDs[0]); j.State != JobRunning {
		t.Fatalf("valid job after the rejections is %v, want running", j.State)
	}
	if err := f.Conservation(); err != nil {
		t.Fatal(err)
	}
}
