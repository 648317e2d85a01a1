package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"bwap/internal/obs"
	"bwap/internal/sim"
	"bwap/internal/workload"
)

// obsFaultConfig is the chaos-flavored telemetry fixture: the 8-machine
// config at the given pool width plus a crash (retry path) and a drain
// (evacuation path), so an observed run exercises every record type.
func obsFaultConfig(width int) Config {
	cfg := poolConfig(PolicyBWAP, AdmitMostFree, width, 23)
	cfg.Faults = &FaultPlan{Faults: []FaultSpec{
		{Kind: FaultCrash, Machines: []int{0}, At: 1.5, RecoverAfter: 3},
		{Kind: FaultDrain, Machines: []int{2}, At: 2, RecoverAfter: 4},
	}}
	return cfg
}

// obsResolve maps denseStreams workload names back to specs for ReadTrace.
func obsResolve(name string) (workload.Spec, error) {
	switch name {
	case "alpha", "beta":
		return testSpec(name), nil
	case "modest":
		m := testSpec("modest")
		m.ReadGBs, m.WriteGBs = 3, 0.5
		return m, nil
	}
	return workload.Spec{}, fmt.Errorf("unknown workload %q", name)
}

// metricsOf renders /metrics the way its handler does: sync the gauges
// from the fleet, then render the observer's registry.
func metricsOf(t *testing.T, f *Fleet) []byte {
	t.Helper()
	o := f.Observer()
	if o == nil {
		t.Fatal(ErrNoObserver)
	}
	o.syncGauges(f)
	var b bytes.Buffer
	if err := o.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// timelineJSON renders /timeline the way its handler does: capture the
// fleet clock, then snapshot the observer's timeline.
func timelineJSON(t *testing.T, f *Fleet, window float64) []byte {
	t.Helper()
	o := f.Observer()
	if o == nil {
		t.Fatal(ErrNoObserver)
	}
	o.SyncSimTime(f)
	data, err := json.Marshal(o.TimelineSnapshot(window))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTelemetryDoesNotPerturbLog pins the observer's core invariant under
// both a baseline and the bwap placement policy: attaching telemetry
// (spans included) leaves the merged JSONL event log byte-identical. The
// observer consumes records and never produces them.
func TestTelemetryDoesNotPerturbLog(t *testing.T) {
	for _, policy := range []string{PolicyFirstTouch, PolicyBWAP} {
		cfg := obsFaultConfig(2)
		cfg.Policy = policy
		bare, _ := runFleet(t, cfg, denseStreams())

		var spanBuf bytes.Buffer
		cfg.Obs = NewObserver(ObserverConfig{SpanW: &spanBuf})
		observed, stats := runFleet(t, cfg, denseStreams())

		if !bytes.Equal(bare.LogBytes(), observed.LogBytes()) {
			t.Fatalf("%s: telemetry perturbed the event log\n--- bare ---\n%s\n--- observed ---\n%s",
				policy, bare.LogBytes(), observed.LogBytes())
		}
		// The observer must actually have seen the run it did not perturb:
		// one turnaround sample per completed job.
		o := observed.Observer()
		if o.Turnaround().Count() != uint64(stats.Completed) || o.QueueWait().Count() == 0 {
			t.Fatalf("%s: observer saw %d completions (stats say %d) and %d waits",
				policy, o.Turnaround().Count(), stats.Completed, o.QueueWait().Count())
		}
		if err := o.CloseSpans(); err != nil {
			t.Fatal(err)
		}
		var events []map[string]any
		if err := json.Unmarshal(spanBuf.Bytes(), &events); err != nil {
			t.Fatalf("%s: span log invalid: %v", policy, err)
		}
		if len(events) == 0 {
			t.Fatalf("%s: no spans emitted", policy)
		}
	}
}

// TestMetricsReplayByteIdentical pins the exposition determinism claim:
// replaying a recorded trace through identically configured fleets at
// every pool width reproduces the /metrics text, the timeline JSON and the
// span log byte for byte.
func TestMetricsReplayByteIdentical(t *testing.T) {
	cfg := obsFaultConfig(1)
	var baseSpans bytes.Buffer
	cfg.Obs = NewObserver(ObserverConfig{SpanW: &baseSpans})
	recorded, _ := runFleet(t, cfg, denseStreams())
	if err := recorded.Observer().CloseSpans(); err != nil {
		t.Fatal(err)
	}
	baseMetrics := metricsOf(t, recorded)
	baseTimeline := timelineJSON(t, recorded, 2)
	if err := obs.Lint(baseMetrics); err != nil {
		t.Fatalf("live exposition failed lint: %v", err)
	}

	streams, err := ReadTrace(recorded.LogBytes(), obsResolve)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range poolWidths {
		rcfg := obsFaultConfig(width)
		var spans bytes.Buffer
		rcfg.Obs = NewObserver(ObserverConfig{SpanW: &spans})
		rf, _ := runFleet(t, rcfg, streams)
		if err := rf.Observer().CloseSpans(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(recorded.LogBytes(), rf.LogBytes()) {
			t.Fatalf("width=%d: replay diverged from recording", width)
		}
		if got := metricsOf(t, rf); !bytes.Equal(baseMetrics, got) {
			t.Fatalf("width=%d changed /metrics\n--- base ---\n%s\n--- got ---\n%s",
				width, baseMetrics, got)
		}
		if got := timelineJSON(t, rf, 2); !bytes.Equal(baseTimeline, got) {
			t.Fatalf("width=%d changed the timeline\n--- base ---\n%s\n--- got ---\n%s",
				width, baseTimeline, got)
		}
		if !bytes.Equal(baseSpans.Bytes(), spans.Bytes()) {
			t.Fatalf("width=%d changed the span log", width)
		}
	}
}

// TestObserverRecordAllocationFree pins the hot-path contract: consuming
// records for already-tracked jobs (spans disabled) must not allocate —
// the observer rides the event path without adding GC pressure.
func TestObserverRecordAllocationFree(t *testing.T) {
	o := NewObserver(ObserverConfig{})
	o.record(Record{T: 0, Type: "arrive", Job: 1})
	hit := true
	admit := Record{Type: "admit", Job: 1, Machine: 0, Workload: "w", CacheHit: &hit}
	complete := Record{Type: "complete", Job: 1, Machine: 0, Workload: "w", Elapsed: 1}
	now := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		admit.T, complete.T = now+1, now+2
		o.record(admit)
		o.record(complete)
		o.record(Record{T: now + 2, Type: "retune", Machine: 0})
		now += 0.5
	})
	if allocs != 0 {
		t.Fatalf("observer record path allocates %.1f per run, want 0", allocs)
	}
}

// TestServerMethodChecks verifies every endpoint rejects the wrong method
// with 405 and an Allow header naming the right one.
func TestServerMethodChecks(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct{ path, allow string }{
		{"/submit", "POST"},
		{"/status", "GET"},
		{"/jobs", "GET"},
		{"/fleet", "GET"},
		{"/machines", "GET"},
		{"/drain", "POST"},
		{"/recover", "POST"},
		{"/log", "GET"},
		{"/metrics", "GET"},
		{"/timeline", "GET"},
		{"/healthz", "GET"},
	}
	client := ts.Client()
	for _, c := range cases {
		wrong := http.MethodPost
		if c.allow == http.MethodPost {
			wrong = http.MethodGet
		}
		req, err := http.NewRequest(wrong, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", wrong, c.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != c.allow {
			t.Errorf("%s %s Allow = %q, want %q", wrong, c.path, got, c.allow)
		}
	}
	// DELETE on a GET endpoint is 405 too — the guard is not POST-specific.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/fleet", nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /fleet = %d, want 405", resp.StatusCode)
	}
}

// scrapeJobGauges pulls bwap_jobs_total and the per-state bwap_jobs gauges
// out of one exposition.
func scrapeJobGauges(t *testing.T, body []byte) (total float64, byState map[string]float64) {
	t.Helper()
	byState = map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		switch {
		case strings.HasPrefix(line, "bwap_jobs_total "):
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, "bwap_jobs_total "), 64)
			if err != nil {
				t.Fatalf("bad bwap_jobs_total line %q: %v", line, err)
			}
			total = v
		case strings.HasPrefix(line, `bwap_jobs{state="`):
			rest := strings.TrimPrefix(line, `bwap_jobs{state="`)
			i := strings.Index(rest, `"`)
			j := strings.LastIndex(rest, " ")
			if i < 0 || j < i {
				t.Fatalf("bad bwap_jobs line %q", line)
			}
			v, err := strconv.ParseFloat(rest[j+1:], 64)
			if err != nil {
				t.Fatalf("bad bwap_jobs line %q: %v", line, err)
			}
			byState[rest[:i]] = v
		}
	}
	return total, byState
}

// TestServerConservationDuringChaos drives a faulty fleet through the
// daemon and checks job conservation from the outside: at every /metrics
// observation the per-state gauges must partition bwap_jobs_total — no
// job is lost or double-counted mid-crash. Each scrape is also linted
// against the exposition format.
func TestServerConservationDuringChaos(t *testing.T) {
	cfg := Config{
		Machines:   4,
		Shards:     2,
		NewMachine: smallMachine,
		SimCfg:     sim.Config{Seed: 29},
		Policy:     PolicyFirstTouch,
		Seed:       29,
		Faults: &FaultPlan{Faults: []FaultSpec{
			{Kind: FaultCrash, Machines: []int{0}, At: 2, RecoverAfter: 3},
			{Kind: FaultDrain, Machines: []int{1}, At: 3, RecoverAfter: 3},
		}},
	}
	cfg.Obs = NewObserver(ObserverConfig{})
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(f)
	s.SimRate = 500
	ts := httptest.NewServer(s.Handler())
	s.Start()
	t.Cleanup(func() { ts.Close(); s.Stop() })

	body := `{"spec":{"Name":"chaosjob","ReadGBs":10,"WriteGBs":1,"PrivateFrac":0.3,
"LatencySensitivity":0.2,"SyncFactor":0.1,"WorkGB":400,"SharedGB":0.25,"PrivateGBPerNode":0.1},
"workers":2,"work_scale":0.3,"count":10}`
	submitted := postSubmit(t, ts.URL, body)
	want := float64(len(submitted.IDs))

	deadline := time.Now().Add(30 * time.Second) //bwap:wallclock polling deadline for the real background driver
	observations := 0
	for {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics: %d %v", resp.StatusCode, err)
		}
		if err := obs.Lint(data); err != nil {
			t.Fatalf("live exposition failed lint: %v\n%s", err, data)
		}
		total, byState := scrapeJobGauges(t, data)
		var sum float64
		for _, v := range byState {
			sum += v
		}
		if sum != total {
			t.Fatalf("job conservation violated: states sum to %g, total %g (%v)", sum, total, byState)
		}
		if total != want {
			t.Fatalf("jobs_total = %g, want %g", total, want)
		}
		observations++
		if byState["done"]+byState["failed"] == total {
			break
		}
		if time.Now().After(deadline) { //bwap:wallclock polling deadline for the real background driver
			t.Fatalf("fleet did not drain: %v", byState)
		}
		time.Sleep(5 * time.Millisecond) //bwap:wallclock poll interval against the real driver goroutine
	}
	if observations < 2 {
		t.Logf("only %d observations before drain (fast run)", observations)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := f.Conservation(); err != nil {
		t.Fatal(err)
	}
}

// TestServerMetricsAndTimelineEndpoints smoke-tests the telemetry surface
// over HTTP, including the no-observer 404 and bad-window 400 paths.
func TestServerMetricsAndTimelineEndpoints(t *testing.T) {
	// newTestServer has no observer: telemetry endpoints must 404.
	_, bare := newTestServer(t)
	for _, path := range []string{"/metrics", "/timeline"} {
		resp, err := http.Get(bare.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s without observer = %d, want 404", path, resp.StatusCode)
		}
	}

	cfg := Config{
		Machines:   2,
		NewMachine: smallMachine,
		SimCfg:     sim.Config{Seed: 31},
		Policy:     PolicyFirstTouch,
		Seed:       31,
		Obs:        NewObserver(ObserverConfig{}),
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(f)
	s.SimRate = 1000
	ts := httptest.NewServer(s.Handler())
	s.Start()
	t.Cleanup(func() { ts.Close(); s.Stop() })

	postSubmit(t, ts.URL, `{"spec":{"Name":"tljob","ReadGBs":10,"WriteGBs":1,"PrivateFrac":0.3,
"LatencySensitivity":0.2,"SyncFactor":0.1,"WorkGB":400,"SharedGB":0.25,"PrivateGBPerNode":0.1},
"workers":2,"work_scale":0.2,"count":3}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	if err := obs.Lint(data); err != nil {
		t.Fatalf("exposition failed lint: %v", err)
	}
	if !strings.Contains(string(data), "bwap_job_arrivals_total 3") {
		t.Fatalf("exposition missing arrivals:\n%s", data)
	}

	var snap TimelineSnapshot
	getJSON(t, ts.URL+"/timeline?window=2", &snap)
	if snap.Window != 2 || snap.BaseWindow != 1 {
		t.Fatalf("timeline window = %g/%g, want 2/1", snap.Window, snap.BaseWindow)
	}
	if len(snap.Series["arrivals"]) == 0 {
		t.Fatalf("timeline has no arrivals series: %+v", snap.Series)
	}

	badResp, err := http.Get(ts.URL + "/timeline?window=nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, badResp.Body) //nolint:errcheck
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad window = %d, want 400", badResp.StatusCode)
	}
}
