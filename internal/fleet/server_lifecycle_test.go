package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"bwap/internal/sim"
)

// newLifecycleServer boots a 2-machine, width-2 server for the
// drain/recover endpoint tests.
func newLifecycleServer(t *testing.T) *httptest.Server {
	t.Helper()
	f, err := New(Config{
		Machines:   2,
		Shards:     2,
		NewMachine: smallMachine,
		SimCfg:     sim.Config{Seed: 27},
		Policy:     PolicyBWAP,
		Seed:       27,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(f)
	s.SimRate = 2000
	ts := httptest.NewServer(s.Handler())
	s.Start()
	t.Cleanup(func() { ts.Close(); s.Stop() })
	return ts
}

// lifecyclePost hits a lifecycle endpoint and returns the status code plus
// the decoded machine view (valid only on 200).
func lifecyclePost(t *testing.T, url string) (int, MachineView) {
	t.Helper()
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view MachineView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, view
}

// TestServerLifecycleEndpoints walks the /machines, /drain and /recover
// status-code contract: 405 on wrong method, 400 on a garbled id, 404 on
// an unknown machine, 409 on a state conflict, and machine views on
// success.
func TestServerLifecycleEndpoints(t *testing.T) {
	ts := newLifecycleServer(t)

	var views []MachineView
	getJSON(t, ts.URL+"/machines", &views)
	if len(views) != 2 || views[0].State != "up" || views[1].State != "up" {
		t.Fatalf("/machines = %+v, want two up machines", views)
	}
	if views[1].ID != 1 || views[1].FreeNodes != views[1].Nodes {
		t.Fatalf("machine 1 view %+v", views[1])
	}

	if resp, err := http.Get(ts.URL + "/drain?machine=0"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /drain = %d, want 405", resp.StatusCode)
		}
	}
	if code, _ := lifecyclePost(t, ts.URL+"/drain?machine=banana"); code != http.StatusBadRequest {
		t.Fatalf("drain banana = %d, want 400", code)
	}
	if code, _ := lifecyclePost(t, ts.URL+"/drain?machine=9"); code != http.StatusNotFound {
		t.Fatalf("drain unknown machine = %d, want 404", code)
	}

	code, view := lifecyclePost(t, ts.URL+"/drain?machine=0")
	if code != http.StatusOK || view.State != "drained" {
		t.Fatalf("drain = %d %+v, want 200 drained", code, view)
	}
	if code, _ := lifecyclePost(t, ts.URL+"/drain?machine=0"); code != http.StatusConflict {
		t.Fatalf("double drain = %d, want 409", code)
	}
	if code, _ := lifecyclePost(t, ts.URL+"/recover?machine=1"); code != http.StatusConflict {
		t.Fatalf("recover of an up machine = %d, want 409", code)
	}

	code, view = lifecyclePost(t, ts.URL+"/recover?machine=0")
	if code != http.StatusOK || view.State != "up" {
		t.Fatalf("recover = %d %+v, want 200 up", code, view)
	}

	// The fleet view carries the lifecycle counters.
	var stats Stats
	getJSON(t, ts.URL+"/fleet", &stats)
	if stats.MachinesUp != 2 {
		t.Fatalf("MachinesUp = %d after recover, want 2", stats.MachinesUp)
	}
}

// TestServerLifecycleChurnUnderLoad is the -race audit for the lifecycle
// paths: jobs stream in over HTTP while machine 1 is drained and recovered
// in a tight loop and pollers read /machines and /fleet — all against the
// live driver. Evacuation, backfill and the machine-state reads must be
// fully serialized with the advancing scheduler; any unguarded state is a
// -race failure here. Every job must still complete: drains are graceful,
// so churn may slow the stream but never lose a job.
func TestServerLifecycleChurnUnderLoad(t *testing.T) {
	ts := newLifecycleServer(t)

	const body = `{"spec":{"Name":"churnjob","ReadGBs":10,"WriteGBs":1,"PrivateFrac":0.3,
"LatencySensitivity":0.2,"SyncFactor":0.1,"WorkGB":400,"SharedGB":0.25,"PrivateGBPerNode":0.1},
"workers":2,"work_scale":0.05}`
	const jobs = 8

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// 409s are expected: the loop races itself and the scheduler.
			if code, _ := lifecyclePost(t, ts.URL+"/drain?machine=1"); code == http.StatusOK {
				time.Sleep(time.Millisecond) //bwap:wallclock poll interval against the real driver goroutine
				lifecyclePost(t, ts.URL+"/recover?machine=1")
			}
		}
	}()
	var pollers sync.WaitGroup
	for _, path := range []string{"/machines", "/fleet"} {
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
			t.Fatalf("stream did not drain under churn: %+v", stats)
		}
		time.Sleep(20 * time.Millisecond) //bwap:wallclock poll interval against the real driver goroutine
	}
	close(stop)
	churn.Wait()
	pollers.Wait()

	if stats.FailedJobs != 0 {
		t.Fatalf("graceful drains failed %d jobs: %+v", stats.FailedJobs, stats)
	}
	// Leave the fleet healthy; a trailing drain may have left machine 1
	// down (recover may 409 if the churn loop already brought it back).
	lifecyclePost(t, ts.URL+"/recover?machine=1")
	var views []MachineView
	getJSON(t, ts.URL+"/machines", &views)
	if views[1].State != "up" {
		t.Fatalf("machine 1 ended %q, want up", views[1].State)
	}
}
