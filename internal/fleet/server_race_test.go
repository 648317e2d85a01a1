package fleet

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestServerScrapeDuringChaosEngine hammers the read-only HTTP surfaces
// while a chaos-plan fleet advances under the conservative-lookahead
// engine. The exposition endpoints render off the server mutex (behind
// the observer's own lock), so this is the regression net for the
// snapshot/render split: under -race it proves scrapes never observe the
// fleet mid-advance, and without -race it still exercises the
// stalled-scraper-vs-driver interleaving.
func TestServerScrapeDuringChaosEngine(t *testing.T) {
	cfg := chaosPoolConfig(2, false)
	var spans bytes.Buffer
	cfg.Obs = NewObserver(ObserverConfig{SpanW: &spans})
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(f)
	s.SimRate = 500
	s.Tick = time.Millisecond
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Start()
	defer s.Stop()

	// A burst of jobs keeps the background driver advancing through the
	// chaos plan's drain/crash/recover windows while the scrapers run.
	for i := 0; i < 4; i++ {
		postSubmit(t, ts.URL, `{"workload":"SC","workers":2,"work_scale":0.5,"count":3}`)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/timeline?window=2", "/fleet", "/jobs", "/machines"} {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + p)
				if err != nil {
					t.Errorf("GET %s: %v", p, err)
					return
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					t.Errorf("read %s: %v", p, err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: status %d", p, resp.StatusCode)
					return
				}
			}
		}(path)
	}
	time.Sleep(200 * time.Millisecond) //bwap:wallclock let racing handlers overlap the real driver for a while
	close(stop)
	wg.Wait()
	s.Stop()

	s.mu.Lock()
	driveErr, now := s.driveErr, f.Now()
	s.mu.Unlock()
	if driveErr != nil {
		t.Fatalf("background driver failed mid-hammer: %v", driveErr)
	}
	if now <= 0 {
		t.Fatal("driver never advanced simulated time; the hammer raced nothing")
	}
	if err := f.Observer().CloseSpans(); err != nil {
		t.Fatal(err)
	}
	if spans.Len() == 0 {
		t.Fatal("no spans recorded during the chaos run")
	}
}
