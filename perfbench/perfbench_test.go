package main

import (
	"bytes"
	"io"
	"net/http"
	"reflect"
	"testing"
	"time"
)

// spin busy-waits for d: unlike time.Sleep, whose wake-up is rounded to
// the runtime's timer resolution, it adds close to exactly d.
func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}

type slowWriter struct {
	w     io.Writer
	delay time.Duration
}

func (s slowWriter) Write(p []byte) (int, error) {
	spin(s.delay)
	return s.w.Write(p)
}

// TestAttributionChaos delays every event-log write at the chaos fleet's
// log sink, a seam the benchmark owns. The delay lands inside
// Fleet.Advance and Run, so the scheduler's per-layer cost must rise and
// the end-to-end figures must worsen with it. The delay is sized from the
// undelayed run to add about half a pass, whatever the host's speed.
func TestAttributionChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the chaos workload twice")
	}
	base := options{seed: 1, seconds: 1, trace: true}
	b, err := runChaos(base)
	if err != nil {
		t.Fatal(err)
	}
	delay := time.Duration(0.5 * b.e2e["op_ms"] * 1e6 / b.layer["fleet.log_records"])
	slow := base
	slow.wrapLog = func(w io.Writer) io.Writer { return slowWriter{w, delay} }
	s, err := runChaos(slow)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*result{b, s} {
		if r.failed > 0 {
			t.Fatalf("chaos checks failed: %v", r.problems)
		}
	}
	if got, was := s.layer["fleet.advance_ms_per_sim_s"], b.layer["fleet.advance_ms_per_sim_s"]; got < was*1.2 {
		t.Errorf("fleet.advance_ms_per_sim_s %.4f with a %v delay per record, %.4f without: the layer metric missed it",
			got, delay, was)
	}
	if got, was := s.layer["fleet.sim_s_per_s"], b.layer["fleet.sim_s_per_s"]; got > was/1.2 {
		t.Errorf("sim_s_per_s %.1f with the delay, %.1f without: the end-to-end figure missed it", got, was)
	}
	if got, was := s.e2e["op_ms"], b.e2e["op_ms"]; got < was*1.2 {
		t.Errorf("op_ms %.1f with the delay, %.1f without", got, was)
	}
}

// TestAttributionDaemon delays every request in a middleware inside the
// tracing one: handler time must rise by about the delay, and so must the
// client's submit latency.
func TestAttributionDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the daemon workload twice")
	}
	const delay = 2 * time.Millisecond
	base := options{seed: 1, seconds: 2, trace: true}
	slow := base
	slow.wrapHandler = func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(delay)
			h.ServeHTTP(w, r)
		})
	}
	b, err := runDaemon(base)
	if err != nil {
		t.Fatal(err)
	}
	s, err := runDaemon(slow)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*result{b, s} {
		if r.failed > 0 {
			t.Fatalf("daemon checks failed: %v", r.problems)
		}
	}
	want := float64(delay.Microseconds())
	if got, was := s.layer["server.submit_p50_us"], b.layer["server.submit_p50_us"]; got-was < 0.8*want {
		t.Errorf("server.submit_p50_us %.0f with a %v delay, %.0f without", got, delay, was)
	}
	if got, was := s.e2e["op_ms"]*1e3, b.e2e["op_ms"]*1e3; got-was < 0.8*want {
		t.Errorf("submit p50 %.0f us with a %v delay, %.0f us without", got, delay, was)
	}
}

// TestInputsSeeded: the generated inputs are a function of the seed.
func TestInputsSeeded(t *testing.T) {
	if !reflect.DeepEqual(chaosStream(7), chaosStream(7)) || reflect.DeepEqual(chaosStream(7), chaosStream(8)) {
		t.Error("chaos stream is not a function of the seed")
	}
	if !reflect.DeepEqual(chaosFaults(7), chaosFaults(7)) {
		t.Error("fault plan is not a function of the seed")
	}
	a, err := daemonSchedule(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := daemonSchedule(7, 5)
	c, _ := daemonSchedule(8, 5)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Error("daemon schedule is not a function of the seed")
	}
	novel := 0
	for _, r := range a {
		if r.kind == reqNovel {
			novel++
			if !bytes.Contains(r.body, []byte(`"spec"`)) {
				t.Errorf("novel submit without a spec: %s", r.body)
			}
		}
	}
	if novel == 0 {
		t.Error("no novel-spec submits in five seconds of schedule")
	}
}
