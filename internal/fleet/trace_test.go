package fleet

import (
	"bytes"
	"fmt"
	"testing"

	"bwap/internal/workload"
)

// testResolve maps the test workload names back to their specs; ReadTrace
// stores only the name, so custom specs need this caller-side table.
func testResolve(name string) (workload.Spec, error) {
	switch name {
	case "alpha", "beta":
		return testSpec(name), nil
	}
	return workload.Spec{}, fmt.Errorf("unknown test workload %q", name)
}

// TestTraceReplayReproducesLog pins the replay-loop acceptance criterion:
// reading a recorded Poisson/periodic stream back out of the JSONL log and
// resubmitting it as trace arrivals into an identically configured fleet
// reproduces the original event log bit for bit — same job numbering, same
// admission order, same placements.
func TestTraceReplayReproducesLog(t *testing.T) {
	recorded, _ := runFleet(t, testConfig(PolicyBWAP, 11), testStreams())

	streams, err := ReadTrace(recorded.LogBytes(), testResolve)
	if err != nil {
		t.Fatal(err)
	}
	// testStreams has two classes with distinct shapes; both must survive.
	if len(streams) != 2 {
		t.Fatalf("ReadTrace found %d classes, want 2", len(streams))
	}
	total := 0
	for _, s := range streams {
		if s.Arrival.Process != workload.Trace {
			t.Fatalf("class %s arrival process %q, want trace", s.Workload.Name, s.Arrival.Process)
		}
		total += len(s.Arrival.Trace)
	}
	if total != 7 {
		t.Fatalf("trace carries %d arrivals, want 7", total)
	}

	replayed, _ := runFleet(t, testConfig(PolicyBWAP, 11), streams)
	if !bytes.Equal(recorded.LogBytes(), replayed.LogBytes()) {
		t.Fatalf("trace replay diverged from the recorded log\n--- recorded ---\n%s\n--- replayed ---\n%s",
			recorded.LogBytes(), replayed.LogBytes())
	}

	// Admission order, stated explicitly (the byte equality above implies
	// it, but this is the property the scenario sells).
	recs, err := DecodeLog(replayed.LogBytes())
	if err != nil {
		t.Fatal(err)
	}
	admits := 0
	for _, r := range recs {
		if r.Type == "admit" {
			admits++
			if got := recorded.Job(r.Job); got == nil || got.Machine != r.Machine {
				t.Fatalf("admit record %+v does not match the recorded fleet's job table", r)
			}
		}
	}
	if admits != 7 {
		t.Fatalf("replay admitted %d jobs, want 7", admits)
	}
}

// TestTraceReplayShardInvariant replays a trace into a width-2 fleet: the
// trace was recorded at width 1, and the log must still come out
// bit-identical.
func TestTraceReplayShardInvariant(t *testing.T) {
	cfg := testConfig(PolicyFirstTouch, 19)
	cfg.Machines = 4
	recorded, _ := runFleet(t, cfg, testStreams())

	streams, err := ReadTrace(recorded.LogBytes(), testResolve)
	if err != nil {
		t.Fatal(err)
	}
	wide := cfg
	wide.Shards = 2
	replayed, _ := runFleet(t, wide, streams)
	if !bytes.Equal(recorded.LogBytes(), replayed.LogBytes()) {
		t.Fatal("width-2 trace replay diverged from the width-1 recording")
	}
}

func TestReadTraceErrors(t *testing.T) {
	// Unknown workload name with the default resolver.
	line := `{"seq":0,"t":0,"type":"arrive","job":1,"machine":-1,"workload":"nope","workers":1,"work_scale":1}` + "\n"
	if _, err := ReadTrace([]byte(line), nil); err == nil {
		t.Fatal("ReadTrace resolved an unknown workload")
	}
	// Pre-trace log: arrive record without workers/work_scale.
	old := `{"seq":0,"t":0,"type":"arrive","job":1,"machine":-1,"workload":"SC"}` + "\n"
	if _, err := ReadTrace([]byte(old), nil); err == nil {
		t.Fatal("ReadTrace accepted a log without job shapes")
	}
	// No arrivals at all.
	empty := `{"seq":0,"t":1,"type":"retune","machine":0,"jobs":[1]}` + "\n"
	if _, err := ReadTrace([]byte(empty), nil); err == nil {
		t.Fatal("ReadTrace accepted a log with no arrive records")
	}
	// A built-in workload resolves with the default resolver.
	sc := `{"seq":0,"t":0.5,"type":"arrive","job":1,"machine":-1,"workload":"SC","workers":2,"work_scale":0.1}` + "\n"
	streams, err := ReadTrace([]byte(sc), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 1 || streams[0].Workers != 2 || streams[0].WorkScale != 0.1 ||
		len(streams[0].Arrival.Trace) != 1 || streams[0].Arrival.Trace[0] != 0.5 {
		t.Fatalf("ReadTrace = %+v", streams)
	}
}
