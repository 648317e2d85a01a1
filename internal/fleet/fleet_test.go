package fleet

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"bwap/internal/sched"
	"bwap/internal/sim"
	"bwap/internal/topology"
	"bwap/internal/workload"
)

// testSpec is a modest streaming job: finishes in a few simulated seconds
// at WorkScale 0.1 on the small test machines.
func testSpec(name string) workload.Spec {
	return workload.Spec{
		Name: name, ReadGBs: 10, WriteGBs: 1, PrivateFrac: 0.3,
		LatencySensitivity: 0.2, SyncFactor: 0.1,
		WorkGB: 400, SharedGB: 0.25, PrivateGBPerNode: 0.1,
	}
}

func smallMachine(int) *topology.Machine { return topology.Symmetric(4, 4, 40, 10) }

func testConfig(policy string, seed uint64) Config {
	return Config{
		Machines:   2,
		NewMachine: smallMachine,
		SimCfg:     sim.Config{Seed: seed},
		Policy:     policy,
		Seed:       seed,
	}
}

func testStreams() []StreamSpec {
	return []StreamSpec{
		{
			Workload: testSpec("alpha"),
			Arrival:  workload.ArrivalSpec{Process: workload.Poisson, Rate: 0.05, Count: 4},
			Workers:  2, WorkScale: 0.1,
		},
		{
			Workload: testSpec("beta"),
			Arrival:  workload.ArrivalSpec{Process: workload.Periodic, Rate: 0.04, Start: 5, Count: 3},
			Workers:  1, WorkScale: 0.1,
		},
	}
}

func runFleet(t *testing.T, cfg Config, streams []StreamSpec) (*Fleet, *Stats) {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SubmitStream(streams); err != nil {
		t.Fatal(err)
	}
	stats, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	return f, stats
}

// TestSubmitStreamMergeOrder: the merged stream numbers jobs by arrival
// time, and classes that share an exact timestamp keep class order.
func TestSubmitStreamMergeOrder(t *testing.T) {
	f, err := New(testConfig(PolicyFirstTouch, 1))
	if err != nil {
		t.Fatal(err)
	}
	trace := func(ts ...float64) workload.ArrivalSpec {
		return workload.ArrivalSpec{Process: workload.Trace, Trace: ts}
	}
	err = f.SubmitStream([]StreamSpec{
		{Workload: testSpec("alpha"), Arrival: trace(2, 1, 3, 2), Workers: 1, WorkScale: 0.1},
		{Workload: testSpec("beta"), Arrival: trace(3, 0.5, 2), Workers: 1, WorkScale: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, j := range f.Jobs() {
		got = append(got, fmt.Sprintf("%s@%g", j.Spec.Name, j.Arrival))
	}
	want := []string{"beta@0.5", "alpha@1", "alpha@2", "alpha@2", "beta@2", "alpha@3", "beta@3"}
	if !slices.Equal(got, want) {
		t.Fatalf("merged order %v, want %v", got, want)
	}
}

// TestFleetDeterministicReplay pins the tentpole acceptance criterion:
// same seed + same job stream => bit-identical JSONL event log.
func TestFleetDeterministicReplay(t *testing.T) {
	f1, s1 := runFleet(t, testConfig(PolicyBWAP, 11), testStreams())
	f2, s2 := runFleet(t, testConfig(PolicyBWAP, 11), testStreams())
	if !bytes.Equal(f1.LogBytes(), f2.LogBytes()) {
		t.Fatalf("same seed produced different logs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			f1.LogBytes(), f2.LogBytes())
	}
	if *s1 != *s2 {
		t.Fatalf("same seed produced different stats: %+v vs %+v", s1, s2)
	}

	f3, _ := runFleet(t, testConfig(PolicyBWAP, 12), testStreams())
	if bytes.Equal(f1.LogBytes(), f3.LogBytes()) {
		t.Fatal("different seeds produced identical logs; the arrival noise is not wired through")
	}
}

// TestFleetLogStructure decodes the replay log and checks the causal
// ordering contract: every job arrives before it is admitted, admits
// before it completes, and sequence numbers are dense.
func TestFleetLogStructure(t *testing.T) {
	f, stats := runFleet(t, testConfig(PolicyBWAP, 3), testStreams())
	recs, err := DecodeLog(f.LogBytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty event log")
	}
	if stats.LogRecords != len(recs) {
		t.Fatalf("stats says %d records, log has %d", stats.LogRecords, len(recs))
	}
	phase := map[int]string{} // job -> last record type
	lastT := 0.0
	for i, r := range recs {
		if r.Seq != i {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
		if r.T < lastT-1e-9 && r.Type != "complete" {
			// Completions may be logged marginally earlier than the tick
			// that discovered them (interpolated finish times); everything
			// else is monotone.
			t.Fatalf("record %d (%s) at t=%.4f precedes previous t=%.4f", i, r.Type, r.T, lastT)
		}
		if r.T > lastT {
			lastT = r.T
		}
		switch r.Type {
		case "schema":
			if i != 0 || r.Version != LogSchemaVersion {
				t.Fatalf("schema record %d version %d; want line 0, version %d", i, r.Version, LogSchemaVersion)
			}
		case "drain", "crash", "recover", "machine-add":
			t.Fatalf("lifecycle record %q in a fault-free run", r.Type)
		case "retry", "fail":
			t.Fatalf("retry record %q in a fault-free run", r.Type)
		case "arrive":
			if phase[r.Job] != "" {
				t.Fatalf("job %d arrived twice", r.Job)
			}
			phase[r.Job] = "arrive"
		case "queue":
			if phase[r.Job] != "arrive" {
				t.Fatalf("job %d queued from state %q", r.Job, phase[r.Job])
			}
			phase[r.Job] = "queue"
		case "admit":
			if p := phase[r.Job]; p != "arrive" && p != "queue" {
				t.Fatalf("job %d admitted from state %q", r.Job, p)
			}
			if r.Machine < 0 || len(r.Nodes) == 0 {
				t.Fatalf("admit record without machine/nodes: %+v", r)
			}
			phase[r.Job] = "admit"
		case "complete":
			if phase[r.Job] != "admit" {
				t.Fatalf("job %d completed from state %q", r.Job, phase[r.Job])
			}
			phase[r.Job] = "complete"
		case "retune":
			if r.Machine < 0 || len(r.Jobs) == 0 {
				t.Fatalf("retune record without machine/jobs: %+v", r)
			}
		default:
			t.Fatalf("unknown record type %q", r.Type)
		}
	}
	total := len(f.Jobs())
	if total != 7 {
		t.Fatalf("submitted %d jobs, want 7", total)
	}
	for id := 1; id <= total; id++ {
		if phase[id] != "complete" {
			t.Fatalf("job %d ended in state %q", id, phase[id])
		}
	}
	if stats.Completed != total || stats.Running != 0 || stats.Queued != 0 || stats.Pending != 0 {
		t.Fatalf("final stats: %+v", stats)
	}
	if stats.Utilization <= 0 || stats.Utilization > 1 {
		t.Fatalf("utilization %.3f out of (0,1]", stats.Utilization)
	}
	if stats.ThroughputJobsPerSec <= 0 {
		t.Fatalf("throughput %.4f", stats.ThroughputJobsPerSec)
	}
}

// TestTuningCacheSkipsReprofiling pins the cache acceptance criterion: the
// second identical job must not re-profile.
func TestTuningCacheSkipsReprofiling(t *testing.T) {
	cfg := testConfig(PolicyBWAP, 7)
	cfg.Machines = 1
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two identical jobs, far enough apart that they never co-run: both
	// resolve the same (topology, signature, workers=2, co=0) key.
	spec := testSpec("repeat")
	if _, err := f.Submit(spec, 2, 0.1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Submit(spec, 2, 0.1, 500); err != nil {
		t.Fatal(err)
	}
	stats, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	j1, j2 := f.Job(1), f.Job(2)
	if j1.CacheHit {
		t.Fatal("first job hit the cache; nothing could have populated it")
	}
	if !j2.CacheHit {
		t.Fatal("second identical job missed the cache: it re-profiled")
	}
	if stats.CacheMisses != 1 {
		t.Fatalf("CacheMisses = %d, want exactly 1 probe", stats.CacheMisses)
	}
	if stats.CacheHits < 1 {
		t.Fatalf("CacheHits = %d, want >= 1", stats.CacheHits)
	}
	// Both placements must have applied the same tuned DWP.
	recs, err := DecodeLog(f.LogBytes())
	if err != nil {
		t.Fatal(err)
	}
	var dwps []float64
	for _, r := range recs {
		if r.Type == "admit" {
			if r.DWP == nil {
				t.Fatalf("bwap admit record without dwp: %+v", r)
			}
			dwps = append(dwps, *r.DWP)
		}
	}
	if len(dwps) != 2 || dwps[0] != dwps[1] {
		t.Fatalf("admit DWPs = %v, want two equal values", dwps)
	}
}

// TestQueueingAndBackfill saturates a one-machine fleet so arrivals must
// wait, then verifies they are admitted as capacity frees and all finish.
func TestQueueingAndBackfill(t *testing.T) {
	cfg := testConfig(PolicyFirstTouch, 5)
	cfg.Machines = 1
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec("burst")
	for i := 0; i < 3; i++ {
		// All three want the whole machine at t=0/0.1/0.2.
		if _, err := f.Submit(spec, 4, 0.1, float64(i)*0.1); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 3 {
		t.Fatalf("completed %d/3", stats.Completed)
	}
	log := string(f.LogBytes())
	if !strings.Contains(log, `"type":"queue"`) {
		t.Fatal("saturated fleet produced no queue records")
	}
	if stats.MeanWait <= 0 {
		t.Fatalf("mean wait %.3f, want positive under saturation", stats.MeanWait)
	}
	// Jobs must run serially: each admission only after the previous
	// completion.
	j1, j2, j3 := f.Job(1), f.Job(2), f.Job(3)
	if j2.Admit < j1.Finish-1e-9 || j3.Admit < j2.Finish-1e-9 {
		t.Fatalf("admissions overlap completions: admit2=%.3f finish1=%.3f admit3=%.3f finish2=%.3f",
			j2.Admit, j1.Finish, j3.Admit, j2.Finish)
	}
}

// TestCompletedJobsDropTheirApp pins that a finished job releases its
// simulated app: Fleet.jobs keeps every job for /status and Stats, so an
// app held past completion is dead sim state a long-lived fleet never
// frees.
func TestCompletedJobsDropTheirApp(t *testing.T) {
	f, stats := runFleet(t, testConfig(PolicyBWAP, 3), testStreams())
	if stats.Completed == 0 || stats.Completed != stats.Jobs {
		t.Fatalf("completed %d of %d jobs", stats.Completed, stats.Jobs)
	}
	for _, j := range f.jobs {
		if j.State == JobDone && j.app != nil {
			t.Fatalf("completed job %d still holds its *sim.App", j.ID)
		}
	}
}

// TestRetuneOnChurn co-locates two jobs and checks churn triggers retunes
// that consult the cache with the updated co-runner count.
func TestRetuneOnChurn(t *testing.T) {
	cfg := testConfig(PolicyBWAP, 9)
	cfg.Machines = 1
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec("pair")
	if _, err := f.Submit(spec, 2, 0.2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Submit(spec, 2, 0.2, 2); err != nil { // overlaps the first
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	recs, err := DecodeLog(f.LogBytes())
	if err != nil {
		t.Fatal(err)
	}
	retunes := 0
	for _, r := range recs {
		if r.Type == "retune" {
			retunes++
		}
	}
	if retunes == 0 {
		t.Fatal("overlapping jobs produced no retune events")
	}
	// The cache must now hold both co-runner contexts for the spec.
	tc := f.Cache()
	if _, hit, _ := tc.DWP(smallMachine(0), spec, 2, 0); !hit {
		t.Fatal("co=0 context missing from cache")
	}
	if _, hit, _ := tc.DWP(smallMachine(0), spec, 2, 1); !hit {
		t.Fatal("co=1 context missing from cache after retune")
	}
}

// TestMaxSimTimeAborts verifies the drain guard trips instead of spinning.
func TestMaxSimTimeAborts(t *testing.T) {
	cfg := testConfig(PolicyFirstTouch, 1)
	cfg.Machines = 1
	cfg.MaxSimTime = 2 // far too short for the job
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Submit(testSpec("stuck"), 2, 1.0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err == nil {
		t.Fatal("Run returned nil, want MaxSimTime error")
	}
}

// TestSubmitValidation covers the rejection paths.
func TestSubmitValidation(t *testing.T) {
	f, err := New(testConfig(PolicyFirstTouch, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Submit(testSpec("x"), 99, 1, 0); err == nil {
		t.Fatal("oversized worker demand accepted")
	}
	if _, err := f.Submit(testSpec("x"), 1, 0, 0); err == nil {
		t.Fatal("zero work scale accepted")
	}
	if _, err := f.Submit(workload.Spec{}, 1, 1, 0); err == nil {
		t.Fatal("invalid spec accepted")
	}
	for _, ws := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := f.Submit(testSpec("x"), 1, ws, 0); err == nil {
			t.Fatalf("work scale %g accepted", ws)
		}
	}
	for _, at := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := f.Submit(testSpec("x"), 1, 1, at); err == nil {
			t.Fatalf("arrival %g accepted", at)
		}
	}
	// A NaN target never compares true: unrefused, Advance(NaN) would
	// spin the event loop forever.
	for _, d := range []float64{-1, math.NaN(), math.Inf(1)} {
		if err := f.Advance(d); err == nil {
			t.Fatalf("advance %g accepted", d)
		}
	}
	if len(f.Jobs()) != 0 {
		t.Fatalf("rejected submissions left %d jobs behind", len(f.Jobs()))
	}
	if _, err := New(Config{Policy: "nope"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := New(Config{Admission: "nope"}); err == nil {
		t.Fatal("unknown admission policy accepted")
	}
	if _, err := New(Config{Machines: 2, Shards: 3}); err == nil {
		t.Fatal("more shards than machines accepted")
	}
}

// TestLeastLoadedSpreadsConcurrentJobs submits two concurrent jobs of the
// same workload to two free machines: bestFit must put them on different
// machines.
func TestLeastLoadedSpreadsConcurrentJobs(t *testing.T) {
	f, err := New(testConfig(PolicyFirstTouch, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := f.Submit(testSpec("spread"), 1, 0.1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if f.Job(1).Machine == f.Job(2).Machine {
		t.Fatal("concurrent jobs co-located with a free machine available")
	}
}

// TestAdmissionBestBandwidthPicksBWSubset checks the node-selection seam:
// on Machine A (asymmetric), a 2-worker job must get the best free pair by
// inter-worker bandwidth, not the two lowest free ids.
func TestAdmissionBestBandwidthPicksBWSubset(t *testing.T) {
	cfg := testConfig(PolicyFirstTouch, 3)
	cfg.Machines = 1
	cfg.NewMachine = func(int) *topology.Machine { return topology.MachineA() }
	cfg.Admission = AdmitBestBandwidth
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Submit(testSpec("bw"), 2, 0.1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	got := f.Job(1).Nodes
	want, err := sched.BestWorkerSet(topology.MachineA(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("best-bandwidth admitted on %v, want %v", got, want)
	}
}

// TestAdmissionAntiAffinityAvoidsBusyNeighbours co-locates a hungry job
// with a running one on a machine whose only bandwidth asymmetry is the
// busy set: the spread choice must not be the most-free prefix adjacent to
// the busy pair.
func TestAdmissionAntiAffinityAvoidsBusyNeighbours(t *testing.T) {
	// MachineA: same-package pairs (0,1), (2,3), ... have high mutual BW.
	cfg := testConfig(PolicyBWAP, 3)
	cfg.Machines = 1
	cfg.NewMachine = func(int) *topology.Machine { return topology.MachineA() }
	cfg.Admission = AdmitAntiAffinity
	cfg.Policy = PolicyFirstTouch
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Long-running first job occupies the machine's best pair; the hungry
	// second job must steer clear of its package neighbours.
	if _, err := f.Submit(testSpec("hog"), 2, 1.0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Submit(testSpec("spread"), 2, 0.05, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	hog, spread := f.Job(1), f.Job(2)
	for _, n := range spread.Nodes {
		for _, b := range hog.Nodes {
			if n/2 == b/2 {
				t.Fatalf("anti-affinity placed hungry job on %v, sharing a package with busy %v",
					spread.Nodes, hog.Nodes)
			}
		}
	}

	// A modest job (below the demand threshold) packs most-free instead.
	free := []topology.NodeID{2, 3, 5, 7}
	modest := &Job{Spec: workload.Spec{Name: "m", ReadGBs: 2}, Workers: 2}
	nodes, err := antiAffinity{}.PickNodes(topology.MachineA(), free, modest)
	if err != nil {
		t.Fatal(err)
	}
	if nodes[0] != 2 || nodes[1] != 3 {
		t.Fatalf("modest job got %v, want most-free prefix [2 3]", nodes)
	}
}
