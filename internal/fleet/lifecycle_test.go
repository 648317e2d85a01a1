package fleet

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"bwap/internal/workload"
)

// The lifecycle tests cover the machine drain/crash/recover/add subsystem:
// graceful evacuation preserves progress, crashes retry with capped
// exponential backoff until the budget runs out, capacity changes backfill
// the queue, and — the tentpole property — no amount of churn loses or
// duplicates a job, with the event log staying bit-identical across tick
// pool widths and with fast-forward on or off.

// submitOne puts a single long-running job into the fleet at time at.
func submitOne(t *testing.T, f *Fleet, name string, workers int, at float64) *Job {
	t.Helper()
	job, err := f.Submit(testSpec(name), workers, 1.0, at)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// recordTypes decodes the fleet log and counts records by type.
func recordTypes(t *testing.T, f *Fleet) map[string]int {
	t.Helper()
	recs, err := DecodeLog(f.LogBytes())
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]int{}
	for _, r := range recs {
		types[r.Type]++
	}
	return types
}

// TestDrainEvacuatesWithProgress pins the graceful path: draining a
// machine moves its running job to another machine, carrying the finished
// fraction along so only the remainder re-runs.
func TestDrainEvacuatesWithProgress(t *testing.T) {
	f, err := New(testConfig(PolicyFirstTouch, 3))
	if err != nil {
		t.Fatal(err)
	}
	job := submitOne(t, f, "long", 2, 0)
	if err := f.ProcessDue(); err != nil {
		t.Fatal(err)
	}
	if job.State != JobRunning {
		t.Fatalf("job state %s after admission", job.State)
	}
	first := job.Machine
	if err := f.Advance(5); err != nil {
		t.Fatal(err)
	}
	if job.State != JobRunning {
		t.Fatalf("job finished during warm-up; use a longer spec")
	}
	if err := f.Drain(first); err != nil {
		t.Fatal(err)
	}
	if job.remFrac >= 1 || job.remFrac <= 0 {
		t.Fatalf("evacuation snapshotted remFrac %g, want (0,1)", job.remFrac)
	}
	if job.State != JobRunning || job.Machine == first {
		t.Fatalf("evacuated job: state %s on machine %d (drained %d)", job.State, job.Machine, first)
	}
	// Draining again is a state conflict, as is recovering an up machine.
	if err := f.Drain(first); err == nil {
		t.Fatal("second drain of the same machine succeeded")
	}
	if err := f.Recover(job.Machine); err == nil {
		t.Fatal("recovering an up machine succeeded")
	}
	stats, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if job.State != JobDone || stats.Completed != 1 {
		t.Fatalf("evacuated job ended %s; stats %+v", job.State, stats)
	}
	if stats.Evacuations != 1 || stats.MachinesUp != 1 {
		t.Fatalf("Evacuations=%d MachinesUp=%d, want 1 and 1", stats.Evacuations, stats.MachinesUp)
	}

	// Control: the same machine crashing at the same instant loses the
	// progress snapshot — the job restarts from zero after a backoff — so
	// it must finish strictly later than the graceful evacuation.
	g, err := New(testConfig(PolicyFirstTouch, 3))
	if err != nil {
		t.Fatal(err)
	}
	jg := submitOne(t, g, "long", 2, 0)
	if err := g.ProcessDue(); err != nil {
		t.Fatal(err)
	}
	if err := g.Advance(5); err != nil {
		t.Fatal(err)
	}
	m, err := g.machineByID(jg.Machine)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.crashMachine(m); err != nil {
		t.Fatal(err)
	}
	if jg.State != JobRetryWait || jg.remFrac != 1 {
		t.Fatalf("after crash: state %s remFrac %g, want retry-wait with progress discarded", jg.State, jg.remFrac)
	}
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if jg.State != JobDone {
		t.Fatalf("crashed job ended %s", jg.State)
	}
	if jg.Finish <= job.Finish {
		t.Fatalf("crash restart finished at %.2f, not later than the drain evacuation at %.2f; the snapshot bought nothing",
			jg.Finish, job.Finish)
	}
}

// TestCrashRetryBackoff pins the failure path: a crash kills the job,
// schedules a retry one backoff later, and the retry re-places it on a
// surviving machine with no progress carried over.
func TestCrashRetryBackoff(t *testing.T) {
	cfg := testConfig(PolicyFirstTouch, 5)
	cfg.Faults = &FaultPlan{Faults: []FaultSpec{
		{Kind: FaultCrash, Machines: []int{0}, At: 1},
	}}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job := submitOne(t, f, "victim", 2, 0)
	if err := f.ProcessDue(); err != nil {
		t.Fatal(err)
	}
	if job.Machine != 0 {
		t.Fatalf("job admitted on machine %d, want 0", job.Machine)
	}
	if err := f.Advance(1.5); err != nil {
		t.Fatal(err)
	}
	if job.State != JobRetryWait || job.Attempts != 1 {
		t.Fatalf("after crash: state %s, attempts %d", job.State, job.Attempts)
	}
	// The default backoff is 2·2^0 = 2s: not yet due at +1.9s, due at +3s.
	if err := f.Advance(1.2); err != nil {
		t.Fatal(err)
	}
	if job.State != JobRetryWait {
		t.Fatalf("retry fired before its backoff: state %s at t=%.2f", job.State, f.Now())
	}
	if err := f.Advance(1.5); err != nil {
		t.Fatal(err)
	}
	if job.State != JobRunning || job.Machine != 1 {
		t.Fatalf("after backoff: state %s on machine %d, want running on 1", job.State, job.Machine)
	}
	if job.remFrac != 1 {
		t.Fatalf("crash preserved progress: remFrac %g, want exactly 1", job.remFrac)
	}
	stats, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 1 || stats.Retries != 1 || stats.FailedJobs != 0 {
		t.Fatalf("final stats %+v", stats)
	}
	types := recordTypes(t, f)
	for _, want := range []string{"crash", "retry"} {
		if types[want] != 1 {
			t.Fatalf("%d %q records, want 1 (types: %v)", types[want], want, types)
		}
	}
}

// TestRetryBudgetExhaustion pins terminal failure: with no retry budget, a
// single crash fails the job permanently — a visible "fail" record, not a
// silent loss — and the run still terminates cleanly.
func TestRetryBudgetExhaustion(t *testing.T) {
	cfg := testConfig(PolicyFirstTouch, 7)
	cfg.Machines = 1
	cfg.MaxRetries = -1 // no retries
	cfg.Faults = &FaultPlan{Faults: []FaultSpec{
		{Kind: FaultCrash, Machines: []int{0}, At: 1, RecoverAfter: 2},
	}}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job := submitOne(t, f, "doomed", 2, 0)
	stats, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if job.State != JobFailed || job.Attempts != 1 {
		t.Fatalf("job ended %s with %d attempts, want failed after 1", job.State, job.Attempts)
	}
	if stats.FailedJobs != 1 || stats.Completed != 0 || stats.Retries != 0 {
		t.Fatalf("final stats %+v", stats)
	}
	if types := recordTypes(t, f); types["fail"] != 1 {
		t.Fatalf("%d fail records, want 1", types["fail"])
	}
	if err := f.Conservation(); err != nil {
		t.Fatal(err)
	}
}

// TestRetryBudgetAcrossWaves exercises a budget > 0: the first crash
// grants a retry, the second exhausts the budget.
func TestRetryBudgetAcrossWaves(t *testing.T) {
	cfg := testConfig(PolicyFirstTouch, 9)
	cfg.Machines = 1
	cfg.MaxRetries = 1
	cfg.Faults = &FaultPlan{Faults: []FaultSpec{
		{Kind: FaultCrash, Machines: []int{0}, At: 1, Every: 5, Count: 3, RecoverAfter: 1},
	}}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job := submitOne(t, f, "doomed", 2, 0)
	stats, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if job.State != JobFailed || job.Attempts != 2 {
		t.Fatalf("job ended %s with %d attempts, want failed after 2", job.State, job.Attempts)
	}
	if stats.Retries != 1 || stats.FailedJobs != 1 {
		t.Fatalf("final stats %+v", stats)
	}
}

// TestRecoverBackfillsQueue pins the repair path: jobs stuck in the queue
// because every machine was down admit the instant one recovers.
func TestRecoverBackfillsQueue(t *testing.T) {
	cfg := testConfig(PolicyFirstTouch, 11)
	cfg.Machines = 1
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Drain(0); err != nil {
		t.Fatal(err)
	}
	job := submitOne(t, f, "waiter", 2, 0)
	if err := f.ProcessDue(); err != nil {
		t.Fatal(err)
	}
	if job.State != JobQueued {
		t.Fatalf("job state %s with the only machine drained, want queued", job.State)
	}
	if err := f.Recover(0); err != nil {
		t.Fatal(err)
	}
	if job.State != JobRunning {
		t.Fatalf("job state %s after recover, want running", job.State)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestMachineAddGrowsFleet pins fleet growth: a machine-add event creates
// the next machine id with a lockstep-synchronized engine and immediately
// backfills the queue against the new capacity.
func TestMachineAddGrowsFleet(t *testing.T) {
	cfg := testConfig(PolicyFirstTouch, 13)
	cfg.Machines = 1
	cfg.Faults = &FaultPlan{Faults: []FaultSpec{
		{Kind: FaultMachineAdd, At: 2},
	}}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two whole-machine jobs: the second must wait for the new machine.
	j1 := submitOne(t, f, "first", 4, 0)
	j2 := submitOne(t, f, "second", 4, 0)
	if err := f.Advance(3); err != nil {
		t.Fatal(err)
	}
	if len(f.machines) != 2 {
		t.Fatalf("fleet has %d machines after the add, want 2", len(f.machines))
	}
	if got, want := f.machines[1].eng.Ticks(), f.machines[0].eng.Ticks(); got != want {
		t.Fatalf("added engine at tick %d, incumbents at %d: lockstep broken", got, want)
	}
	if j2.State != JobRunning || j2.Machine != 1 {
		t.Fatalf("queued job: state %s on machine %d, want running on 1", j2.State, j2.Machine)
	}
	stats, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if j1.State != JobDone || j2.State != JobDone || stats.Completed != 2 {
		t.Fatalf("jobs ended %s/%s; stats %+v", j1.State, j2.State, stats)
	}
	views := f.Machines()
	if len(views) != 2 || views[1].State != "up" || views[1].Nodes != 4 {
		t.Fatalf("machine views %+v", views)
	}
	if types := recordTypes(t, f); types["machine-add"] != 1 {
		t.Fatalf("%d machine-add records, want 1", types["machine-add"])
	}
}

// TestStrandedQueueFailsFast: a queue that can never drain (every machine
// permanently down, no pending events) must error immediately instead of
// silently succeeding or burning the clock to MaxSimTime.
func TestStrandedQueueFailsFast(t *testing.T) {
	cfg := testConfig(PolicyFirstTouch, 15)
	cfg.Machines = 1
	cfg.Faults = &FaultPlan{Faults: []FaultSpec{
		{Kind: FaultDrain, Machines: []int{0}, At: 1}, // never recovers
	}}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitOne(t, f, "stuck", 2, 0)
	_, err = f.Run()
	if err == nil || !strings.Contains(err.Error(), "stranded") {
		t.Fatalf("Run() = %v, want a stranded-queue error", err)
	}
	if err := f.Conservation(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultPlanValidation rejects malformed plans at construction.
func TestFaultPlanValidation(t *testing.T) {
	cases := []struct {
		name string
		plan FaultPlan
		want string
	}{
		{"unknown kind", FaultPlan{Faults: []FaultSpec{{Kind: "explode", At: 1}}}, "unknown fault kind"},
		{"negative time", FaultPlan{Faults: []FaultSpec{{Kind: FaultCrash, At: -1}}}, "negative time"},
		{"count without period", FaultPlan{Faults: []FaultSpec{{Kind: FaultCrash, At: 1, Count: 2}}}, "needs a period"},
		{"machine out of range", FaultPlan{Faults: []FaultSpec{{Kind: FaultCrash, At: 1, Machines: []int{9}}}}, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(PolicyFirstTouch, 1)
			cfg.Faults = &tc.plan
			_, err := New(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New() = %v, want error containing %q", err, tc.want)
			}
		})
	}
	// A forward reference to a machine the plan itself adds is legal.
	ok := FaultPlan{Faults: []FaultSpec{
		{Kind: FaultMachineAdd, At: 1},
		{Kind: FaultCrash, Machines: []int{2}, At: 2},
	}}
	if err := ok.Validate(2); err != nil {
		t.Fatalf("forward reference rejected: %v", err)
	}
}

// TestFaultPlanJitterDeterminism pins the per-spec noise streams: the same
// plan materializes identically every time, and editing one spec never
// shifts another spec's occurrence times.
func TestFaultPlanJitterDeterminism(t *testing.T) {
	base := FaultPlan{Seed: 99, Faults: []FaultSpec{
		{Kind: FaultCrash, Machines: []int{0, 1}, At: 5, Every: 7, Count: 3, Jitter: 2},
		{Kind: FaultDrain, Machines: []int{2}, At: 9, Jitter: 3, RecoverAfter: 4},
	}}
	a, err := base.materialize(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := base.materialize(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("materialize lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("occurrence %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Change spec 1; spec 0's crash times must not move.
	edited := base
	edited.Faults = append([]FaultSpec(nil), base.Faults...)
	edited.Faults[1].Jitter = 0.5
	c, err := edited.materialize(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	crashTimes := func(evs []faultEvent) []float64 {
		var out []float64
		for _, e := range evs {
			if e.kind == evCrash {
				out = append(out, e.t)
			}
		}
		return out
	}
	ca, cc := crashTimes(a), crashTimes(c)
	if len(ca) != len(cc) {
		t.Fatalf("crash counts differ: %d vs %d", len(ca), len(cc))
	}
	for i := range ca {
		if ca[i] != cc[i] {
			t.Fatalf("editing spec 1 moved spec 0's crash %d: %.6f vs %.6f", i, ca[i], cc[i])
		}
	}
}

// chaosTestPlan is the shared churn schedule for the conservation and
// replay-invariance tests: a recovering drain loop, staggered jittered
// crash waves across two machines, and a mid-run fleet growth.
func chaosTestPlan() *FaultPlan {
	return &FaultPlan{Faults: []FaultSpec{
		{Kind: FaultDrain, Machines: []int{0}, At: 2, Every: 13, Count: 3, RecoverAfter: 5},
		{Kind: FaultCrash, Machines: []int{1, 2}, At: 4, Every: 11, Count: 3, Stagger: 3, Jitter: 1, RecoverAfter: 4},
		{Kind: FaultMachineAdd, At: 9},
	}}
}

// chaosPoolConfig is poolConfig plus the chaos plan.
func chaosPoolConfig(width int, disableFF bool) Config {
	cfg := poolConfig(PolicyFirstTouch, AdmitMostFree, width, 31)
	cfg.Faults = chaosTestPlan()
	cfg.SimCfg.DisableFastForward = disableFF
	return cfg
}

// checkWorkConservation fails the test if a queued job fits on an up
// machine: after every handled event, backfill must have admitted each
// queued job that bestFit can place, not only those ahead of the first
// one that does not fit.
func checkWorkConservation(t *testing.T, f *Fleet) {
	t.Helper()
	for _, j := range f.queue {
		if m := bestFit(f.machines, j.Workers); m != nil {
			t.Fatalf("t=%.1f: queued job %d (%d workers) fits on up machine %d (%d nodes free)",
				f.Now(), j.ID, j.Workers, m.id, m.freeCount)
		}
	}
}

// TestBackfillPassesBlockedHead pins work conservation on one 4-node
// machine: a long 3-node job and a short 1-node job fill it, then a
// 4-node job queues ahead of a 1-node job. When the short job ends, the
// 1-node job must be admitted although the 4-node job ahead of it still
// does not fit.
func TestBackfillPassesBlockedHead(t *testing.T) {
	cfg := testConfig(PolicyFirstTouch, 5)
	cfg.Machines = 1
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	long := submitOne(t, f, "long", 3, 0)
	short, err := f.Submit(testSpec("short"), 1, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	whole := submitOne(t, f, "whole", 4, 0)
	small, err := f.Submit(testSpec("small"), 1, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ProcessDue(); err != nil {
		t.Fatal(err)
	}
	if long.State != JobRunning || short.State != JobRunning || whole.State != JobQueued || small.State != JobQueued {
		t.Fatalf("start: long %s, short %s, whole %s, small %s; want running, running, queued, queued",
			long.State, short.State, whole.State, small.State)
	}
	for short.State == JobRunning {
		if err := f.Advance(0.1); err != nil {
			t.Fatal(err)
		}
		checkWorkConservation(t, f)
	}
	// Admission binds to the first tick boundary after the completion.
	if long.State != JobRunning || whole.State != JobQueued || small.State != JobRunning || small.Admit > short.Finish+f.dt {
		t.Fatalf("after the short job ended at t=%.2f: long %s, whole %s, small %s (admitted at %.2f)",
			short.Finish, long.State, whole.State, small.State, small.Admit)
	}
}

// TestConservationUnderChaos is the tentpole property test: stepping the
// fleet through drain/crash/recover/add churn in small Advance windows,
// the job-conservation invariant must hold at every barrier — submitted =
// pending + queued + retry-wait + running + completed + failed, counters
// consistent — and so must work conservation (no queued job fits on an up
// machine); every job must reach a terminal state in the end. Runs with
// fast-forward on and off and demands bit-identical logs. It runs two
// streams: denseStreams, and headOfLineStreams, whose 1-node jobs queue
// behind jobs that need most of a machine, so work conservation fails at
// a barrier if backfill stops at the first queued job that does not fit.
func TestConservationUnderChaos(t *testing.T) {
	for _, c := range []struct {
		name    string
		streams []StreamSpec
	}{
		{"dense", denseStreams()},
		{"head-of-line", headOfLineStreams()},
	} {
		t.Run(c.name, func(t *testing.T) { checkConservationUnderChaos(t, c.streams) })
	}
}

// headOfLineStreams mixes jobs that need three of a machine's four nodes
// with 1-node jobs that arrive while the wide ones hold the fleet: once
// no machine has three nodes free, a wide job heads the queue and the
// narrow jobs behind it still fit on the machines' last free nodes.
func headOfLineStreams() []StreamSpec {
	return []StreamSpec{
		{
			Workload: testSpec("wide"),
			Arrival:  workload.ArrivalSpec{Process: workload.Periodic, Rate: 4, Count: 14},
			Workers:  3, WorkScale: 0.3,
		},
		{
			Workload: testSpec("narrow"),
			Arrival:  workload.ArrivalSpec{Process: workload.Periodic, Rate: 2, Start: 3.6, Count: 8},
			Workers:  1, WorkScale: 0.05,
		},
	}
}

// checkConservationUnderChaos runs one stream set of
// TestConservationUnderChaos.
func checkConservationUnderChaos(t *testing.T, streams []StreamSpec) {
	var logs [][]byte
	for _, disableFF := range []bool{true, false} {
		f, err := New(chaosPoolConfig(2, disableFF))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.SubmitStream(streams); err != nil {
			t.Fatal(err)
		}
		if err := f.Conservation(); err != nil {
			t.Fatalf("disableFF=%v: before start: %v", disableFF, err)
		}
		for f.Now() < 120 {
			if err := f.Advance(0.7); err != nil {
				t.Fatalf("disableFF=%v: advance at t=%.1f: %v", disableFF, f.Now(), err)
			}
			if err := f.Conservation(); err != nil {
				t.Fatalf("disableFF=%v: at t=%.1f: %v", disableFF, f.Now(), err)
			}
			checkWorkConservation(t, f)
		}
		stats, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Conservation(); err != nil {
			t.Fatalf("disableFF=%v: after drain: %v", disableFF, err)
		}
		if stats.Completed+stats.FailedJobs != stats.Jobs {
			t.Fatalf("disableFF=%v: %d jobs, %d completed + %d failed: some never reached a terminal state",
				disableFF, stats.Jobs, stats.Completed, stats.FailedJobs)
		}
		if stats.Evacuations == 0 && stats.Retries == 0 {
			t.Fatalf("disableFF=%v: chaos plan touched no jobs; the property is vacuous", disableFF)
		}
		if stats.Machines != 9 {
			t.Fatalf("disableFF=%v: %d machines after the add, want 9", disableFF, stats.Machines)
		}
		logs = append(logs, f.LogBytes())
	}
	if !bytes.Equal(logs[0], logs[1]) {
		t.Fatal("fast-forward changed the chaos log")
	}
}

// TestChaosTraceReplayShardInvariance extends the replay-equivalence suite
// with fault injection: a recorded chaos log, re-ingested via ReadTrace
// and rerun with the same FaultPlan, reproduces itself bit for bit at
// every pool width.
func TestChaosTraceReplayShardInvariance(t *testing.T) {
	rec, stats := runFleet(t, chaosPoolConfig(1, false), denseStreams())
	if stats.Evacuations == 0 && stats.Retries == 0 {
		t.Fatal("recorded run hit no faults; width invariance would be vacuous")
	}
	// denseStreams uses custom specs, so the trace needs a resolver that
	// maps their names back (modest is testSpec with smaller bandwidth).
	resolve := func(name string) (workload.Spec, error) {
		spec := testSpec(name)
		if name == "modest" {
			spec.ReadGBs, spec.WriteGBs = 3, 0.5
		}
		return spec, nil
	}
	trace, err := ReadTrace(rec.LogBytes(), resolve)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range poolWidths {
		f, _ := runFleet(t, chaosPoolConfig(width, false), trace)
		if !bytes.Equal(rec.LogBytes(), f.LogBytes()) {
			t.Fatalf("chaos replay at width %d changed the log\n--- recorded ---\n%s\n--- replay ---\n%s",
				width, rec.LogBytes(), f.LogBytes())
		}
	}
}

// TestLifecycleRecordsWellFormed drives the chaos plan once and checks the
// structural contract of the new record kinds.
func TestLifecycleRecordsWellFormed(t *testing.T) {
	f, _ := runFleet(t, chaosPoolConfig(1, false), denseStreams())
	recs, err := DecodeLog(f.LogBytes())
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Type != "schema" || recs[0].Version != LogSchemaVersion {
		t.Fatalf("log opens with %+v, want a schema record at version %d", recs[0], LogSchemaVersion)
	}
	for i, r := range recs {
		switch r.Type {
		case "drain", "crash", "recover", "machine-add":
			if r.Machine < 0 {
				t.Fatalf("record %d (%s) without a machine: %+v", i, r.Type, r)
			}
		case "retry":
			if r.Job <= 0 || r.Attempt <= 0 || r.RetryAt <= r.T {
				t.Fatalf("malformed retry record %d: %+v", i, r)
			}
		case "fail":
			if r.Job <= 0 || r.Attempt <= 0 {
				t.Fatalf("malformed fail record %d: %+v", i, r)
			}
		}
	}
}

// TestEvacuatedJobWorkScaleUnchanged guards the trace-replay contract: the
// arrive record's WorkScale is the job's submission shape, so evacuation
// must track progress in a separate field rather than mutating WorkScale.
func TestEvacuatedJobWorkScaleUnchanged(t *testing.T) {
	f, err := New(testConfig(PolicyFirstTouch, 21))
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec("tracked")
	job, err := f.Submit(spec, 2, 0.7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ProcessDue(); err != nil {
		t.Fatal(err)
	}
	if err := f.Advance(5); err != nil {
		t.Fatal(err)
	}
	if err := f.Drain(job.Machine); err != nil {
		t.Fatal(err)
	}
	if job.WorkScale != 0.7 {
		t.Fatalf("evacuation mutated WorkScale to %g", job.WorkScale)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadFaultPlan round-trips a plan file and rejects junk.
func TestLoadFaultPlan(t *testing.T) {
	dir := t.TempDir()
	good := dir + "/plan.json"
	if err := os.WriteFile(good, []byte(`{"faults":[{"kind":"drain","machines":[0],"at":5,"recover_after":3}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadFaultPlan(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Faults) != 1 || p.Faults[0].Kind != FaultDrain || p.Faults[0].RecoverAfter != 3 {
		t.Fatalf("loaded plan %+v", p)
	}
	bad := dir + "/bad.json"
	if err := os.WriteFile(bad, []byte(`{"faults": [`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFaultPlan(bad); err == nil {
		t.Fatal("truncated plan loaded without error")
	}
	empty := dir + "/empty.json"
	if err := os.WriteFile(empty, []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFaultPlan(empty); err == nil {
		t.Fatal("empty plan loaded without error")
	}

	// FaultSpec workload sanity: arrival classes beyond the plan keep
	// materializing from the same splitmix64 stream regardless of plan
	// presence — the plan's RNG is private to it.
	times1, err := workload.ArrivalSpec{Process: workload.Poisson, Rate: 1, Count: 3}.Times(42)
	if err != nil {
		t.Fatal(err)
	}
	times2, err := workload.ArrivalSpec{Process: workload.Poisson, Rate: 1, Count: 3}.Times(42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range times1 {
		if times1[i] != times2[i] {
			t.Fatal("arrival stream not deterministic")
		}
	}
}
