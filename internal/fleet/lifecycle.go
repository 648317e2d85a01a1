package fleet

import (
	"fmt"
	"math"
	"sort"

	"bwap/internal/sim"
)

// machineState is a fleet member's lifecycle position. State changes only
// inside event handlers (or the public Drain/Recover wrappers, which the
// server serializes with Advance), so every transition lands at a
// deterministic point of the log.
type machineState int

const (
	// machineUp accepts admissions and runs jobs.
	machineUp machineState = iota
	// machineDrained stopped admission gracefully; its jobs were evacuated
	// with their progress preserved.
	machineDrained
	// machineCrashed failed; its in-flight jobs were killed and requeued
	// (progress since the last graceful evacuation lost).
	machineCrashed
)

func (s machineState) String() string {
	switch s {
	case machineUp:
		return "up"
	case machineDrained:
		return "drained"
	case machineCrashed:
		return "crashed"
	}
	return "unknown"
}

// MachineView is one machine's externally visible state, serialized by the
// daemon's /machines endpoint.
type MachineView struct {
	ID        int    `json:"id"`
	State     string `json:"state"`
	Nodes     int    `json:"nodes"`
	FreeNodes int    `json:"free_nodes"`
	// Jobs lists the ids of jobs currently placed here, admission order.
	Jobs []int `json:"jobs,omitempty"`
}

// Machines snapshots every fleet member, by id.
func (f *Fleet) Machines() []MachineView {
	out := make([]MachineView, len(f.machines))
	for i, m := range f.machines {
		v := MachineView{
			ID: m.id, State: m.state.String(),
			Nodes: len(m.free), FreeNodes: m.freeCount,
		}
		for _, j := range m.active {
			v.Jobs = append(v.Jobs, j.ID)
		}
		out[i] = v
	}
	return out
}

// machinesUp counts fleet members in the up state.
func (f *Fleet) machinesUp() int {
	n := 0
	for _, m := range f.machines {
		if m.state == machineUp {
			n++
		}
	}
	return n
}

// Drain gracefully takes machine id out of service: admission stops and
// every running job is evacuated — progress snapshotted, remainder
// resubmitted through admission. The server's /drain endpoint calls this
// between Advance windows.
func (f *Fleet) Drain(id int) error {
	m, err := f.machineByID(id)
	if err != nil {
		return err
	}
	if m.state != machineUp {
		return fmt.Errorf("fleet: machine %d is already %s", id, m.state)
	}
	return f.drainMachine(m)
}

// Recover returns a drained or crashed machine to service and backfills
// the queue against the restored capacity.
func (f *Fleet) Recover(id int) error {
	m, err := f.machineByID(id)
	if err != nil {
		return err
	}
	if m.state == machineUp {
		return fmt.Errorf("fleet: machine %d is already up", id)
	}
	return f.recoverMachine(m)
}

func (f *Fleet) machineByID(id int) (*machine, error) {
	if id < 0 || id >= len(f.machines) {
		return nil, fmt.Errorf("fleet: no machine %d (fleet of %d)", id, len(f.machines))
	}
	return f.machines[id], nil
}

// drainMachine is the drain event handler. Jobs whose completion is
// already an event in flight (seen) finish where they are — in the
// discrete model they completed before the drain took effect; everything
// else is evacuated: progress snapshotted into the job's remaining-work
// fraction, the app detached, and the remainder resubmitted through
// normal admission (queueing if nothing fits). A drain of a machine that
// is not up is a no-op, so a FaultPlan drain racing a crash at the same
// instant — crashes sort first — never "gracefully" evacuates jobs the
// crash already killed.
func (f *Fleet) drainMachine(m *machine) error {
	if m.state != machineUp {
		return nil
	}
	m.state = machineDrained
	evac := f.detach(m, true)
	ids := make([]int, len(evac))
	for i, j := range evac {
		ids[i] = j.ID
	}
	f.logAppend(Record{T: f.now, Type: "drain", Machine: m.id, Jobs: ids})
	f.evacuations += len(evac)
	for _, job := range evac {
		admitted, err := f.tryAdmit(job)
		if err != nil {
			return err
		}
		if !admitted {
			f.enqueue(job)
			f.logAppend(Record{T: f.now, Type: "queue", Job: job.ID, Machine: -1, Workload: job.Spec.Name})
		}
	}
	return nil
}

// crashMachine is the crash event handler: in-flight jobs are killed and
// re-enter admission after a capped exponential backoff, until their retry
// budget runs out and they fail terminally. As with drain, jobs whose
// completion event is already in flight complete rather than die, and a
// crash of a machine that is not up is a no-op.
func (f *Fleet) crashMachine(m *machine) error {
	if m.state != machineUp {
		return nil
	}
	m.state = machineCrashed
	killed := f.detach(m, false)
	ids := make([]int, len(killed))
	for i, j := range killed {
		ids[i] = j.ID
	}
	f.logAppend(Record{T: f.now, Type: "crash", Machine: m.id, Jobs: ids})
	for _, job := range killed {
		job.Attempts++
		if job.Attempts > f.cfg.MaxRetries {
			job.State = JobFailed
			f.failedJobs++
			f.logAppend(Record{T: f.now, Type: "fail", Job: job.ID, Machine: -1,
				Workload: job.Spec.Name, Attempt: job.Attempts})
			continue
		}
		backoff := f.cfg.RetryBackoff * math.Pow(2, float64(job.Attempts-1))
		if backoff > f.cfg.RetryBackoffCap {
			backoff = f.cfg.RetryBackoffCap
		}
		at := f.now + backoff
		job.State = JobRetryWait
		f.retries++
		f.push(at, evRetry, job, -1)
		f.logAppend(Record{T: f.now, Type: "retry", Job: job.ID, Machine: -1,
			Workload: job.Spec.Name, Attempt: job.Attempts, RetryAt: at})
	}
	return nil
}

// detach removes every not-yet-completing job from m, releasing nodes and
// deregistering apps. With snapshot set (drain) each job's progress is
// folded into its remaining-work fraction so the resubmitted remainder is
// only what is left; without it (crash) progress since the last snapshot
// is lost. Jobs with a completion event in flight stay put.
func (f *Fleet) detach(m *machine, snapshot bool) []*Job {
	var out []*Job
	kept := m.active[:0]
	for _, job := range m.active {
		if job.seen {
			kept = append(kept, job)
			continue
		}
		if snapshot {
			total := job.Spec.WorkGB * job.WorkScale * job.remFrac
			if done := job.app.Progress(); total > 0 && done > 0 {
				frac := 1 - done/total
				if frac < 1e-6 {
					frac = 1e-6 // a sliver keeps the respawned app valid
				}
				job.remFrac *= frac
			}
		}
		m.eng.RemoveApp(job.app) //nolint:errcheck // app registration is ours
		m.release(job.Nodes)
		job.app = nil
		job.Machine = -1
		job.Nodes = nil
		job.State = JobQueued
		f.running--
		out = append(out, job)
	}
	for i := len(kept); i < len(m.active); i++ {
		m.active[i] = nil
	}
	m.active = kept
	return out
}

// recoverMachine is the recover event handler: the machine returns to the
// up state and the queue is backfilled against its capacity. Allocation
// state needs no reset — drain/crash released every node when they
// detached the jobs. The engine keeps its clock (it ticked empty while
// down, preserving the fleet-wide lockstep), which models the machine's
// hardware surviving the outage. Recovering a machine that is already up
// is a no-op.
func (f *Fleet) recoverMachine(m *machine) error {
	if m.state == machineUp {
		return nil
	}
	m.state = machineUp
	f.logAppend(Record{T: f.now, Type: "recover", Machine: m.id})
	return f.backfill()
}

// addMachine is the machine-add event handler: the fleet grows by one
// machine with the next id (see newMachine).
func (f *Fleet) addMachine() error {
	m, err := f.newMachine()
	if err != nil {
		return err
	}
	f.logAppend(Record{T: f.now, Type: "machine-add", Machine: m.id})
	return f.backfill()
}

// newMachine appends an up machine with the next id: its topology from
// Config.NewMachine, its engine seeded from Seed and the id, and its clock
// caught up to the lockstep tick count. Every existing engine has ticked
// the same number of times, and the clock is a per-tick += dt
// accumulation, so a machine added mid-run keeps ticking in unison with
// its peers.
func (f *Fleet) newMachine() (*machine, error) {
	id := len(f.machines)
	topo := f.cfg.NewMachine(id)
	if topo == nil {
		return nil, fmt.Errorf("fleet: NewMachine(%d) returned nil", id)
	}
	if err := topo.Validate(); err != nil {
		return nil, fmt.Errorf("fleet: machine %d: %w", id, err)
	}
	simCfg := f.cfg.SimCfg
	// The fleet's event loop bounds time, not the per-engine MaxTime.
	simCfg.MaxTime = math.Inf(1)
	simCfg.Seed = f.cfg.Seed + uint64(id)*0x9e3779b97f4a7c15
	eng := sim.New(topo, simCfg)
	if id > 0 {
		eng.AdvanceTicks(f.machines[0].eng.Ticks())
	}
	m := &machine{
		id:        id,
		topo:      topo,
		eng:       eng,
		free:      make([]bool, topo.NumNodes()),
		freeCount: topo.NumNodes(),
		state:     machineUp,
	}
	for j := range m.free {
		m.free[j] = true
	}
	f.machines = append(f.machines, m)
	f.totalNodes += topo.NumNodes()
	return m, nil
}

// retryJob is the retry event handler: the job's backoff elapsed, so it
// re-enters admission exactly like a fresh arrival (retries sort after
// arrivals at the same instant, so a recovering fleet serves its incumbent
// stream first).
func (f *Fleet) retryJob(job *Job) error {
	job.State = JobQueued
	admitted, err := f.tryAdmit(job)
	if err != nil {
		return err
	}
	if !admitted {
		f.enqueue(job)
		f.logAppend(Record{T: f.now, Type: "queue", Job: job.ID, Machine: -1, Workload: job.Spec.Name})
	}
	return nil
}

// enqueue inserts a job into the wait queue in (arrival, id) order. Fresh
// arrivals append (the stream is arrival-ordered), but evacuated and
// retried jobs re-enter with old arrival times and must not jump behind
// younger queue residents' backfill priority.
func (f *Fleet) enqueue(job *Job) {
	i := sort.Search(len(f.queue), func(i int) bool {
		q := f.queue[i]
		if q.Arrival != job.Arrival {
			return q.Arrival > job.Arrival
		}
		return q.ID > job.ID
	})
	f.queue = append(f.queue, nil)
	copy(f.queue[i+1:], f.queue[i:])
	f.queue[i] = job
}

// backfill admits every queued job that now fits, preserving arrival order
// among those that stay. The queue is always committed — even when an
// admission errors — so jobs admitted earlier in the sweep are never
// retried (a retry would collide with their registered app).
func (f *Fleet) backfill() error {
	// Hint the whole queue before the admission sweep: predictions use the
	// pre-sweep state (exact for the first admission, approximate after it
	// consumes capacity), so a cold queued burst fans its probes across
	// the pool while the sweep consumes them in order.
	for _, qj := range f.queue {
		f.prefetch(qj)
	}
	kept := f.queue[:0]
	var admitErr error
	for _, qj := range f.queue {
		if admitErr != nil {
			kept = append(kept, qj)
			continue
		}
		admitted, err := f.tryAdmit(qj)
		if err != nil {
			admitErr = err
			kept = append(kept, qj) // failed admission leaves the job queued
			continue
		}
		if !admitted {
			kept = append(kept, qj)
		}
	}
	for i := len(kept); i < len(f.queue); i++ {
		f.queue[i] = nil
	}
	f.queue = kept
	return admitErr
}

// Conservation checks the job-conservation invariant — no lifecycle churn
// may lose or duplicate a job: every submission is in exactly one of
// pending / queued / retry-wait / running / done / failed, and the
// scheduler's redundant counters agree with the per-job truth. The chaos
// property tests call this at every barrier.
func (f *Fleet) Conservation() error {
	var pending, queued, wait, running, done, failed int
	for _, j := range f.jobs {
		switch j.State {
		case JobPending:
			pending++
		case JobQueued:
			queued++
		case JobRetryWait:
			wait++
		case JobRunning:
			running++
		case JobDone:
			done++
		case JobFailed:
			failed++
		default:
			return fmt.Errorf("fleet: job %d in unknown state %d", j.ID, j.State)
		}
	}
	if total := pending + queued + wait + running + done + failed; total != len(f.jobs) {
		return fmt.Errorf("fleet: %d jobs submitted but %d accounted for", len(f.jobs), total)
	}
	if running != f.running {
		return fmt.Errorf("fleet: %d jobs in running state but running counter is %d", running, f.running)
	}
	placed := 0
	for _, m := range f.machines {
		placed += len(m.active)
	}
	if placed != f.running {
		return fmt.Errorf("fleet: %d jobs placed on machines but running counter is %d", placed, f.running)
	}
	if queued != len(f.queue) {
		return fmt.Errorf("fleet: %d jobs in queued state but queue holds %d", queued, len(f.queue))
	}
	if failed != f.failedJobs {
		return fmt.Errorf("fleet: %d jobs in failed state but failed counter is %d", failed, f.failedJobs)
	}
	return nil
}
