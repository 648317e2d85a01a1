package fleet

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// collectComps gathers the jobs that completed during the window just
// run, in (machine id, admission order), so completion events get the
// same sequence numbers whichever goroutines advanced the machines. The
// window sizer (lookaheadWindow) keeps completions out of a window's
// interior; the scan is a defensive backstop that surfaces a completion
// the horizon missed one window late rather than losing it.
func (f *Fleet) collectComps() []*Job {
	out := f.compScratch[:0]
	for _, m := range f.machines {
		for _, j := range m.active {
			if !j.seen && j.app.Done() {
				j.seen = true
				out = append(out, j)
			}
		}
	}
	f.compScratch = out
	return out
}

// bumpClock advances the lockstep clock by k ticks, with the same one-dt-
// at-a-time additions a tick-at-a-time loop performs so the clock value
// (and every timestamp derived from it) is independent of the window size.
func (f *Fleet) bumpClock(k int) {
	for i := 0; i < k; i++ {
		f.now += f.dt
	}
}

// pollLimit bounds how often an idle tick-pool goroutine re-checks the
// counter it waits on, yielding with runtime.Gosched between checks,
// before it parks on its channel. A chaos window averages under three
// ticks, so a channel park and unpark per window cost about as much as
// the window's work, while a polling waiter sees the next window within
// one yield. The bound is a count, not a time, because the fleet reads no
// wall clock (bwapvet's walltime rule). A yield on an idle core takes
// about 150–200 ns on a 2-vCPU VM, so 4,096 polls last 0.6–0.8 ms:
// longer than the scheduler's usual gap between windows (256 polls were
// measured too few to bridge it), short enough that a pool waiting out a
// long gap (a tuning probe, a slow event burst) soon parks and stops
// burning its core.
const pollLimit = 4096

// tickPool runs each window on min(Shards, GOMAXPROCS) goroutines: the
// scheduler, which calls runWindow, plus one helper per remaining slot,
// so no goroutine polls for a core it cannot have. All of them pull
// machine indices from one counter, so a window ends when its costliest
// machines are done rather than its busiest static share. The pool is
// started by the first window of a run() invocation and stopped, its
// helpers exited, before run() returns.
//
// Concurrency contract — the window barrier every counter hides behind:
// inside a window exactly one goroutine advances each machine, and a
// machine's engine is all it touches. Busy-time charging, the clock and
// the completion scan run on the scheduler after the barrier, so every
// Fleet field is written by the scheduler goroutine alone, and Stats —
// which runs under the server mutex, never concurrently with an Advance —
// reads only quiescent state. The -race HTTP load test and the repeated
// -race TestTickPool runs pin this.
type tickPool struct {
	gen  atomic.Uint64 // bumped by the scheduler to publish a window or the stop
	next atomic.Int64  // index into f.machines of the next machine to claim
	busy atomic.Int64  // helpers not yet done with the current window
	// k and stop are written by the scheduler before it bumps gen and read
	// by helpers only after they see the bump.
	k    int
	stop bool

	sched   parker   // the scheduler, waiting for busy to reach zero
	helpers []parker // helper i, waiting for gen to move
	wg      sync.WaitGroup
}

// parker is where one pool goroutine sleeps once its polls run out.
type parker struct {
	parked atomic.Bool
	wake   chan struct{} // capacity 1: the one token an unpark may owe
}

// await returns once ready reports true: it polls first, yielding between
// checks, and parks after pollLimit polls. Whoever clears parked — the
// waiter on a re-check, or the waker in unpark — decides whether a token
// is sent, so a wake-up is never lost; a late token from an earlier
// condition only costs one more check.
func (w *parker) await(ready func() bool) {
	for i := 0; !ready(); i++ {
		if i < pollLimit {
			runtime.Gosched()
			continue
		}
		w.parked.Store(true)
		if ready() && w.parked.CompareAndSwap(true, false) {
			return
		}
		<-w.wake
	}
}

// unpark wakes w if it is parked. Call it after making w's condition true.
func (w *parker) unpark() {
	if w.parked.CompareAndSwap(true, false) {
		w.wake <- struct{}{}
	}
}

// startPool builds the run's tick pool and its helper goroutines.
func (f *Fleet) startPool() *tickPool {
	p := &tickPool{sched: parker{wake: make(chan struct{}, 1)}}
	p.helpers = make([]parker, min(f.workers, runtime.GOMAXPROCS(0))-1)
	p.wg.Add(len(p.helpers))
	for i := range p.helpers {
		w := &p.helpers[i]
		w.wake = make(chan struct{}, 1)
		go f.help(p, w)
	}
	f.pool = p
	return p
}

// help is a helper goroutine's loop: wait for a window, pull machines
// until none are left, check out, and exit once the pool stops.
func (f *Fleet) help(p *tickPool, w *parker) {
	defer p.wg.Done()
	var seen uint64
	for {
		w.await(func() bool { return p.gen.Load() != seen })
		// gen cannot move again before this helper checks out of busy.
		seen = p.gen.Load()
		if p.stop {
			return
		}
		f.pullMachines(p)
		if p.busy.Add(-1) == 0 {
			p.sched.unpark()
		}
	}
}

// pullMachines advances machines claimed from the pool's counter until
// the window has none left.
func (f *Fleet) pullMachines(p *tickPool) {
	for {
		i := int(p.next.Add(1) - 1)
		if i >= len(f.machines) {
			return
		}
		f.machines[i].eng.AdvanceTicks(p.k)
	}
}

// stopPool ends the run's tick pool and returns once every helper has
// exited.
func (f *Fleet) stopPool() {
	p := f.pool
	if p == nil {
		return
	}
	p.stop = true
	p.publish()
	p.wg.Wait()
	f.pool = nil
}

// publish bumps the generation and wakes parked helpers; the scheduler
// sets k, next, busy or stop first.
func (p *tickPool) publish() {
	p.gen.Add(1)
	for i := range p.helpers {
		p.helpers[i].unpark()
	}
}

// runWindow advances every machine k ticks — one window of the fleet
// engine. Each engine greedily replays memoized stretches and takes full
// Steps at every boundary (sim.AdvanceTicks). The window sizer guarantees
// no completion and no scheduled event falls inside the window, and
// engines share no state, so the goroutine a machine lands on cannot
// change what it computes. The scheduler publishes the window, works
// through the counter alongside the helpers, then waits until every
// helper has checked out: after that no machine is touched until the next
// window. A width-1 fleet runs the window inline: a pool with no
// helper would only add its start, stop and atomics to every run()
// (about 400 ns and two allocations per 1-tick Advance).
func (f *Fleet) runWindow(k int) {
	if f.workers == 1 {
		for _, m := range f.machines {
			m.eng.AdvanceTicks(k)
		}
		return
	}
	p := f.pool
	if p == nil {
		p = f.startPool()
	}
	p.k = k
	p.next.Store(0)
	p.busy.Store(int64(len(p.helpers)))
	p.publish()
	f.pullMachines(p)
	p.sched.await(func() bool { return p.busy.Load() == 0 })
}

// advanceTo is the fleet engine: it advances every machine until the
// clock reaches t, one window at a time, stopping after the first window
// in which any job completes; the newly completed jobs are returned so
// the run loop can turn them into events. Each window is a barrier: its
// size comes from lookaheadWindow, every machine free-runs that many
// ticks, and only then do busy time, the clock and the completions move,
// on the scheduler goroutine. Determinism does not depend on the pool's
// width: machines share no state, the clock advances on the scheduler
// goroutine, and collectComps orders completions by machine id. Busy time
// is an integer count of node-ticks — occupancy is constant inside a
// window — so it too is exact for any cut into windows.
func (f *Fleet) advanceTo(t float64) []*Job {
	var comps []*Job
	for f.now+f.eps() < t {
		k := f.lookaheadWindow(t)
		f.batches++
		f.batchTicksSum += int64(k)
		f.runWindow(k)
		for _, m := range f.machines {
			f.busyNodeTicks += int64(k * (len(m.free) - m.freeCount))
		}
		f.bumpClock(k)
		if comps = f.collectComps(); len(comps) > 0 {
			break
		}
	}
	return comps
}
