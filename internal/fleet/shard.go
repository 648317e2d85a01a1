package fleet

// shard is one independently advanced slice of the fleet: a fixed machine
// set (global ids preserved, assigned round-robin by id so heterogeneous
// fleets stay balanced) and shard-local statistics. Events and the clock
// are fleet-wide; a shard owns only what a window mutates.
//
// Concurrency contract — the "shard barrier" every counter hides behind:
// a shard is touched by at most one goroutine inside a window (freeRun on
// the pool worker that owns it, or inline when the fleet has one worker),
// and the scheduler touches shards only between windows. Everything a
// window mutates (engines, busyNodeSeconds, the completion scratch) is
// therefore exclusively owned at every instant, and Stats/ShardStats —
// which run under the server mutex, never concurrently with an Advance —
// read only quiescent state. The -race HTTP load test pins this.
type shard struct {
	id       int
	machines []*machine // ascending global id
	nodes    int

	// Written by the owning worker during a window.
	busyNodeSeconds float64
	comps           []*Job // completions found this window, machine-ascending

	// Written by the scheduler between windows.
	admitted, completed, retunes int
	records                      int
	cacheHits, cacheMisses       int64
}

// freeRun advances every machine k ticks with no synchronization at all —
// one window of the fleet engine. Each engine greedily replays memoized
// stretches and takes full Steps at every boundary (sim.AdvanceTicks).
// The window sizer (lookaheadWindow) guarantees no completion and no
// scheduled event falls inside the window, so nothing a worker does here
// can interact across shards; the completion scan at the end is a
// defensive backstop that surfaces a completion the horizon missed rather
// than losing it. Busy-time charges repeat the per-tick additions in the
// same (tick, machine) order as a tick-at-a-time loop — occupancy is
// constant inside a window — so utilization accounting is independent of
// how a span of ticks is cut into windows. The clock advances only in
// advanceTo on the scheduler goroutine, so it has exactly one accumulation
// sequence.
func (s *shard) freeRun(k int, dt float64) {
	for _, m := range s.machines {
		m.eng.AdvanceTicks(k)
	}
	for i := 0; i < k; i++ {
		for _, m := range s.machines {
			s.busyNodeSeconds += float64(len(m.free)-m.freeCount) * dt
		}
	}
	s.collectComps()
}

// collectComps gathers jobs that completed during the window just run, in
// (machine id, admission order).
func (s *shard) collectComps() {
	for _, m := range s.machines {
		for _, j := range m.active {
			if !j.seen && j.app.Done() {
				j.seen = true
				s.comps = append(s.comps, j)
			}
		}
	}
}

// running counts the shard's currently placed jobs.
func (s *shard) running() int {
	n := 0
	for _, m := range s.machines {
		n += len(m.active)
	}
	return n
}

// gatherComps drains every shard's per-window completion scratch into one
// slice ordered by (machine id, admission order) — the exact order the
// pre-sharding scan produced, so completion events get the same sequence
// numbers regardless of how machines are partitioned.
func (f *Fleet) gatherComps() []*Job {
	total := 0
	for _, s := range f.shards {
		total += len(s.comps)
	}
	if total == 0 {
		return nil
	}
	out := f.compScratch[:0]
	for _, s := range f.shards {
		out = append(out, s.comps...)
		s.comps = s.comps[:0]
	}
	// Each shard's scratch is already machine-ascending; a stable
	// insertion sort across shards keeps the per-machine admission order
	// intact (equal machines never swap) without sort.SliceStable's
	// closure and swapper allocations — completion batches are tiny.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Machine < out[j-1].Machine; j-- {
			out[j], out[j-1] = out[j-1], out[j]
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

// tickPool is the bounded worker pool advancing shards in parallel:
// worker w owns shards w, w+W, ... and sleeps on its wake channel between
// windows. The wake message carries the window's tick count. The pool is
// created lazily by the first window of a run() invocation that needs it
// and torn down when run() returns, so its lifetime spans many
// inter-event advances instead of one goroutine spawn per event gap.
type tickPool struct {
	wake []chan int
	done chan int
}

func (f *Fleet) ensurePool() *tickPool {
	if f.pool != nil {
		return f.pool
	}
	nw := f.workers
	p := &tickPool{wake: make([]chan int, nw), done: make(chan int, nw)}
	for w := 0; w < nw; w++ {
		p.wake[w] = make(chan int)
		go func(w int) {
			for k := range p.wake[w] {
				f.runShards(w, k)
				p.done <- w
			}
		}(w)
	}
	f.pool = p
	return p
}

// stopPool releases the pool's workers; the wake-channel close makes each
// goroutine's range loop exit.
func (f *Fleet) stopPool() {
	if f.pool == nil {
		return
	}
	for _, c := range f.pool.wake {
		close(c)
	}
	f.pool = nil
}

// runShards runs worker w's share of a k-tick window: shards w, w+W, ...
// for W workers.
func (f *Fleet) runShards(w, k int) {
	for si := w; si < len(f.shards); si += f.workers {
		f.shards[si].freeRun(k, f.dt)
	}
}

// advanceTo is the fleet engine: it advances every shard until the clock
// reaches t, one window at a time, stopping after the first window in
// which any job completes; the newly completed jobs are returned so the
// run loop can turn them into events. Each window is a barrier: its size
// comes from lookaheadWindow, every shard free-runs that many ticks, and
// only then do the clock and the completions move. With one worker the
// shards run inline on the scheduler goroutine; otherwise the pool's
// workers run them and the window ends when all have replied. Determinism
// does not depend on the worker count: shards share no state, the clock
// advances on the scheduler goroutine, and gatherComps orders completions
// by machine id.
func (f *Fleet) advanceTo(t float64) []*Job {
	var comps []*Job
	for f.now+f.eps() < t {
		k := f.lookaheadWindow(t)
		f.batches++
		f.batchTicksSum += int64(k)
		if f.workers == 1 {
			f.runShards(0, k)
		} else {
			p := f.ensurePool()
			for _, c := range p.wake {
				c <- k
			}
			for range p.wake {
				<-p.done
			}
		}
		f.bumpClock(k)
		if comps = f.gatherComps(); len(comps) > 0 {
			break
		}
	}
	return comps
}
