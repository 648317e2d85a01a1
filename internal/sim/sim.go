// Package sim is the discrete-time execution engine of the reproduction.
//
// It binds together a machine (topology), its contended memory system
// (memsys), per-application address spaces (mm) and simulated performance
// counters (perf), then advances simulated time in fixed ticks. Each tick:
//
//  1. every running application turns its per-thread memory demand
//     (workload.Spec) into flows, split by page class (shared vs
//     thread-private) and by the current page placement of each class's
//     segments, throttled by the placement-weighted mean access latency;
//  2. the flow set of all co-scheduled applications is solved jointly for
//     demand-bounded max-min fair rates;
//  3. achieved bandwidth becomes application progress (scaled by parallel
//     efficiency), pays for any pending page-migration traffic, and is
//     accounted into PMU-style counters (stalled cycles, per-node and
//     per-pair throughput);
//  4. controller utilization feeds back into next tick's access latency
//     (queueing), and registered hooks — the BWAP tuners, AutoNUMA — run.
//
// Execution time of an application is the simulated time at which its work
// volume completes, the metric every figure of the paper reports.
package sim

import (
	"fmt"
	"math"
	"strconv"

	"bwap/internal/memsys"
	"bwap/internal/mm"
	"bwap/internal/perf"
	"bwap/internal/sched"
	"bwap/internal/stats"
	"bwap/internal/topology"
	"bwap/internal/workload"
)

// Placer is a page-placement policy: it performs the initial placement of
// an application's segments when the application starts. Policies that also
// act at runtime (AutoNUMA, the BWAP DWP tuner) additionally implement Hook
// and register themselves with the engine.
type Placer interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Place performs the initial placement of app's address space.
	Place(e *Engine, app *App) error
}

// Hook runs at the end of every engine tick, after counters are updated.
type Hook interface {
	Tick(e *Engine)
}

// Config tunes the engine. The zero value is completed by defaults.
//
// Mem and LatQueueFactor are pointers so that an explicit zero/disabled
// setting is distinguishable from "unset": nil selects the default, while
// a pointer to a zero value really means zero (e.g. LatQueueFactor
// pointing at 0 disables the queueing latency feedback entirely). Use
// FloatPtr and MemPtr to build them inline.
type Config struct {
	// DT is the tick length in simulated seconds (default 0.1).
	DT float64
	// MaxTime aborts the run after this much simulated time (default 3600).
	MaxTime float64
	// Mem configures the contention model; nil selects
	// memsys.DefaultConfig().
	Mem *memsys.Config
	// MigrationGBs is the bandwidth budget for draining page-migration
	// backlog, per application (default 2.0 GB/s). Migration traffic is
	// stolen from the application's achieved bandwidth, which is how the
	// DWP tuner's overhead arises.
	MigrationGBs float64
	// LatQueueFactor scales the utilization-dependent latency multiplier
	// on loaded memory controllers: mult = 1 + f·u²/(1.02−u). nil selects
	// the default 0.35; a pointer to 0 disables the feedback.
	LatQueueFactor *float64
	// LatSmoothing is the exponential smoothing factor for the latency
	// feedback across ticks, in (0,1] (default 0.5).
	LatSmoothing float64
	// DemandFactor uniformly scales per-thread demand on this machine
	// relative to the Table I reference measurement (default 1.0). The
	// Machine A experiment profile raises it: its cores were measured to
	// saturate their far weaker controllers (Section II).
	DemandFactor float64
	// StableAfter is the simulated time after an application's start at
	// which it enters its stable phase and calls BWAP-init (default 1.0 s).
	StableAfter float64
	// Seed derives the noise streams of any samplers hooks create.
	Seed uint64
	// DisableFastForward turns off the quiescent-interval fast-forward:
	// every tick rebuilds its flow set and runs a full memsys solve, even
	// when the inputs are provably unchanged. The fast path is bit-identical
	// to this naive loop by construction; the switch keeps the naive loop
	// alive as the reference implementation the equivalence tests and the
	// frozen-output pins compare against.
	DisableFastForward bool
	// SnapLatFeedback freezes the latency-feedback smoothing once an
	// update would move a multiplier by at most latSnapRel of its value:
	// the controller has reached its floating-point fixed point for all
	// practical purposes, and chasing the last few ULPs only keeps
	// latEpoch churning, which blocks the replay path for dozens of ticks
	// after every perturbation. This deliberately changes results at the
	// last-ULP level relative to the default loop, so the paper's
	// experiments leave it off; fleet.New turns it on for every machine
	// (DESIGN.md §12).
	SnapLatFeedback bool
}

// FloatPtr returns a pointer to v, for the Config fields where nil means
// "use the default" and a pointer to zero means "explicitly zero".
func FloatPtr(v float64) *float64 { return &v }

// MemPtr returns a pointer to a copy of cfg for Config.Mem.
func MemPtr(cfg memsys.Config) *memsys.Config { return &cfg }

func (c Config) withDefaults() Config {
	if c.DT <= 0 {
		c.DT = 0.1
	}
	if c.MaxTime <= 0 {
		c.MaxTime = 3600
	}
	if c.Mem == nil {
		c.Mem = MemPtr(memsys.DefaultConfig())
	}
	if c.MigrationGBs <= 0 {
		c.MigrationGBs = 2.0
	}
	if c.LatQueueFactor == nil {
		c.LatQueueFactor = FloatPtr(0.35)
	}
	if c.LatSmoothing <= 0 || c.LatSmoothing > 1 {
		c.LatSmoothing = 0.5
	}
	if c.DemandFactor <= 0 {
		c.DemandFactor = 1.0
	}
	if c.StableAfter <= 0 {
		c.StableAfter = defaultStableAfter
	}
	return c
}

// defaultStableAfter is the default stable-phase delay; StableSince must
// agree with withDefaults even when handed a raw Config.
const defaultStableAfter = 1.0

// App is one running application instance.
type App struct {
	Name    string
	Spec    workload.Spec
	Workers []topology.NodeID
	// Threads[i] is the thread count pinned on Workers[i] (one per core by
	// default, the paper's deployment rule).
	Threads []int
	// AS is the application's simulated address space.
	AS *mm.AddressSpace
	// Counters accumulates the app's simulated PMU state.
	Counters *perf.Counters
	// Background marks co-runners that never finish (Swaptions); the run
	// ends when all foreground apps finish.
	Background bool

	placer      Placer
	shared      *mm.Segment
	privSeg     []*mm.Segment // indexed like Workers; nil without private data
	workerIndex map[topology.NodeID]int
	// index is the app's position in the engine's app list; the tick loop
	// uses it to attribute flows through flat slices instead of maps.
	index int

	start float64
	// progressGB[i] tracks the work completed by the threads of Workers[i];
	// the run finishes when the slowest worker completes its share — the
	// "slowest worker dominates" semantic of the paper's Equation 3.
	progressGB []float64
	// tickByWorker is per-tick achieved-bandwidth scratch, reused across
	// ticks to keep the loop allocation-free.
	tickByWorker []float64
	workGB       float64
	migBacklogGB float64
	placed       bool
	done         bool
	finish       float64

	lastStallFrac float64
	lastAchieved  float64
	lastDemand    float64

	// Quiescence bookkeeping, recorded when the engine caches a flow solve:
	// the placement epoch and phase factors the solve was built from, and
	// the work fraction at which the app's next phase starts (+Inf when
	// none). A replayed tick is valid only while these still describe the
	// app.
	solveASEpoch  uint64
	solvePhase    float64
	solveKappa    float64
	nextPhaseFrac float64
}

// SharedSegment returns the app's shared-data segment (nil if the workload
// has no shared accesses).
func (a *App) SharedSegment() *mm.Segment { return a.shared }

// PrivateSegment returns the private segment owned by worker node w, or nil.
func (a *App) PrivateSegment(w topology.NodeID) *mm.Segment {
	if wi, ok := a.workerIndex[w]; ok && a.privSeg != nil {
		return a.privSeg[wi]
	}
	return nil
}

// Segments returns all of the app's segments.
func (a *App) Segments() []*mm.Segment { return a.AS.Segments() }

// Done reports whether the app completed its work.
func (a *App) Done() bool { return a.done }

// FinishTime returns the simulated completion time; meaningless until Done.
func (a *App) FinishTime() float64 { return a.finish }

// Progress returns total completed work in equivalent GB, summed over
// workers.
func (a *App) Progress() float64 {
	total := 0.0
	for _, p := range a.progressGB {
		total += p
	}
	return total
}

// WorkerProgress returns the completed work of Workers[i] in GB.
func (a *App) WorkerProgress(i int) float64 { return a.progressGB[i] }

// StallFraction returns the stall fraction of the most recent tick.
func (a *App) StallFraction() float64 { return a.lastStallFrac }

// AchievedGBs returns the achieved bandwidth of the most recent tick.
func (a *App) AchievedGBs() float64 { return a.lastAchieved }

// DemandGBs returns the unthrottled demand of the most recent tick.
func (a *App) DemandGBs() float64 { return a.lastDemand }

// Placer returns the app's placement policy.
func (a *App) Placer() Placer { return a.placer }

// StableSince returns the simulated time at which the app entered (or will
// enter) its stable phase.
func (a *App) StableSince(cfg Config) float64 {
	sa := cfg.StableAfter
	if sa <= 0 {
		sa = defaultStableAfter
	}
	return a.start + sa
}

// Engine advances a set of co-scheduled applications through simulated time.
type Engine struct {
	M   *topology.Machine
	Sys *memsys.System
	Cfg Config

	apps    []*App
	hooks   []hookEntry
	now     float64
	ticks   int
	latMult []float64
	rng     *rngState

	// Resolved configuration values, so the tick loop never chases Config
	// pointers.
	memCfg memsys.Config
	latQF  float64

	// Reusable tick-loop state: the solver carries all progressive-filling
	// scratch, flows/metas are the per-tick flow set, and the per-app
	// slices replace the attribution maps a naive loop would allocate.
	solver       *memsys.Solver
	flows        []memsys.Flow
	metas        []flowMeta
	tickAchieved []float64
	tickRawRatio []float64

	// Quiescent-interval fast-forward state. A tick whose inputs (app set,
	// placements, phase factors, latency multipliers) are unchanged since
	// the cached solve replays the cached per-flow rates — the same
	// floating-point additions in the same order, so results stay
	// byte-identical — instead of rebuilding flows and solving again.
	ff         bool           // fast-forward enabled
	lastRes    *memsys.Result // cached solve; owned by e.solver
	solveValid bool           // lastRes matches flows/metas from a real solve
	stateEpoch uint64         // app set / placement lifecycle epoch
	latEpoch   uint64         // bumped when latency feedback changes latMult
	solveState uint64         // stateEpoch captured at the cached solve
	solveLat   uint64         // latEpoch captured at the cached solve
	solveSolve uint64         // solver epoch captured at the cached solve
	ffSolves   int            // ticks that ran a full flow build + solve
	ffReplays  int            // ticks served from the cached solve
}

type rngState struct{ next uint64 }

// hookEntry binds a hook to the app that owns it (nil for engine-global
// hooks), so RemoveApp can detach an app's tuners along with the app.
type hookEntry struct {
	h     Hook
	owner *App
}

// New returns an engine for the machine.
func New(m *topology.Machine, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	lat := make([]float64, m.NumNodes())
	for i := range lat {
		lat[i] = 1
	}
	sys := memsys.New(m, *cfg.Mem)
	return &Engine{
		M:       m,
		Sys:     sys,
		Cfg:     cfg,
		latMult: lat,
		rng:     &rngState{next: cfg.Seed},
		memCfg:  *cfg.Mem,
		latQF:   *cfg.LatQueueFactor,
		solver:  sys.NewSolver(),
		ff:      !cfg.DisableFastForward,
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() float64 { return e.now }

// Ticks returns the number of completed ticks.
func (e *Engine) Ticks() int { return e.ticks }

// LatMultipliers returns the per-node utilization-driven latency
// multipliers the feedback loop has settled on — the engine's latency-
// feedback fixed point, exposed read-only so observers can record it as a
// first-class signal. The slice is the engine's own; callers must not
// mutate it.
func (e *Engine) LatMultipliers() []float64 { return e.latMult }

// Apps returns the registered applications.
func (e *Engine) Apps() []*App { return e.apps }

// NextSeed returns a fresh deterministic seed derived from the engine seed,
// for hooks that need their own noise streams.
func (e *Engine) NextSeed() uint64 {
	e.rng.next = e.rng.next*0x5851f42d4c957f2d + 0x14057b7ef767814f
	return e.rng.next
}

// AddHook registers an engine-global per-tick hook.
func (e *Engine) AddHook(h Hook) { e.hooks = append(e.hooks, hookEntry{h: h}) }

// AddAppHook registers a per-tick hook owned by app: RemoveApp(app) will
// drop it together with the app. Placement policies that attach per-app
// runtime state (the BWAP tuners) register through this.
func (e *Engine) AddAppHook(app *App, h Hook) {
	e.hooks = append(e.hooks, hookEntry{h: h, owner: app})
}

// AddApp registers an application on the given worker nodes with one thread
// pinned per core, creating its address space (one shared segment plus one
// private segment per worker, sized by the spec).
func (e *Engine) AddApp(name string, spec workload.Spec, workers []topology.NodeID, placer Placer) (*App, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if placer == nil {
		return nil, fmt.Errorf("sim: app %s has no placer", name)
	}
	if len(workers) == 0 {
		return nil, fmt.Errorf("sim: app %s has no workers", name)
	}
	for i, w := range workers {
		if int(w) < 0 || int(w) >= e.M.NumNodes() {
			return nil, fmt.Errorf("sim: app %s worker %d out of range", name, w)
		}
		// Worker sets are machine-sized, so a quadratic scan beats a
		// duplicate-detection map and its allocations on the fleet's
		// app-creation hot path.
		for _, prev := range workers[:i] {
			if prev == w {
				return nil, fmt.Errorf("sim: app %s duplicate worker %d", name, w)
			}
		}
	}
	for _, other := range e.apps {
		if other.Name == name {
			return nil, fmt.Errorf("sim: duplicate app name %q", name)
		}
	}
	app := &App{
		Name:        name,
		Spec:        spec,
		Workers:     append([]topology.NodeID(nil), workers...),
		Threads:     sched.PinAllCores(e.M, workers),
		AS:          mm.NewAddressSpace(e.M.NumNodes()),
		Counters:    perf.NewCounters(e.M.NumNodes()),
		Background:  spec.ComputeBound,
		placer:      placer,
		workerIndex: make(map[topology.NodeID]int, len(workers)),
		index:       len(e.apps),
		workGB:      spec.WorkGB,
		start:       e.now,
	}
	// Both per-worker accumulators share one backing array; the full slice
	// expression keeps progressGB from growing into tickByWorker.
	acc := make([]float64, 2*len(workers))
	app.progressGB = acc[:len(workers):len(workers)]
	app.tickByWorker = acc[len(workers):]
	for i, w := range app.Workers {
		app.workerIndex[w] = i
	}
	if spec.SharedGB > 0 {
		app.shared = app.AS.AddSegment("shared", uint64(spec.SharedGB*float64(1<<30)), mm.SharedOwner)
	}
	if spec.PrivateGBPerNode > 0 {
		app.privSeg = make([]*mm.Segment, len(workers))
		for i, w := range app.Workers {
			// Same bytes as fmt.Sprintf("priv-n%d", w) without the
			// operand boxing; node ids are validated non-negative above.
			app.privSeg[i] = app.AS.AddSegment("priv-n"+strconv.Itoa(int(w)),
				uint64(spec.PrivateGBPerNode*float64(1<<30)), w)
		}
	}
	e.apps = append(e.apps, app)
	e.stateEpoch++
	return app, nil
}

// Result summarizes a completed run.
type Result struct {
	// Times maps foreground app names to completion times in simulated
	// seconds.
	Times map[string]float64
	// AvgStallRate maps app names (including background apps) to their
	// lifetime average stalled cycles per second.
	AvgStallRate map[string]float64
	// Elapsed is the total simulated duration of the run.
	Elapsed float64
	// TimedOut reports that MaxTime was hit before all foreground apps
	// finished.
	TimedOut bool
}

// Run places every app, then ticks until all foreground apps complete (or
// MaxTime elapses). It may be called once per engine. Quiescent stretches
// are fast-forwarded: the cached flow solve is replayed tick by tick (bit-
// identical to solving each tick) until the next completion or phase
// crossing, which ReplayTicks detects exactly.
func (e *Engine) Run() (*Result, error) {
	if err := e.place(); err != nil {
		return nil, err
	}
	e.prepare()
	for !e.allForegroundDone() {
		if e.now >= e.Cfg.MaxTime {
			return e.result(true), nil
		}
		if e.ReplayTicks(e.ticksBefore(e.Cfg.MaxTime)) == 0 {
			e.tick()
		}
	}
	return e.result(false), nil
}

// place runs every app's initial placement and validates full mapping.
func (e *Engine) place() error {
	foreground := 0
	for _, a := range e.apps {
		if !a.Background {
			foreground++
		}
	}
	if foreground == 0 {
		return fmt.Errorf("sim: no foreground applications")
	}
	for _, a := range e.apps {
		if a.placed {
			continue
		}
		if err := e.PlaceApp(a); err != nil {
			return err
		}
	}
	return nil
}

// PlaceApp runs the app's initial placement immediately and validates that
// every page got mapped. Run calls it for every registered app; callers
// driving the engine incrementally (Step/AdvanceTo) must call it themselves
// after AddApp — an unplaced app does not execute. Placing twice is an
// error.
func (e *Engine) PlaceApp(a *App) error {
	if a.placed {
		return fmt.Errorf("sim: app %s already placed", a.Name)
	}
	if err := a.placer.Place(e, a); err != nil {
		return fmt.Errorf("sim: placing %s with %s: %w", a.Name, a.placer.Name(), err)
	}
	for _, seg := range a.AS.Segments() {
		if seg.MappedPages() != seg.PageCount() {
			return fmt.Errorf("sim: %s: policy %s left %d/%d pages of %s unmapped",
				a.Name, a.placer.Name(), seg.PageCount()-seg.MappedPages(), seg.PageCount(), seg.Name())
		}
	}
	// The initial allocation-time placement is not a migration; the
	// backlog starts clean.
	a.AS.DrainMigratedBytes()
	a.placed = true
	e.stateEpoch++
	return nil
}

// RemoveApp deregisters a departed app and any hooks it owns, so a
// long-lived engine serving a stream of jobs does not accumulate per-tick
// work for applications that already finished. The app's address space and
// counters stay valid for post-mortem inspection. Removing an app that was
// never registered (or was already removed) is an error. Must not be called
// from inside a hook.
func (e *Engine) RemoveApp(a *App) error {
	idx := -1
	for i, x := range e.apps {
		if x == a {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("sim: app %s not registered", a.Name)
	}
	e.apps = append(e.apps[:idx], e.apps[idx+1:]...)
	for i, x := range e.apps {
		x.index = i
	}
	kept := e.hooks[:0]
	for _, he := range e.hooks {
		if he.owner != a {
			kept = append(kept, he)
		}
	}
	for i := len(kept); i < len(e.hooks); i++ {
		e.hooks[i] = hookEntry{} // release removed hooks for GC
	}
	e.hooks = kept
	e.stateEpoch++
	return nil
}

// Step advances the simulation by exactly one tick, regardless of
// completion state — the engine idles fine with zero runnable apps, which
// is what keeps a fleet of machines advancing in lockstep. Apps must have
// been placed (PlaceApp); unplaced apps are skipped.
func (e *Engine) Step() { e.tick() }

// AdvanceTicks advances exactly k ticks, greedily: memoized stretches run
// through ReplayTicks, and every boundary between them (a phase or init
// crossing, a completion, a stale solve) takes one full Step before the
// replay path is tried again. Byte-identical to k Steps.
func (e *Engine) AdvanceTicks(k int) {
	for k > 0 {
		if r := e.ReplayTicks(k); r > 0 {
			k -= r
			continue
		}
		e.tick()
		k--
	}
}

// AdvanceTo ticks until the engine clock reaches t (within half a tick).
// It is the run-until-event primitive: a caller that knows the next
// externally scheduled event advances to it, mutates the app set
// (AddApp/PlaceApp/RemoveApp), and resumes. Unlike Run it does not stop
// when foreground apps finish; poll Apps()[i].Done() between calls.
//
// The tick count is computed once from (t − now)/DT and the loop runs on
// an integer counter: the clock's repeated += DT accumulation can drift by
// several ULPs over a long advance, and re-testing `now + DT/2 < t` per
// tick made the tick count depend on that drift (over- or under-ticking
// for large t).
func (e *Engine) AdvanceTo(t float64) { e.AdvanceTicks(e.remainingTicks(t)) }

// remainingTicks returns how many ticks AdvanceTo(t) still has to run:
// the count a drift-free `now + DT/2 < t` loop would execute.
func (e *Engine) remainingTicks(t float64) int {
	n := math.Ceil((t-e.now)/e.Cfg.DT - 0.5)
	if n <= 0 || math.IsNaN(n) {
		return 0
	}
	if n > 1<<40 {
		n = 1 << 40
	}
	return int(n)
}

// ticksBefore returns a conservative count of ticks that keep the clock
// strictly below t — the bound Run hands to ReplayTicks so a replay batch
// never crosses MaxTime.
func (e *Engine) ticksBefore(t float64) int {
	n := (t - e.now) / e.Cfg.DT
	if !(n > 0) { // also catches NaN
		return 0
	}
	if !(n < 1<<40) { // clamp before int(): out-of-range conversion wraps
		n = 1 << 40
	}
	return max(int(n)-1, 0)
}

// prepare sizes the per-app tick scratch once the app set is final.
func (e *Engine) prepare() {
	if len(e.tickAchieved) < len(e.apps) {
		e.tickAchieved = make([]float64, len(e.apps))
		e.tickRawRatio = make([]float64, len(e.apps))
	}
}

func (e *Engine) allForegroundDone() bool {
	for _, a := range e.apps {
		if !a.Background && !a.done {
			return false
		}
	}
	return true
}

func (e *Engine) result(timedOut bool) *Result {
	res := &Result{
		Times:        make(map[string]float64),
		AvgStallRate: make(map[string]float64),
		Elapsed:      e.now,
		TimedOut:     timedOut,
	}
	for _, a := range e.apps {
		if !a.Background {
			t := a.finish
			if !a.done {
				t = math.Inf(1)
			}
			res.Times[a.Name] = t
		}
		res.AvgStallRate[a.Name] = a.Counters.AvgStallRate()
	}
	return res
}

// flowMeta carries per-flow attribution through the solver.
type flowMeta struct {
	app     *App
	wi      int // index into app.Workers of the flow's destination
	private bool
	src     topology.NodeID
	dst     topology.NodeID
	// rawRatio converts controller-equivalent rate back to raw bytes.
	rawRatio float64
	// readFrac splits raw bytes into reads vs writes.
	readFrac float64
}

// tick advances the simulation by one DT. All intermediate state lives in
// buffers reused across ticks: at steady state a tick performs no heap
// allocation (pinned by TestTickAllocationFree).
//
// The tick is memoized: when canReplay proves the flow-solve inputs are
// bit-identical to the cached solve's, the expensive half (flow rebuild,
// segment Fractions, throttle, memsys.Solve) is skipped and the cached
// per-flow rates are replayed through the same attribution, progress and
// feedback code — the identical floating-point additions in the identical
// order, so a replayed tick is byte-equal to a solved one by construction.
func (e *Engine) tick() {
	e.prepare()
	if e.ff && e.canReplay() {
		e.ffReplays++
	} else {
		e.buildFlows()
		e.lastRes = e.solver.Solve(e.flows)
		e.ffSolves++
		e.noteSolve()
	}
	e.attribute()
	e.advanceApps()
	e.feedback()
	for _, he := range e.hooks {
		he.h.Tick(e)
	}
	e.now += e.Cfg.DT
	e.ticks++
}

// phaseFactors returns the demand and latency factors a tick starting at
// the current clock applies to app a — the only tick inputs that change
// with time and progress rather than through an epoch-counted mutation.
func (e *Engine) phaseFactors(a *App) (phase, kappaFactor float64) {
	phase = 1.0
	kappaFactor = 1.0
	if len(a.Spec.Phases) > 0 && a.workGB > 0 {
		phase, kappaFactor = a.Spec.PhaseAt(a.Progress() / a.workGB)
	}
	if a.Spec.InitSeconds > 0 && e.now-a.start < a.Spec.InitSeconds {
		// Initialization phases (allocation, input parsing) have
		// erratic memory behaviour — the reason the paper defers
		// BWAP-init to the stable phase. A deterministic pseudo-random
		// burst pattern around the init demand level models that: the
		// MAPI phase detector must not see a steady signal before the
		// boundary.
		slot := uint64((e.now - a.start) / 0.3)
		h := slot*2654435761 + 0x9e3779b9
		h ^= h >> 13
		u := float64(h%1000) / 1000
		phase = a.Spec.InitDemandFactor * (0.3 + 1.4*u)
		kappaFactor = 1
	}
	return phase, kappaFactor
}

// inInit reports whether a is inside its initialization burst window, in
// which demand changes every 0.3 s slot.
func (e *Engine) inInit(a *App) bool {
	return a.Spec.InitSeconds > 0 && e.now-a.start < a.Spec.InitSeconds
}

// buildFlows turns every running app's demand into the per-tick flow set.
func (e *Engine) buildFlows() {
	flows := e.flows[:0]
	metas := e.metas[:0]

	for _, a := range e.apps {
		if a.done || !a.placed {
			continue
		}
		a.lastDemand = 0
		phase, kappaFactor := e.phaseFactors(a)
		a.solvePhase, a.solveKappa = phase, kappaFactor
		perThreadRead := a.Spec.PerThreadReadGBs() * e.Cfg.DemandFactor * phase
		perThreadWrite := a.Spec.PerThreadWriteGBs() * e.Cfg.DemandFactor * phase
		rawPerThread := perThreadRead + perThreadWrite
		eqPerThread := e.memCfg.EquivalentDemand(perThreadRead, perThreadWrite)
		readFrac := 0.0
		if rawPerThread > 0 {
			readFrac = perThreadRead / rawPerThread
		}
		rawRatio := 0.0
		if eqPerThread > 0 {
			rawRatio = rawPerThread / eqPerThread
		}

		for wi, w := range a.Workers {
			threads := a.Threads[wi]
			eqNode := eqPerThread * float64(threads)
			first := true
			for ci := 0; ci < 2; ci++ {
				var private bool
				var frac float64
				var seg *mm.Segment
				if ci == 0 {
					private, frac, seg = false, a.Spec.SharedFrac(), a.shared
				} else {
					private, frac = true, a.Spec.PrivateFrac
					if a.privSeg != nil {
						seg = a.privSeg[wi]
					}
				}
				if frac <= 0 || seg == nil {
					continue
				}
				eqClass := eqNode * frac
				a.lastDemand += eqClass
				fr := seg.Fractions()
				throttle := e.throttle(a.Spec.LatencySensitivity*kappaFactor, fr, w)
				for s, f := range fr {
					if f <= 0 {
						continue
					}
					streams := -1 // already counted for this (app, worker)
					if first {
						streams = threads
					}
					flows = append(flows, memsys.Flow{
						Src:     topology.NodeID(s),
						Dst:     w,
						Demand:  eqClass * throttle * f,
						Streams: streams,
						Tag:     len(metas),
					})
					metas = append(metas, flowMeta{
						app: a, wi: wi, private: private,
						src: topology.NodeID(s), dst: w,
						rawRatio: rawRatio, readFrac: readFrac,
					})
					first = false
				}
			}
		}
	}
	e.flows, e.metas = flows, metas
}

// noteSolve captures the inputs the solve just consumed, so later ticks
// can prove (canReplay) that replaying its rates is byte-equal to solving
// again. buildFlows already stored each app's phase factors.
func (e *Engine) noteSolve() {
	e.solveValid = true
	e.solveState = e.stateEpoch
	e.solveLat = e.latEpoch
	e.solveSolve = e.solver.Epoch()
	for _, a := range e.apps {
		if a.done || !a.placed {
			continue
		}
		a.solveASEpoch = a.AS.PlacementEpoch()
		a.nextPhaseFrac = math.Inf(1)
		if len(a.Spec.Phases) > 0 && a.workGB > 0 {
			frac := a.Progress() / a.workGB
			for _, ph := range a.Spec.Phases {
				if ph.AtWorkFraction > frac {
					a.nextPhaseFrac = ph.AtWorkFraction
					break
				}
			}
		}
	}
}

// canReplay reports whether the cached solve's inputs are bit-identical to
// the ones buildFlows would produce right now: same app set and lifecycle
// state (stateEpoch), same placements (per-address-space epochs), same
// phase/init demand factors, and the same latency multipliers the throttle
// would read (latEpoch — unchanged exactly when the feedback loop reached
// its floating-point fixed point). Identical inputs make the solver — a
// deterministic function — return identical rates, so replaying the cache
// is equality, not approximation.
func (e *Engine) canReplay() bool {
	if !e.solveValid || e.stateEpoch != e.solveState || e.latEpoch != e.solveLat ||
		e.solveSolve != e.solver.Epoch() {
		return false
	}
	for _, a := range e.apps {
		if a.done || !a.placed {
			continue
		}
		if a.AS.PlacementEpoch() != a.solveASEpoch {
			return false
		}
		phase, kappa := e.phaseFactors(a)
		if phase != a.solvePhase || kappa != a.solveKappa {
			return false
		}
	}
	return true
}

// attribute spreads the solved per-flow rates over apps, workers and PMU
// counters. Progress is accounted in raw bytes (reads+writes), so
// write-heavy workloads pay the controller's write penalty in completion
// time.
func (e *Engine) attribute() {
	dt := e.Cfg.DT
	flows, metas := e.flows, e.metas
	res := e.lastRes
	achieved := e.tickAchieved
	rawRatioOf := e.tickRawRatio
	for _, a := range e.apps {
		achieved[a.index] = 0
		rawRatioOf[a.index] = 0
		for wi := range a.tickByWorker {
			a.tickByWorker[wi] = 0
		}
	}
	for i := range flows {
		meta := &metas[i]
		rate := res.Rates[i]
		achieved[meta.app.index] += rate
		meta.app.tickByWorker[meta.wi] += rate
		rawRatioOf[meta.app.index] = meta.rawRatio
		bytes := rate * 1e9 * dt
		c := meta.app.Counters
		c.NodeOutBytes[meta.src] += bytes
		c.PairBytes[meta.src][meta.dst] += bytes
		raw := bytes * meta.rawRatio
		c.BytesRead += raw * meta.readFrac
		c.BytesWritten += raw * (1 - meta.readFrac)
		if meta.private {
			c.PrivateBytes += raw
		} else {
			c.SharedBytes += raw
		}
	}
}

// advanceApps charges migration cost, updates stall accounting and worker
// progress, and detects completions. It reports whether the tick hit a
// quiescence boundary — an app completed or crossed its next phase
// threshold — which is what ends an unchecked replay batch.
func (e *Engine) advanceApps() bool {
	dt := e.Cfg.DT
	achieved := e.tickAchieved
	rawRatioOf := e.tickRawRatio
	boundary := false
	for _, a := range e.apps {
		if a.done || !a.placed {
			continue
		}
		ach := achieved[a.index]
		// Page migration steals bandwidth from the app (bounded so the app
		// always keeps making some progress, as the kernel's rate-limited
		// migration does).
		a.migBacklogGB += float64(a.AS.DrainMigratedBytes()) / 1e9
		migCost := math.Min(a.migBacklogGB, e.Cfg.MigrationGBs*dt)
		migCost = math.Min(migCost, 0.5*ach*dt)
		a.migBacklogGB -= migCost
		achEff := ach - migCost/dt

		stall := 0.0
		if a.lastDemand > 0 {
			stall = stats.Clamp(1-achEff/a.lastDemand, 0, 1)
		}
		a.lastStallFrac = stall
		a.lastAchieved = achEff
		a.Counters.Time += dt
		a.Counters.Cycles += perf.ClockHz * dt
		a.Counters.StalledCycles += stall * perf.ClockHz * dt
		// Retired instructions: unstalled cycles at nominal IPC 1 — the
		// denominator of the MAPI classification metric.
		a.Counters.Instructions += (1 - stall) * perf.ClockHz * dt

		if !a.Background {
			eta := a.Spec.ParallelEfficiency(len(a.Workers))
			// Migration cost scales every worker's useful bandwidth down
			// uniformly.
			scale := 1.0
			if ach > 0 {
				scale = achEff / ach
			}
			share := a.workGB / float64(len(a.Workers))
			allDone := true
			lastFraction := 0.0
			for wi := range a.Workers {
				before := a.progressGB[wi]
				delta := a.tickByWorker[wi] * rawRatioOf[a.index] * scale * eta * dt
				a.progressGB[wi] = before + delta
				if a.progressGB[wi] < share {
					allDone = false
					continue
				}
				if before < share && delta > 0 {
					// This worker crossed its share within this tick;
					// remember the latest crossing point for interpolation.
					if f := (share - before) / delta; f > lastFraction {
						lastFraction = f
					}
				}
			}
			if allDone {
				a.done = true
				a.finish = e.now + dt*stats.Clamp(lastFraction, 0, 1)
				if lastFraction == 0 {
					a.finish = e.now + dt
				}
				// A departed flow set invalidates the cached solve.
				e.stateEpoch++
				boundary = true
			} else if a.Progress()/a.workGB >= a.nextPhaseFrac {
				// Crossed into the next phase: the following tick's demand
				// factors change, so a replay batch must stop here. The
				// test is PhaseAt's own expression, so the two can never
				// disagree in the last ULP.
				boundary = true
			}
		}
	}
	return boundary
}

// feedback applies the queueing-latency feedback: loaded controllers
// answer slower next tick. latEpoch advances only when some multiplier
// actually changes; once the exponential smoothing reaches its
// floating-point fixed point under stable utilization the epoch stands
// still — one of the quiescence conditions.
func (e *Engine) feedback() {
	sm := e.Cfg.LatSmoothing
	changed := false
	for i, u := range e.lastRes.ControllerUtil {
		u = stats.Clamp(u, 0, 1)
		target := 1 + e.latQF*u*u/(1.02-u)
		next := (1-sm)*e.latMult[i] + sm*target
		if next == e.latMult[i] {
			continue
		}
		if e.Cfg.SnapLatFeedback && math.Abs(next-e.latMult[i]) <= latSnapRel*e.latMult[i] {
			continue // sub-ULP drift: treat the fixed point as reached
		}
		e.latMult[i] = next
		changed = true
	}
	if changed {
		e.latEpoch++
	}
}

// latSnapRel is the SnapLatFeedback freeze threshold: 2⁻⁴⁶ ≈ 64 ULPs for
// multipliers in [1,2). Geometric smoothing halves the residual each tick,
// so the snap cuts ~45 ticks of sub-ULP epoch churn per perturbation while
// pinning the multiplier within 64 ULPs of the exact fixed point; any
// material utilization shift moves the target far past the threshold and
// the controller tracks it again immediately.
const latSnapRel = 0x1p-46

// ReplayTicks advances up to n ticks on the memoized replay path without
// per-tick revalidation: no epoch checks, no latency feedback (provably a
// no-op while quiescent) and no hook dispatch. It stops after a tick that
// hits a boundary — an app completing or crossing a phase threshold, both
// detected exactly from the live progress values — and returns the number
// of ticks advanced. 0 means the engine is not replayable right now
// (stale solve, hooks registered, an app inside its init burst, or
// DisableFastForward); callers fall back to Step. Every tick it advances
// is byte-identical to a full Step.
func (e *Engine) ReplayTicks(n int) int {
	if n <= 0 || !e.ff || len(e.hooks) > 0 || !e.canReplay() {
		return 0
	}
	for _, a := range e.apps {
		if !a.done && a.placed && e.inInit(a) {
			return 0 // init-burst demand changes every 0.3 s slot
		}
	}
	dt := e.Cfg.DT
	for i := 0; i < n; i++ {
		e.attribute()
		boundary := e.advanceApps()
		e.now += dt
		e.ticks++
		e.ffReplays++
		if boundary {
			return i + 1
		}
	}
	return n
}

// CompletionHorizonTicks returns a conservative count of upcoming ticks
// (at most limit) that provably cannot complete any foreground app, no
// matter what the flow solver does in between. Solved rates are
// demand-bounded (max-min fairness never grants a flow more than it asks
// for), and migration cost and throttling only slow progress further — so
// per-worker progress per tick is bounded by the worker's unthrottled
// demand under the worst demand factor actually reachable within the
// window (see appCompletionHorizon), and completion (every worker at its
// share) cannot fire before the slowest worker's gap divided by that
// bound. This needs no quiescence: solves, placement changes, phase and
// init crossings may all happen inside the horizon; only completions
// cannot. 0 means a completion may be imminent, or hooks could mutate
// apps mid-window. The fleet engine (DESIGN.md §12) sizes its
// barrier-free windows with this bound.
func (e *Engine) CompletionHorizonTicks(limit int) int {
	if limit <= 0 || len(e.hooks) > 0 {
		return 0
	}
	// Cap each window so the within-window float accumulation (≤ window ×
	// ulp(share)/2 in progress units) stays orders of magnitude below the
	// boundaryTicks margin even for extremely slow workers; longer spans
	// simply take several windows, each re-bounded from the live state.
	n := min(limit, 1<<20)
	for _, a := range e.apps {
		if a.done || !a.placed || a.Background {
			continue
		}
		n = e.appCompletionHorizon(a, n)
		if n == 0 {
			return 0
		}
	}
	return n
}

// appCompletionHorizon bounds the ticks (at most limit) before app a can
// possibly complete, using the per-phase demand schedule instead of a
// single lifetime peak. It maintains fWorst, an upper bound on every
// demand factor phaseFactors can return while total progress stays below
// the next unfolded phase boundary:
//
//   - Progress is monotone, so phases behind the current one never recur;
//     fWorst starts at the factor currently in force.
//   - While inside the init burst, its peak (InitDemandFactor·(0.3+1.4u)
//     with u < 1, hence ·1.7) is folded across the whole window — the
//     burst never recurs after expiry, so later-window phase factors are
//     already covered by the phase folding. Outside the burst it can
//     never re-enter (e.now − a.start only grows) and is ignored.
//
// The loop then alternates bounding and widening: bound completion under
// fWorst (slowest worker's gap over its demand-bounded delta); if total
// progress — advancing at the fWorst-bounded aggregate rate, an upper
// bound on the true rate while fWorst is valid — provably cannot reach
// the next phase boundary within that many ticks, the bound is sound and
// returned. Otherwise the next phase's factor is folded into fWorst and
// the bound recomputed; the phase index strictly increases, so the loop
// terminates. Workloads whose demand peaks late (e.g. a 3× compaction
// phase at 90% progress) thus get horizons sized by the phases actually
// reachable, not by the lifetime peak — wider free-run windows and fewer
// window barriers for the same, unchanged, per-tick state sequence.
func (e *Engine) appCompletionHorizon(a *App, limit int) int {
	dt := e.Cfg.DT
	eta := a.Spec.ParallelEfficiency(len(a.Workers))
	// base is the per-thread demand-bounded progress delta per tick under a
	// demand factor of 1; a worker's delta under fWorst is
	// base·threads·fWorst.
	base := (a.Spec.PerThreadReadGBs() + a.Spec.PerThreadWriteGBs()) *
		e.Cfg.DemandFactor * eta * dt
	share := a.workGB / float64(len(a.Workers))

	phased := len(a.Spec.Phases) > 0 && a.workGB > 0
	progress := a.Progress()
	fWorst := 1.0
	if phased {
		fWorst, _ = a.Spec.PhaseAt(progress / a.workGB)
	}
	if e.inInit(a) {
		fWorst = math.Max(fWorst, a.Spec.InitDemandFactor*1.7)
	}
	idx := len(a.Spec.Phases) // first boundary still ahead of progress
	if phased {
		for idx = 0; idx < len(a.Spec.Phases); idx++ {
			if a.Spec.Phases[idx].AtWorkFraction*a.workGB > progress {
				break
			}
		}
	}
	totalThreads := 0.0
	for wi := range a.Workers {
		totalThreads += float64(a.Threads[wi])
	}

	for {
		// Completion needs every worker at its share, so the slowest
		// worker's provably-free ticks bound the app's completion tick.
		comp := 0
		for wi := range a.Workers {
			gap := share - a.progressGB[wi]
			if gap <= 0 {
				continue
			}
			comp = max(comp, boundaryTicks(gap, base*float64(a.Threads[wi])*fWorst))
			if comp >= limit {
				comp = limit
				break
			}
		}
		comp = min(comp, limit)
		if comp == 0 || idx >= len(a.Spec.Phases) {
			return comp
		}
		// fWorst is only valid while total progress stays below the next
		// unfolded boundary. If the aggregate fWorst-bounded rate cannot
		// carry progress there within comp ticks, no unfolded factor can
		// apply inside the window and comp is sound.
		bound := a.Spec.Phases[idx].AtWorkFraction * a.workGB
		if boundaryTicks(bound-progress, base*totalThreads*fWorst) >= comp {
			return comp
		}
		fWorst = math.Max(fWorst, a.Spec.Phases[idx].DemandFactor)
		idx++
	}
}

// boundaryTicks lower-bounds how many constant-delta ticks fit strictly
// below gap. The prediction is shaved by a relative safety margin (1e-9,
// plus two ticks) that dominates worst-case floating-point accumulation
// drift for any realistic run length.
func boundaryTicks(gap, delta float64) int {
	// never is 2^40 ticks, or the largest int where int has 32 bits.
	const never = min(1<<40, math.MaxInt)
	if !(delta > 0) || !(gap > 0) {
		return never // no progress toward the boundary: never reached
	}
	t := gap/delta*(1-1e-9) - 2
	if t <= 0 {
		return 0
	}
	if t > never {
		return never
	}
	return int(t)
}

// FastForwardStats reports the tick-loop economics since construction:
// solves is the number of ticks that rebuilt flows and ran a full
// memsys solve, replays the number served from the cached solve.
func (e *Engine) FastForwardStats() (solves, replays int) {
	return e.ffSolves, e.ffReplays
}

// SolveMemoHits reports how many of FastForwardStats' solves the memsys
// solver answered from its memo of recent solves instead of filling.
func (e *Engine) SolveMemoHits() int { return int(e.solver.MemoHits()) }

// throttle computes the latency-driven demand suppression for a worker on
// node w whose pages are spread per fr: 1/(1+κ·(L̄/L_local − 1)), where L̄
// uses the utilization-inflated latencies of the previous tick.
func (e *Engine) throttle(kappa float64, fr []float64, w topology.NodeID) float64 {
	if kappa <= 0 {
		return 1
	}
	lbar := 0.0
	for s, f := range fr {
		if f <= 0 {
			continue
		}
		lbar += f * e.M.LatencyNs(topology.NodeID(s), w) * e.latMult[s]
	}
	local := e.M.LatencyNs(w, w)
	if lbar <= local {
		return 1
	}
	return 1 / (1 + kappa*(lbar/local-1))
}
