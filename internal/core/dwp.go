package core

import (
	"fmt"
	"math"

	"bwap/internal/perf"
	"bwap/internal/sim"
	"bwap/internal/stats"
	"bwap/internal/topology"
)

// DWPWeights converts a canonical weight distribution and a data-to-worker
// proximity factor δ ∈ [0,1] into the applied weight vector
// (Section III-B): the aggregate worker share grows from its canonical
// value Cw to Cw + δ·(1−Cw), while the relative weights *within* the worker
// set and within the non-worker set are preserved (Observation 3). δ=0 is
// the canonical distribution; δ=1 maps every page onto the worker set.
func DWPWeights(canonical []float64, workers []topology.NodeID, dwp float64) ([]float64, error) {
	if !(dwp >= -1e-9 && dwp <= 1+1e-9) { // NaN fails both comparisons
		return nil, fmt.Errorf("core: DWP %v out of [0,1]", dwp)
	}
	dwp = stats.Clamp(dwp, 0, 1)
	// Stack scratch for the worker membership flags: DWPWeights runs per
	// placement and per tuner step, and 64 entries cover every
	// Bitmask-addressable machine.
	var wbuf [64]bool
	var isWorker []bool
	if len(canonical) <= len(wbuf) {
		isWorker = wbuf[:len(canonical)]
	} else {
		isWorker = make([]bool, len(canonical))
	}
	cw := 0.0
	for _, w := range workers {
		if int(w) < 0 || int(w) >= len(canonical) {
			return nil, fmt.Errorf("core: worker %d out of range", w)
		}
		isWorker[w] = true
		cw += canonical[w]
	}
	if cw <= 0 {
		return nil, fmt.Errorf("core: canonical distribution gives no weight to workers")
	}
	cn := 1 - cw
	out := make([]float64, len(canonical))
	workerScale := (cw + dwp*cn) / cw
	for i, c := range canonical {
		if isWorker[i] {
			out[i] = c * workerScale
		} else {
			out[i] = c * (1 - dwp)
		}
	}
	// Normalize in place — the same x/sum operations stats.Normalize
	// performs, minus its fresh slice; sum > 0 is guaranteed because
	// cw > 0 and workerScale > 0.
	sum := stats.Sum(out)
	for i := range out {
		out[i] /= sum
	}
	return out, nil
}

// Params are the DWP tuner's search parameters. The paper sets n=20, c=5,
// t=0.2 s and x=10%, tuned once on Ocean*/Machine A and reused everywhere
// (Section IV).
type Params struct {
	// N is the number of stall-rate measurements per period.
	N int
	// C is the count of outliers trimmed from each end.
	C int
	// T is the duration of one measurement in seconds.
	T float64
	// Step is the DWP increment x.
	Step float64
	// NoiseRel is the relative standard deviation of simulated measurement
	// noise on each stall-rate sample.
	NoiseRel float64
}

// DefaultParams returns the paper's parameters (with the reproduction's
// default measurement-noise level).
func DefaultParams() Params {
	return Params{N: 20, C: 5, T: 0.2, Step: 0.10, NoiseRel: 0.02}
}

func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.N <= 0 {
		p.N = d.N
	}
	if p.C < 0 || 2*p.C >= p.N {
		p.C = 0
	}
	if p.T <= 0 {
		p.T = d.T
	}
	if p.Step <= 0 || p.Step > 1 {
		p.Step = d.Step
	}
	if p.NoiseRel < 0 {
		p.NoiseRel = 0
	}
	return p
}

// Measurement is one completed sampling period of the tuner.
type Measurement struct {
	// DWP is the proximity factor under which the period was measured.
	DWP float64
	// StallRate is the trimmed-mean stalled cycles per second.
	StallRate float64
	// Time is the simulated time at which the period completed.
	Time float64
	// Stage is 1 or 2 for the co-scheduled tuner, 0 for the stand-alone one.
	Stage int
}

// DWPTuner is the on-line component of BWAP (Section III-B1): once its
// application enters the stable phase (the BWAP-init call), it repeatedly
// measures the trimmed-mean stall rate over one period and raises DWP by
// one step while the rate keeps improving, migrating pages incrementally.
// It stops at the first worsening step, i.e. within one step of the local
// optimum; reverse migration is unsupported (Section III-B2) so it never
// steps back.
type DWPTuner struct {
	app       *sim.App
	canonical []float64
	params    Params
	userLevel bool

	sampler    *perf.Sampler
	detector   *PhaseDetector
	started    bool
	finished   bool
	dwp        float64
	prevScore  float64
	trajectory []Measurement
	err        error
}

// SetPhaseDetector makes the tuner start when the MAPI phase detector
// reports stability instead of at the fixed BWAP-init time — the
// automation Section III-B3 proposes.
func (t *DWPTuner) SetPhaseDetector(d *PhaseDetector) { t.detector = d }

// NewDWPTuner returns a tuner hook for app. canonical is the distribution
// for the app's worker set; userLevel selects Algorithm 1 (true) or the
// kernel weighted-interleave (false). seed feeds the measurement-noise
// stream.
func NewDWPTuner(app *sim.App, canonical []float64, params Params, userLevel bool, seed uint64) *DWPTuner {
	params = params.withDefaults()
	return &DWPTuner{
		app:       app,
		canonical: append([]float64(nil), canonical...),
		params:    params,
		userLevel: userLevel,
		sampler:   perf.NewSampler(params.N, params.C, params.T, params.NoiseRel, seed),
		prevScore: math.Inf(1),
	}
}

// Tick implements sim.Hook.
func (t *DWPTuner) Tick(e *sim.Engine) {
	if t.finished || t.err != nil || t.app.Done() {
		return
	}
	if !t.started {
		if t.detector != nil {
			if !t.detector.Observe(e.Now()) {
				return
			}
		} else if e.Now() < t.app.StableSince(e.Cfg) {
			return
		}
		t.started = true
		t.sampler.Restart()
	}
	score, ok := t.sampler.Offer(e.Now(), t.app.Counters.StalledCycles)
	if !ok {
		return
	}
	t.trajectory = append(t.trajectory, Measurement{DWP: t.dwp, StallRate: score, Time: e.Now()})
	if score >= t.prevScore {
		// Likely a local optimum (at most one step past it); stop.
		t.finished = true
		return
	}
	t.prevScore = score
	if t.dwp >= 1-1e-9 {
		t.finished = true
		return
	}
	t.step(e)
}

// step raises DWP by one increment and applies the new interleaving.
func (t *DWPTuner) step(e *sim.Engine) {
	t.dwp = stats.Clamp(t.dwp+t.params.Step, 0, 1)
	w, err := DWPWeights(t.canonical, t.app.Workers, t.dwp)
	if err == nil {
		err = ApplyWeights(t.app.AS, w, t.userLevel)
	}
	if err != nil {
		t.err = err
		t.finished = true
		return
	}
	t.sampler.Restart()
}

// Finished reports whether the search has stopped.
func (t *DWPTuner) Finished() bool { return t.finished }

// AppliedDWP returns the DWP currently in force (it may overshoot the best
// value by one step, matching the paper's error bound).
func (t *DWPTuner) AppliedDWP() float64 { return t.dwp }

// BestDWP returns the DWP with the lowest measured stall rate — the value
// Table II reports.
func (t *DWPTuner) BestDWP() float64 {
	best, bestScore := 0.0, math.Inf(1)
	for _, m := range t.trajectory {
		if m.StallRate < bestScore {
			best, bestScore = m.DWP, m.StallRate
		}
	}
	return best
}

// Trajectory returns the completed measurement periods in order.
func (t *DWPTuner) Trajectory() []Measurement {
	return append([]Measurement(nil), t.trajectory...)
}

// Err returns a placement failure, if any occurred.
func (t *DWPTuner) Err() error { return t.err }

// CoScheduledTuner is the workload-consolidation variant (Section III-B3).
// An external monitor watches both applications' stall rates:
//
//   - stage 1 raises the best-effort app B's DWP as long as the
//     high-priority app A's stall rate keeps decreasing (B's pages are
//     leaving A's nodes); when A's rate stabilizes, the current DWP is the
//     lower bound that protects A;
//   - stage 2 continues from that bound exactly like the stand-alone
//     tuner, now guided by B's stall rate.
type CoScheduledTuner struct {
	a, b      *sim.App
	canonical []float64
	params    Params
	userLevel bool
	// StabilizeTol is the absolute stall-fraction improvement (in cycles
	// per cycle) below which stage 1 considers A's stall rate stabilized
	// (default 0.01, i.e. one percentage point of stalled cycles). An
	// absolute threshold matches the paper's semantics: once B's presence
	// stops noticeably degrading A, further relative wiggles of an already
	// tiny stall rate must not keep the stage alive.
	StabilizeTol float64

	samplerA  *perf.Sampler
	samplerB  *perf.Sampler
	started   bool
	stage     int
	dwp       float64
	stage1DWP float64
	prevA     float64
	prevB     float64
	// trajectory holds B's stall measurements (both stages); aTrajectory
	// holds A's stage-1 measurements. The external monitor watches both
	// applications (Section III-B3), which lets stage 2 reuse B's stage-1
	// history instead of taking a second blind step.
	trajectory  []Measurement
	aTrajectory []Measurement
	err         error
}

// NewCoScheduledTuner returns the two-stage monitor: a is the high-priority
// application, b the best-effort one whose placement is tuned.
func NewCoScheduledTuner(a, b *sim.App, canonical []float64, params Params, userLevel bool, seedA, seedB uint64) *CoScheduledTuner {
	params = params.withDefaults()
	return &CoScheduledTuner{
		a: a, b: b,
		canonical:    append([]float64(nil), canonical...),
		params:       params,
		userLevel:    userLevel,
		StabilizeTol: 0.01,
		samplerA:     perf.NewSampler(params.N, params.C, params.T, params.NoiseRel, seedA),
		samplerB:     perf.NewSampler(params.N, params.C, params.T, params.NoiseRel, seedB),
		stage:        1,
		prevA:        math.Inf(1),
		prevB:        math.Inf(1),
	}
}

// Tick implements sim.Hook.
func (t *CoScheduledTuner) Tick(e *sim.Engine) {
	if t.stage > 2 || t.err != nil || t.b.Done() {
		return
	}
	if !t.started {
		if e.Now() < t.b.StableSince(e.Cfg) {
			return
		}
		t.started = true
		t.samplerA.Restart()
		t.samplerB.Restart()
	}
	switch t.stage {
	case 1:
		// Both samplers run on the same cadence; a period completes when
		// A's does.
		scoreB, okB := t.samplerB.Offer(e.Now(), t.b.Counters.StalledCycles)
		if okB {
			t.trajectory = append(t.trajectory, Measurement{DWP: t.dwp, StallRate: scoreB, Time: e.Now(), Stage: 1})
		}
		scoreA, okA := t.samplerA.Offer(e.Now(), t.a.Counters.StalledCycles)
		if !okA {
			return
		}
		t.aTrajectory = append(t.aTrajectory, Measurement{DWP: t.dwp, StallRate: scoreA, Time: e.Now(), Stage: 1})
		improved := t.prevA-scoreA > t.StabilizeTol*perf.ClockHz
		t.prevA = math.Min(t.prevA, scoreA)
		if !improved && !math.IsInf(t.prevA, 1) && len(t.aTrajectory) > 1 {
			// A has stabilized: the lower bound is found. B's stage-1
			// history already tells us whether the last step hurt B; if it
			// did, the search is over (one-step error bound, as in the
			// stand-alone tuner).
			t.stage1DWP = t.dwp
			n := len(t.trajectory)
			if n >= 2 && t.trajectory[n-1].StallRate >= t.trajectory[n-2].StallRate {
				t.stage = 3
				return
			}
			if n >= 1 {
				t.prevB = t.trajectory[n-1].StallRate
			}
			t.stage = 2
			if t.dwp >= 1-1e-9 {
				t.stage = 3
				return
			}
			t.applyStep(t.dwp + t.params.Step)
			t.samplerB.Restart()
			return
		}
		if t.dwp >= 1-1e-9 {
			t.stage1DWP = t.dwp
			t.stage = 3
			return
		}
		t.applyStep(t.dwp + t.params.Step)
		t.samplerA.Restart()
		t.samplerB.Restart()
	case 2:
		score, ok := t.samplerB.Offer(e.Now(), t.b.Counters.StalledCycles)
		if !ok {
			return
		}
		t.trajectory = append(t.trajectory, Measurement{DWP: t.dwp, StallRate: score, Time: e.Now(), Stage: 2})
		if score >= t.prevB {
			t.stage = 3
			return
		}
		t.prevB = score
		if t.dwp >= 1-1e-9 {
			t.stage = 3
			return
		}
		t.applyStep(t.dwp + t.params.Step)
		t.samplerB.Restart()
	}
}

func (t *CoScheduledTuner) applyStep(dwp float64) {
	t.dwp = stats.Clamp(dwp, 0, 1)
	w, err := DWPWeights(t.canonical, t.b.Workers, t.dwp)
	if err == nil {
		err = ApplyWeights(t.b.AS, w, t.userLevel)
	}
	if err != nil {
		t.err = err
		t.stage = 3
	}
}

// Finished reports whether the two-stage search has stopped.
func (t *CoScheduledTuner) Finished() bool { return t.stage > 2 }

// AppliedDWP returns the DWP currently in force for B.
func (t *CoScheduledTuner) AppliedDWP() float64 { return t.dwp }

// BestDWP returns the DWP with the lowest measured B stall rate across
// both stages; if nothing was measured (B finished first), it returns the
// stage-1 bound.
func (t *CoScheduledTuner) BestDWP() float64 {
	best, bestScore := t.stage1DWP, math.Inf(1)
	for _, m := range t.trajectory {
		if m.StallRate < bestScore {
			best, bestScore = m.DWP, m.StallRate
		}
	}
	return best
}

// Trajectory returns the completed measurement periods of both stages.
func (t *CoScheduledTuner) Trajectory() []Measurement {
	return append([]Measurement(nil), t.trajectory...)
}

// Err returns a placement failure, if any occurred.
func (t *CoScheduledTuner) Err() error { return t.err }
