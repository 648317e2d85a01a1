// Package perf simulates the hardware performance counters BWAP consumes:
// per-node memory throughput (used by the canonical tuner's profiling run)
// and per-application stalled cycles (used by the DWP tuner's on-line
// search), plus the paper's sampling pipeline — n measurements of t seconds
// each, sorted, c outliers trimmed from both ends, averaged
// (Section III-B1; the paper reads the real counters via LIKWID [19]).
package perf

import (
	"math/rand/v2"

	"bwap/internal/stats"
)

// ClockHz is the nominal core clock used to scale stall fractions into
// stalled cycles per second, matching the units the paper monitors.
const ClockHz = 1e9

// Counters accumulates the simulated PMU state of one application. The
// simulation engine adds to it every tick; tuners read it.
type Counters struct {
	// Time is the total simulated seconds accounted so far.
	Time float64
	// StalledCycles accumulates stall cycles (ClockHz × stall fraction × dt).
	StalledCycles float64
	// Cycles accumulates total cycles (ClockHz × dt).
	Cycles float64
	// Instructions accumulates retired instructions (unstalled cycles ×
	// nominal IPC); the MAPI classifier divides memory accesses by this.
	Instructions float64
	// BytesRead and BytesWritten accumulate raw demand-side traffic.
	BytesRead, BytesWritten float64
	// SharedBytes and PrivateBytes split achieved traffic by page class,
	// feeding the Table I characterization.
	SharedBytes, PrivateBytes float64
	// NodeOutBytes accumulates bytes served by each source node.
	NodeOutBytes []float64
	// PairBytes accumulates bytes moved from src (first index) to dst
	// (second index) — the per-node throughput matrix the canonical tuner
	// profiles.
	PairBytes [][]float64
}

// NewCounters returns zeroed counters for a machine with n nodes. The
// per-node slices share one backing array (full slice expressions keep the
// rows from growing into each other): counters are created per app per
// placement on the fleet hot path, where n+2 row allocations dominated.
func NewCounters(n int) *Counters {
	backing := make([]float64, n*n+n)
	pb := make([][]float64, n)
	for i := range pb {
		pb[i] = backing[i*n : (i+1)*n : (i+1)*n]
	}
	return &Counters{NodeOutBytes: backing[n*n : n*n+n : n*n+n], PairBytes: pb}
}

// Reset zeroes all counters.
func (c *Counters) Reset() {
	n := len(c.NodeOutBytes)
	*c = *NewCounters(n)
}

// AvgStallRate returns average stalled cycles per second over the counters'
// lifetime, or 0 before any time has been accounted.
func (c *Counters) AvgStallRate() float64 {
	if c.Time <= 0 {
		return 0
	}
	return c.StalledCycles / c.Time
}

// AvgStallFraction returns the average fraction of cycles stalled in [0,1].
func (c *Counters) AvgStallFraction() float64 {
	if c.Cycles <= 0 {
		return 0
	}
	return c.StalledCycles / c.Cycles
}

// CacheLineBytes is the access granularity used to convert traffic volume
// into access counts for the MAPI metric.
const CacheLineBytes = 64

// MAPI returns memory accesses per instruction over the counters' lifetime
// — the metric Carrefour [21] uses to classify workloads as
// memory-intensive, and which the paper proposes for automating both the
// co-scheduled classification and the BWAP-init trigger (Section III-B3).
func (c *Counters) MAPI() float64 {
	if c.Instructions <= 0 {
		return 0
	}
	return (c.BytesRead + c.BytesWritten) / CacheLineBytes / c.Instructions
}

// BWMatrixGBs converts the accumulated pair traffic into an average GB/s
// bandwidth matrix over the counters' lifetime.
func (c *Counters) BWMatrixGBs() [][]float64 {
	n := len(c.PairBytes)
	out := make([][]float64, n)
	for s := 0; s < n; s++ {
		out[s] = make([]float64, n)
		for d := 0; d < n; d++ {
			if c.Time > 0 {
				out[s][d] = c.PairBytes[s][d] / c.Time / 1e9
			}
		}
	}
	return out
}

// Sampler implements the DWP tuner's measurement pipeline. Each measurement
// is the stall rate over a window of T simulated seconds, perturbed by
// multiplicative Gaussian noise (real PMU readings are noisy; the trimming
// step exists to survive that). After N measurements the sampler emits the
// trimmed mean and starts over.
type Sampler struct {
	// N is the number of measurements per period (paper: 20).
	N int
	// C is the count trimmed from each end after sorting (paper: 5).
	C int
	// T is the measurement window in seconds (paper: 0.2).
	T float64

	noiseRel  float64
	rng       *rand.Rand
	samples   []float64
	haveStart bool
	startT    float64
	startVal  float64
}

// NewSampler returns a sampler with the paper's pipeline shape. noiseRel is
// the relative standard deviation of measurement noise; seed makes the
// noise stream reproducible.
func NewSampler(n, c int, t, noiseRel float64, seed uint64) *Sampler {
	if n <= 0 || c < 0 || 2*c >= n || t <= 0 {
		panic("perf: invalid sampler parameters")
	}
	return &Sampler{N: n, C: c, T: t, noiseRel: noiseRel, rng: stats.NewRand(seed)}
}

// Offer feeds the sampler the current cumulative stalled-cycle counter at
// simulated time now. When a full period (N measurements) completes, it
// returns the trimmed-mean stall rate and true. Call it once per engine
// tick.
func (s *Sampler) Offer(now, cumStalled float64) (score float64, done bool) {
	if !s.haveStart {
		s.haveStart = true
		s.startT, s.startVal = now, cumStalled
		return 0, false
	}
	if now-s.startT < s.T {
		return 0, false
	}
	rate := (cumStalled - s.startVal) / (now - s.startT)
	if s.noiseRel > 0 {
		rate *= 1 + s.noiseRel*s.rng.NormFloat64()
	}
	if rate < 0 {
		rate = 0
	}
	s.samples = append(s.samples, rate)
	s.startT, s.startVal = now, cumStalled
	if len(s.samples) < s.N {
		return 0, false
	}
	score = stats.TrimmedMean(s.samples, s.C)
	s.samples = s.samples[:0]
	return score, true
}

// Restart discards any partial period (used when the tuner changes the
// placement and stale measurements must not leak into the next decision).
func (s *Sampler) Restart() {
	s.samples = s.samples[:0]
	s.haveStart = false
}
