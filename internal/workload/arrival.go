package workload

import (
	"fmt"
	"math"
	"strconv"
)

// Signature returns a stable 64-bit hex digest of every behavioural field
// of the spec. Jobs whose specs hash identically behave identically in the
// simulator, so the fleet scheduler's tuning cache keys placement results
// by this signature (together with the machine's topology fingerprint).
//
// The digest is FNV-64a over an exact byte stream — the same bytes the
// original fmt.Fprintf("%s|%g|...") formulation hashed, now produced with
// strconv appends into a stack scratch buffer. Signature sits on the fleet
// scheduler's cache-key hot path (every admission, prefetch and retune
// derives a key), where the fmt operand boxing dominated the allocation
// profile; TestSignatureMatchesReference pins byte-stream equality with
// the fmt-based reference, and cache snapshots persisted under the old
// hash stay loadable because the digests are identical.
func (s Spec) Signature() string {
	var scratch [16]byte
	return string(s.AppendSignature(scratch[:0]))
}

// AppendSignature appends the Signature digest to dst and returns the
// extended slice, for callers composing cache keys into a reused buffer
// without materializing the intermediate string.
func (s Spec) AppendSignature(dst []byte) []byte {
	var scratch [192]byte
	b := append(scratch[:0], s.Name...)
	for _, f := range [...]float64{
		s.ReadGBs, s.WriteGBs, s.PrivateFrac, s.LatencySensitivity,
		s.SyncFactor, s.WorkGB, s.SharedGB, s.PrivateGBPerNode,
	} {
		b = append(b, '|')
		b = strconv.AppendFloat(b, f, 'g', -1, 64)
	}
	b = append(b, '|')
	b = strconv.AppendBool(b, s.ComputeBound)
	b = append(b, '|')
	b = strconv.AppendFloat(b, s.InitSeconds, 'g', -1, 64)
	b = append(b, '|')
	b = strconv.AppendFloat(b, s.InitDemandFactor, 'g', -1, 64)
	h := fnv64a(fnvOffset64, b)
	for _, ph := range s.Phases {
		b = append(b[:0], '|', 'p')
		b = strconv.AppendFloat(b, ph.AtWorkFraction, 'g', -1, 64)
		b = append(b, ':')
		b = strconv.AppendFloat(b, ph.DemandFactor, 'g', -1, 64)
		b = append(b, ':')
		b = strconv.AppendFloat(b, ph.LatencyFactor, 'g', -1, 64)
		h = fnv64a(h, b)
	}
	return appendHex64(dst, h)
}

// fnvOffset64 and fnvPrime64 are the FNV-64a parameters, matching
// hash/fnv's New64a.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv64a folds data into an FNV-64a running hash without the heap
// allocation of a hash.Hash64 value.
func fnv64a(h uint64, data []byte) uint64 {
	for _, c := range data {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// appendHex64 appends h exactly like fmt.Sprintf("%016x", h): 16
// lowercase hex digits, zero-padded.
func appendHex64(dst []byte, h uint64) []byte {
	var buf [16]byte
	for i := 15; i >= 0; i-- {
		buf[i] = "0123456789abcdef"[h&0xF]
		h >>= 4
	}
	return append(dst, buf[:]...)
}

// ArrivalSpec describes when instances of a workload enter the system — the
// churn layer the single-mix paper experiments lack. Arrival times are
// materialized deterministically from a seed with the repo's own splitmix64
// stream (not math/rand), so the same spec and seed produce bit-identical
// series on every platform and Go version; the fleet scheduler's replayable
// event log depends on that.
type ArrivalSpec struct {
	// Process selects the arrival process: "periodic" (fixed interval, with
	// optional jitter), "poisson" (exponential inter-arrival gaps) or
	// "trace" (explicit recorded timestamps, replayed verbatim).
	Process string
	// Rate is the mean arrival rate in jobs per simulated second
	// (periodic/poisson only).
	Rate float64
	// Start offsets the first arrival from time zero (periodic/poisson
	// only).
	Start float64
	// Count is the number of arrivals the spec generates. For the trace
	// process it is implied by len(Trace); if set it must agree.
	Count int
	// Jitter (periodic only) perturbs each arrival uniformly within
	// ±Jitter/2 of its slot, as a fraction of the interval, in [0,1).
	Jitter float64
	// Trace (trace process only) is the explicit arrival series in
	// simulated seconds — typically read back from a fleet event log. It is
	// replayed exactly; the seed is ignored.
	Trace []float64
}

// Arrival process names.
const (
	Periodic = "periodic"
	Poisson  = "poisson"
	Trace    = "trace"
)

// TraceArrival builds the arrival spec that replays the given timestamps
// verbatim — the trace-driven source that turns a recorded fleet event log
// back into an input stream. The slice is copied.
func TraceArrival(times []float64) ArrivalSpec {
	return ArrivalSpec{
		Process: Trace,
		Count:   len(times),
		Trace:   append([]float64(nil), times...),
	}
}

// Validate checks the spec for internal consistency.
func (a ArrivalSpec) Validate() error {
	switch a.Process {
	case Periodic, Poisson:
		if !(a.Rate > 0) || math.IsInf(a.Rate, 1) {
			return fmt.Errorf("workload: arrival rate %g must be positive and finite", a.Rate)
		}
		if !(a.Start >= 0) || math.IsInf(a.Start, 1) {
			return fmt.Errorf("workload: arrival start %g must be finite and non-negative", a.Start)
		}
		if a.Count <= 0 {
			return fmt.Errorf("workload: arrival count %d must be positive", a.Count)
		}
		if !(a.Jitter >= 0 && a.Jitter < 1) {
			return fmt.Errorf("workload: jitter %g out of [0,1)", a.Jitter)
		}
	case Trace:
		if len(a.Trace) == 0 {
			return fmt.Errorf("workload: trace arrival spec has no timestamps")
		}
		if a.Count != 0 && a.Count != len(a.Trace) {
			return fmt.Errorf("workload: trace count %d disagrees with %d timestamps", a.Count, len(a.Trace))
		}
		for i, t := range a.Trace {
			if math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
				return fmt.Errorf("workload: trace timestamp %d is %g", i, t)
			}
		}
	default:
		return fmt.Errorf("workload: unknown arrival process %q", a.Process)
	}
	return nil
}

// Times materializes the arrival time series. The same spec and seed always
// produce the same series; distinct seeds decorrelate streams. The trace
// process ignores the seed and returns its recorded series unchanged.
func (a ArrivalSpec) Times(seed uint64) ([]float64, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if a.Process == Trace {
		return append([]float64(nil), a.Trace...), nil
	}
	rng := NewRand(seed)
	out := make([]float64, a.Count)
	interval := 1 / a.Rate
	t := a.Start
	for i := range out {
		switch a.Process {
		case Periodic:
			out[i] = t
			if a.Jitter > 0 {
				out[i] += interval * a.Jitter * (rng.Float64() - 0.5)
				if out[i] < 0 {
					out[i] = 0
				}
			}
			t += interval
		case Poisson:
			// Exponential gap via inverse transform; 1-u is in (0,1], so
			// the log argument never hits zero.
			t += -math.Log(1-rng.Float64()) * interval
			out[i] = t
		}
	}
	return out, nil
}

// Rand is a tiny deterministic PRNG (splitmix64): platform- and
// Go-version-independent, unlike math/rand's unspecified stream. It backs
// every randomized choice on the fleet's replay path.
type Rand struct{ state uint64 }

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0,1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}
