package obs

import "math"

// Histogram is a fixed-bucket cumulative-on-render histogram in the
// Prometheus style: counts[i] holds observations with value <= bounds[i]
// and > bounds[i-1]; counts[len(bounds)] is the +Inf bucket. Observe is
// allocation-free (a linear scan over at most a few dozen bounds), so it
// may sit on the fleet's event path without perturbing the zero-alloc
// barrier contract.
type Histogram struct {
	bounds []float64
	counts []uint64
	sum    float64
	count  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the bucket containing the rank — the standard Prometheus
// histogram_quantile estimate. The answer lives in the first non-empty
// bucket whose cumulative count reaches rank = q·count; a rank landing
// exactly on a bucket's cumulative boundary returns that bucket's upper
// bound, regardless of any run of empty buckets that follows. Ranks
// beyond the last finite bucket — the target observation sits in the
// +Inf bucket — report the largest finite bound, since the histogram
// cannot localize them further. Returns NaN when the histogram is empty
// or q is NaN or outside (0, 1]: out-of-domain ranks would otherwise
// extrapolate to values (negative, or past every observation) that no
// sample could have produced.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 || math.IsNaN(q) || q <= 0 || q > 1 {
		return math.NaN()
	}
	rank := q * float64(h.count)
	cum, lower := 0.0, 0.0
	for i, b := range h.bounds {
		c := float64(h.counts[i])
		if c > 0 && cum+c >= rank {
			// cum < rank on entry (every earlier bucket fell short and
			// empty buckets leave cum unchanged), so the interpolation
			// factor is in (0, 1] and the estimate in (lower, b].
			return lower + (b-lower)*((rank-cum)/c)
		}
		cum += c
		lower = b
	}
	return lower // rank beyond every finite bucket: +Inf bucket
}

// ExpBuckets returns n exponentially spaced bounds: start, start*factor,
// ... — the log-bucket scheme the fleet's latency histograms use. The
// bounds are produced by repeated multiplication, a fixed float program,
// so they are identical on every run.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	b := start
	for i := range out {
		out[i] = b
		b *= factor
	}
	return out
}

// LinearBuckets returns n bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	if width <= 0 || n < 1 {
		panic("obs: LinearBuckets wants width > 0, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}
