// Package stats provides the small statistical toolbox used throughout the
// BWAP reproduction: summary statistics, the paper's sort-and-trim outlier
// filter (Section III-B1), normalization helpers, and deterministic RNG
// construction so every experiment is reproducible.
package stats

import (
	"math"
	"math/rand/v2"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum
}

// Variance returns the population variance of xs, or 0 if len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// CV returns the coefficient of variation (stddev/mean) of xs.
// It returns 0 when the mean is 0 to avoid dividing by zero; the paper uses
// CV to quantify Observation 3 (per-node weight similarity after scaling).
func CV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// Median returns the median of xs, or 0 for an empty slice.
// The input is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// Min returns the minimum of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// TrimmedMean implements the DWP tuner's outlier filter (Section III-B1):
// sort the n measurements, discard the first and last c, and average the
// rest. If trimming would discard everything, the plain mean is returned.
// The input is not modified.
func TrimmedMean(xs []float64, c int) float64 {
	if len(xs) == 0 {
		return 0
	}
	if c < 0 || 2*c >= len(xs) {
		return Mean(xs)
	}
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	return Mean(tmp[c : len(tmp)-c])
}

// Normalize returns xs scaled so that it sums to 1. A zero-sum or empty
// input returns a uniform distribution of the same length (uniform over
// zero elements being the empty slice).
func Normalize(xs []float64) []float64 {
	return AppendNormalized(make([]float64, 0, len(xs)), xs)
}

// AppendNormalized appends xs scaled to sum to 1 onto dst and returns the
// extended slice — the non-allocating form of Normalize for hot paths that
// own a scratch buffer (Algorithm 1 normalizes per placement).
func AppendNormalized(dst, xs []float64) []float64 {
	sum := Sum(xs)
	if sum == 0 {
		for range xs {
			dst = append(dst, 1/float64(len(xs)))
		}
		return dst
	}
	for _, x := range xs {
		dst = append(dst, x/sum)
	}
	return dst
}

// Clamp bounds x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// NewRand returns a deterministic PRNG for the given seed. All stochastic
// elements in the reproduction (measurement noise, sampled traces) draw from
// seeded generators so experiments are replayable.
func NewRand(seed uint64) *rand.Rand {
	//bwap:rand the sanctioned constructor: every stream the suite allows is minted here, seeded by the caller
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}
