package perf

import (
	"math"
	"testing"
)

func TestCountersZeroValue(t *testing.T) {
	c := NewCounters(4)
	if c.AvgStallRate() != 0 || c.AvgStallFraction() != 0 {
		t.Fatal("fresh counters report nonzero rates")
	}
	if len(c.NodeOutBytes) != 4 || len(c.PairBytes) != 4 {
		t.Fatal("counter dimensions wrong")
	}
}

func TestCountersAverages(t *testing.T) {
	c := NewCounters(2)
	c.Time = 2
	c.Cycles = 2 * ClockHz
	c.StalledCycles = 0.5 * ClockHz
	if got := c.AvgStallRate(); got != 0.25*ClockHz {
		t.Fatalf("AvgStallRate = %v", got)
	}
	if got := c.AvgStallFraction(); got != 0.25 {
		t.Fatalf("AvgStallFraction = %v", got)
	}
}

func TestCountersReset(t *testing.T) {
	c := NewCounters(3)
	c.Time = 5
	c.PairBytes[1][2] = 100
	c.Reset()
	if c.Time != 0 || c.PairBytes[1][2] != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestBWMatrix(t *testing.T) {
	c := NewCounters(2)
	c.Time = 2
	c.PairBytes[0][1] = 4e9 // 4 GB over 2 s = 2 GB/s
	m := c.BWMatrixGBs()
	if math.Abs(m[0][1]-2) > 1e-12 {
		t.Fatalf("BWMatrix[0][1] = %v, want 2", m[0][1])
	}
	if m[1][0] != 0 {
		t.Fatalf("BWMatrix[1][0] = %v, want 0", m[1][0])
	}
}

func TestSamplerCollectsPeriod(t *testing.T) {
	// Noise-free sampler: 4 samples of 1 s each, trim 1 from each side.
	s := NewSampler(4, 1, 1.0, 0, 1)
	cum := 0.0
	now := 0.0
	var got float64
	var done bool
	// Constant stall rate of 10 units/s.
	for i := 0; i < 60 && !done; i++ {
		got, done = s.Offer(now, cum)
		now += 0.5
		cum += 5 // 10 per second
	}
	if !done {
		t.Fatal("sampler never completed a period")
	}
	if math.Abs(got-10) > 1e-9 {
		t.Fatalf("period score = %v, want 10", got)
	}
}

func TestSamplerTrimsOutliers(t *testing.T) {
	s := NewSampler(5, 1, 1.0, 0, 1)
	rates := []float64{10, 10, 1000, 10, 0} // outliers 1000 and 0 trimmed
	now, cum := 0.0, 0.0
	s.Offer(now, cum) // establish window start
	var got float64
	var done bool
	for _, r := range rates {
		now += 1.0
		cum += r
		got, done = s.Offer(now, cum)
	}
	if !done {
		t.Fatal("period incomplete")
	}
	if math.Abs(got-10) > 1e-9 {
		t.Fatalf("trimmed score = %v, want 10", got)
	}
}

func TestSamplerRestartDiscardsPartial(t *testing.T) {
	s := NewSampler(3, 0, 1.0, 0, 1)
	s.Offer(0, 0)
	s.Offer(1, 100) // one sample of rate 100 recorded
	s.Restart()
	// New period at rate 10 must not be polluted by the rate-100 sample.
	now, cum := 10.0, 0.0
	s.Offer(now, cum)
	var got float64
	var done bool
	for i := 0; i < 3; i++ {
		now += 1
		cum += 10
		got, done = s.Offer(now, cum)
	}
	if !done || math.Abs(got-10) > 1e-9 {
		t.Fatalf("after restart got %v (done=%v), want 10", got, done)
	}
}

func TestSamplerNoiseIsSeededAndBounded(t *testing.T) {
	run := func(seed uint64) float64 {
		s := NewSampler(20, 5, 0.2, 0.05, seed)
		now, cum := 0.0, 0.0
		s.Offer(now, cum)
		for {
			now += 0.2
			cum += 0.2 * 100
			if got, done := s.Offer(now, cum); done {
				return got
			}
		}
	}
	a, b := run(7), run(7)
	if a != b {
		t.Fatal("same seed, different scores")
	}
	if c := run(8); c == a {
		t.Fatal("different seeds, identical scores (noise not applied?)")
	}
	// 5% relative noise, trimmed mean of 10 → within a few percent of 100.
	if math.Abs(a-100) > 10 {
		t.Fatalf("noisy score %v too far from 100", a)
	}
}

func TestSamplerNegativeRatesClamped(t *testing.T) {
	s := NewSampler(2, 0, 1.0, 0, 1)
	s.Offer(0, 100)
	s.Offer(1, 50) // counter went backwards → negative rate → clamp to 0
	got, done := s.Offer(2, 50)
	if !done {
		t.Fatal("period incomplete")
	}
	if got != 0 {
		t.Fatalf("score = %v, want 0 (clamped)", got)
	}
}

func TestSamplerPanicsOnBadParams(t *testing.T) {
	cases := []func(){
		func() { NewSampler(0, 0, 1, 0, 1) },
		func() { NewSampler(4, 2, 1, 0, 1) }, // 2c >= n
		func() { NewSampler(4, -1, 1, 0, 1) },
		func() { NewSampler(4, 0, 0, 0, 1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}
