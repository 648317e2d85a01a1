package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestSum(t *testing.T) {
	if got := Sum([]float64{1.5, 2.5, -1}); got != 3 {
		t.Fatalf("Sum = %v, want 3", got)
	}
	if got := Sum(nil); got != 0 {
		t.Fatalf("Sum(nil) = %v, want 0", got)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEq(got, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{5}); got != 0 {
		t.Fatalf("Variance single = %v, want 0", got)
	}
}

func TestCV(t *testing.T) {
	if got := CV([]float64{0, 0}); got != 0 {
		t.Fatalf("CV zero-mean = %v, want 0", got)
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9} // mean 5, sd 2
	if got := CV(xs); !almostEq(got, 0.4, 1e-12) {
		t.Fatalf("CV = %v, want 0.4", got)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("Median odd = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("Median even = %v, want 2.5", got)
	}
	if got := Median(nil); got != 0 {
		t.Fatalf("Median(nil) = %v, want 0", got)
	}
	// Median must not mutate its input.
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Median mutated input: %v", xs)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Min(xs); got != -1 {
		t.Fatalf("Min = %v, want -1", got)
	}
	if got := Max(xs); got != 7 {
		t.Fatalf("Max = %v, want 7", got)
	}
}

func TestMinPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Min(nil) did not panic")
		}
	}()
	Min(nil)
}

func TestMaxPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Max(nil) did not panic")
		}
	}()
	Max(nil)
}

func TestTrimmedMean(t *testing.T) {
	// Paper parameters: n=20 samples, c=5 trimmed from each side.
	xs := []float64{100, 1, 2, 3, 4, -50} // outliers 100 and -50
	got := TrimmedMean(xs, 1)
	if !almostEq(got, 2.5, 1e-12) {
		t.Fatalf("TrimmedMean = %v, want 2.5", got)
	}
	// Over-trimming falls back to plain mean.
	if got := TrimmedMean([]float64{1, 2}, 1); got != 1.5 {
		t.Fatalf("TrimmedMean overtrim = %v, want 1.5", got)
	}
	if got := TrimmedMean(nil, 2); got != 0 {
		t.Fatalf("TrimmedMean(nil) = %v, want 0", got)
	}
	// Input must not be mutated (it gets sorted internally).
	in := []float64{9, 1, 5}
	TrimmedMean(in, 0)
	if in[0] != 9 {
		t.Fatalf("TrimmedMean mutated input: %v", in)
	}
}

func TestNormalize(t *testing.T) {
	got := Normalize([]float64{1, 3})
	if !almostEq(got[0], 0.25, 1e-12) || !almostEq(got[1], 0.75, 1e-12) {
		t.Fatalf("Normalize = %v", got)
	}
	// Zero-sum input becomes uniform.
	got = Normalize([]float64{0, 0, 0, 0})
	for _, g := range got {
		if !almostEq(g, 0.25, 1e-12) {
			t.Fatalf("Normalize zero = %v", got)
		}
	}
}

func TestNormalizeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = math.Abs(math.Mod(r, 1000)) // bounded non-negative
		}
		if len(xs) == 0 {
			return true
		}
		out := Normalize(xs)
		return almostEq(Sum(out), 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp misbehaved")
	}
}

func TestNewRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestTrimmedMeanPropertyBounded(t *testing.T) {
	// TrimmedMean always lies within [Min, Max] of the input.
	f := func(raw []float64, c uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			if math.IsNaN(r) || math.IsInf(r, 0) {
				r = 0
			}
			xs[i] = math.Mod(r, 1e6)
		}
		tm := TrimmedMean(xs, int(c%8))
		return tm >= Min(xs)-1e-9 && tm <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
