package workload

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// referenceSignature is the original fmt-based formulation of Signature,
// kept as the oracle for the alloc-free strconv rewrite: the two must
// agree byte for byte on every spec, or cache snapshots persisted under
// the old digests would silently stop matching.
func referenceSignature(s Spec) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%g|%g|%g|%g|%g|%g|%g|%g|%v|%g|%g",
		s.Name, s.ReadGBs, s.WriteGBs, s.PrivateFrac, s.LatencySensitivity,
		s.SyncFactor, s.WorkGB, s.SharedGB, s.PrivateGBPerNode,
		s.ComputeBound, s.InitSeconds, s.InitDemandFactor)
	for _, ph := range s.Phases {
		fmt.Fprintf(h, "|p%g:%g:%g", ph.AtWorkFraction, ph.DemandFactor, ph.LatencyFactor)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSignatureMatchesReference pins Signature to the fmt-based oracle
// over the full benchmark catalog plus adversarial specs (tiny, huge and
// negative floats exercising %g's exponent switchover, long names, phase
// lists, the init-burst fields and the bool).
func TestSignatureMatchesReference(t *testing.T) {
	specs := Benchmarks()
	extra := Streamcluster
	extra.Name = "adversarial|sig"
	extra.ReadGBs = 1e-7
	extra.WriteGBs = 1.25e21
	extra.PrivateFrac = -0.125
	extra.LatencySensitivity = 5e-324
	extra.SyncFactor = math.MaxFloat64
	extra.WorkGB = 123456789.000001
	extra.ComputeBound = true
	extra.InitSeconds = 0.5
	extra.InitDemandFactor = 3
	extra.Phases = []Phase{
		{AtWorkFraction: 1e-9, DemandFactor: 2.5, LatencyFactor: 0.75},
		{AtWorkFraction: 0.9999999999, DemandFactor: 1e20, LatencyFactor: -0},
	}
	specs = append(specs, extra, Spec{}, Synthetic("syn", 60, 12, 0.3, 0.1))
	for _, s := range specs {
		if got, want := s.Signature(), referenceSignature(s); got != want {
			t.Errorf("%q: Signature %s, reference %s", s.Name, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { specs[0].Signature() }); allocs > 1 {
		t.Errorf("Signature allocates %.1f times per call; want <= 1 (the returned string)", allocs)
	}
}

func TestSignatureStableAndDiscriminating(t *testing.T) {
	a := Streamcluster
	b := Streamcluster
	if a.Signature() != b.Signature() {
		t.Fatal("identical specs must share a signature")
	}
	b.ReadGBs += 0.001
	if a.Signature() == b.Signature() {
		t.Fatal("changed demand must change the signature")
	}
	c := Streamcluster
	c.Phases = []Phase{{AtWorkFraction: 0.5, DemandFactor: 2, LatencyFactor: 1}}
	if a.Signature() == c.Signature() {
		t.Fatal("phases must be part of the signature")
	}
}

func TestArrivalValidate(t *testing.T) {
	bad := []ArrivalSpec{
		{Process: "burst", Rate: 1, Count: 1},
		{Process: Periodic, Rate: 0, Count: 1},
		{Process: Periodic, Rate: 1, Count: 0},
		{Process: Periodic, Rate: 1, Count: 1, Start: -1},
		{Process: Periodic, Rate: 1, Count: 1, Jitter: 1},
		// Non-finite parameters would yield non-finite arrival times.
		{Process: Poisson, Rate: math.NaN(), Count: 1},
		{Process: Periodic, Rate: math.Inf(1), Count: 1},
		{Process: Periodic, Rate: 1, Count: 1, Start: math.NaN()},
		{Process: Poisson, Rate: 1, Count: 1, Start: math.Inf(1)},
		{Process: Periodic, Rate: 1, Count: 1, Jitter: math.NaN()},
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("spec %d validated, want error", i)
		}
	}
	good := ArrivalSpec{Process: Poisson, Rate: 0.5, Count: 10, Start: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
}

func TestPeriodicTimes(t *testing.T) {
	a := ArrivalSpec{Process: Periodic, Rate: 2, Start: 1, Count: 4}
	got, err := a.Times(7)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1.5, 2, 2.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("Times = %v, want %v", got, want)
		}
	}
}

func TestPoissonTimesDeterministicAndPlausible(t *testing.T) {
	a := ArrivalSpec{Process: Poisson, Rate: 1, Count: 2000}
	t1, err := a.Times(42)
	if err != nil {
		t.Fatal(err)
	}
	t2, _ := a.Times(42)
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, t1[i], t2[i])
		}
	}
	t3, _ := a.Times(43)
	if t1[0] == t3[0] && t1[1] == t3[1] {
		t.Fatal("different seeds produced the same series")
	}
	// Mean inter-arrival gap should approximate 1/rate.
	mean := t1[len(t1)-1] / float64(len(t1))
	if mean < 0.85 || mean > 1.15 {
		t.Fatalf("mean gap %.3f, want ~1.0", mean)
	}
	// Strictly increasing.
	for i := 1; i < len(t1); i++ {
		if t1[i] <= t1[i-1] {
			t.Fatalf("non-increasing arrivals at %d", i)
		}
	}
}

// TestTraceArrival covers the trace-driven source: recorded timestamps are
// replayed verbatim, seed-independently, and defensively copied.
func TestTraceArrival(t *testing.T) {
	recorded := []float64{0, 0.4, 2.25, 2.25, 7}
	a := TraceArrival(recorded)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Count != len(recorded) {
		t.Fatalf("Count = %d, want %d", a.Count, len(recorded))
	}
	t1, err := a.Times(1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := a.Times(999) // seed must be irrelevant
	if err != nil {
		t.Fatal(err)
	}
	for i := range recorded {
		if t1[i] != recorded[i] || t2[i] != recorded[i] {
			t.Fatalf("trace replay diverged at %d: %v / %v, want %v", i, t1[i], t2[i], recorded[i])
		}
	}
	// Mutating the input or the output must not alias the spec.
	recorded[0] = 99
	t1[1] = 99
	t3, _ := a.Times(1)
	if t3[0] != 0 || t3[1] != 0.4 {
		t.Fatalf("trace spec aliases caller slices: %v", t3)
	}
}

func TestTraceArrivalValidate(t *testing.T) {
	bad := []ArrivalSpec{
		{Process: Trace}, // no timestamps
		{Process: Trace, Trace: []float64{1}, Count: 2}, // count disagrees
		{Process: Trace, Trace: []float64{-1}},          // negative time
		{Process: Trace, Trace: []float64{math.NaN()}},  // NaN
		{Process: Trace, Trace: []float64{math.Inf(1)}}, // +Inf never arrives
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("trace spec %d validated, want error", i)
		}
	}
	if err := (ArrivalSpec{Process: Trace, Trace: []float64{0, 1}}).Validate(); err != nil {
		t.Errorf("good trace spec rejected: %v", err)
	}
}

func TestRandUnitRange(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		u := r.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", u)
		}
	}
}
