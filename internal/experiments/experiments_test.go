package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"bwap/internal/topology"
	"bwap/internal/workload"
)

// TestFig1aReproducesPaperMatrix: the harness-level check that the
// simulated Machine A measures exactly the published matrix.
func TestFig1aReproducesPaperMatrix(t *testing.T) {
	f := RunFig1a(MachineA())
	want := topology.MachineA().NominalMatrix()
	for s := range want {
		for d := range want[s] {
			if math.Abs(f.Matrix[s][d]-want[s][d]) > 1e-6 {
				t.Fatalf("matrix[%d][%d] = %v, want %v", s, d, f.Matrix[s][d], want[s][d])
			}
		}
	}
	if !strings.Contains(f.Render(), "9.2") {
		t.Fatal("render missing local bandwidth")
	}
}

// checkFrozen pins rendered experiment output to a recorded SHA-256, so a
// change to the placement machinery underneath (the weighted walk, the
// experiment pool) that moves any printed digit fails loudly.
func checkFrozen(t *testing.T, name, out, want string) {
	t.Helper()
	sum := sha256.Sum256([]byte(out))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s output drifted:\n got %s\nwant %s\n%s", name, got, want, out)
	}
}

// quickMachineA is the quick Machine A profile, optionally on the naive
// solve-every-tick engine loop — the reference the frozen renders must
// match with fast-forward on and off.
func quickMachineA(disableFF bool) *Profile {
	p := MachineA().Quick()
	p.SimCfg.DisableFastForward = disableFF
	return p
}

// TestFig1bShape: the Section II claims — the offline search beats every
// baseline; first-touch is the worst of the three for multi-worker runs.
func TestFig1bShape(t *testing.T) {
	var f *Fig1b
	for _, disableFF := range []bool{true, false} {
		var err error
		if f, err = RunFig1b(quickMachineA(disableFF)); err != nil {
			t.Fatal(err)
		}
		// Recorded under the per-page walk from page 0 that the checkpointed
		// walk replaced.
		checkFrozen(t, fmt.Sprintf("quick Fig 1b (DisableFastForward=%v)", disableFF), f.Render(),
			"f1376170dc92f7ecd60df77d584c902f6aebf7b9347bfe403f08561ae81c949b")
	}
	if len(f.Rows) != 5 {
		t.Fatalf("%d rows", len(f.Rows))
	}
	for _, r := range f.Rows {
		// Normalized scores are oracle/policy: <= ~1 (searching found
		// something at least as good; small tolerance for noise in the
		// top-10 average).
		for name, v := range map[string]float64{
			"first-touch": r.FirstTouch, "uniform-workers": r.UniformWorkers, "uniform-all": r.UniformAll,
		} {
			if v > 1.02 {
				t.Errorf("%s/%s normalized %v > 1: search lost to a baseline", r.Benchmark, name, v)
			}
			if v <= 0 {
				t.Errorf("%s/%s normalized %v <= 0", r.Benchmark, name, v)
			}
		}
		if r.FirstTouch > r.UniformAll {
			t.Errorf("%s: first-touch (%v) beat uniform-all (%v)", r.Benchmark, r.FirstTouch, r.UniformAll)
		}
	}
}

// TestFig1bEvalsCountsEvaluations: the figure reports the evaluations its
// searches made, not the budget asked for, so an odd budget split over the
// two starts reports the one evaluation it could not spend.
func TestFig1bEvalsCountsEvaluations(t *testing.T) {
	p := MachineA().Quick()
	p.SearchBudget = 7
	f, err := RunFig1b(p)
	if err != nil {
		t.Fatal(err)
	}
	if f.Evals != 6 {
		t.Fatalf("Evals = %d, want 6 (two starts of 3)", f.Evals)
	}
	if !strings.Contains(f.Render(), "(search budget: 6 evaluations per benchmark)") {
		t.Fatalf("render does not report 6 evaluations:\n%s", f.Render())
	}
}

// TestTable1Shape: the characterization must reproduce the access mix of
// Table I and the demand ordering of the benchmarks.
func TestTable1Shape(t *testing.T) {
	p := MachineB().Quick()
	tab, err := RunTable1(p)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for i, r := range tab.Rows {
		byName[r.Benchmark] = i
	}
	want := map[string]struct{ priv, reads float64 }{
		"OC": {79.3, 17576}, "ON": {86.7, 16053}, "SP.B": {19.9, 11962},
		"SC": {0.2, 10055}, "FT.C": {95.0, 5585},
	}
	for name, w := range want {
		r := tab.Rows[byName[name]]
		if math.Abs(r.PrivatePct-w.priv) > 3 {
			t.Errorf("%s private%% = %.1f, want ~%.1f", name, r.PrivatePct, w.priv)
		}
		// Reads within 25% (saturating apps measure below their demand).
		if r.ReadMBs < w.reads*0.75 || r.ReadMBs > w.reads*1.1 {
			t.Errorf("%s reads = %.0f MB/s, want within 25%% of %.0f", name, r.ReadMBs, w.reads)
		}
	}
	// Demand ordering preserved: OC > ON > SP.B > SC > FT.C by reads.
	order := []string{"OC", "ON", "SP.B", "SC", "FT.C"}
	for i := 0; i+1 < len(order); i++ {
		if tab.Rows[byName[order[i]]].ReadMBs <= tab.Rows[byName[order[i+1]]].ReadMBs {
			t.Errorf("read ordering broken between %s and %s", order[i], order[i+1])
		}
	}
}

// TestFig2Shape: co-scheduled on Machine A with 2 workers — the headline
// ordering of Figure 2b.
func TestFig2Shape(t *testing.T) {
	p := MachineA().Quick()
	fig, err := RunCoScheduled(p, 2, "Figure 2b")
	if err != nil {
		t.Fatal(err)
	}
	best := 0.0
	for _, r := range fig.Rows {
		best = max(best, r.Speedup["bwap"])
		// BWAP must at least match uniform-workers (speedup >= ~1) on every
		// benchmark and machine (the paper's "best or comparable" claim).
		if r.Speedup["bwap"] < 0.97 {
			t.Errorf("%s: bwap speedup %v < 1 vs uniform-workers", r.Benchmark, r.Speedup["bwap"])
		}
		// first-touch never beats bwap in this scenario.
		if r.Speedup["first-touch"] > r.Speedup["bwap"]+0.02 {
			t.Errorf("%s: first-touch (%v) beat bwap (%v)", r.Benchmark, r.Speedup["first-touch"], r.Speedup["bwap"])
		}
	}
	// Somewhere in the suite the gain must be substantial (paper: up to
	// 1.66x over uniform-workers at small worker counts).
	if best < 1.25 {
		t.Errorf("max bwap speedup %v, want >= 1.25", best)
	}
}

// TestGainsShrinkWithMoreWorkers: the paper's key trend — BWAP's edge over
// uniform interleaving drops as the worker set grows (Figure 2a vs 2c).
func TestGainsShrinkWithMoreWorkers(t *testing.T) {
	p := MachineA().Quick()
	small, err := RunCoScheduled(p, 1, "2a")
	if err != nil {
		t.Fatal(err)
	}
	large, err := RunCoScheduled(p, 4, "2c")
	if err != nil {
		t.Fatal(err)
	}
	// Compare the geometric-mean edge of bwap over uniform-all (the
	// strongest uniform baseline).
	edge := func(f *SpeedupFigure) float64 {
		prod, n := 1.0, 0
		for _, r := range f.Rows {
			prod *= r.Speedup["bwap"] / r.Speedup["uniform-all"]
			n++
		}
		return math.Pow(prod, 1/float64(n))
	}
	if e1, e4 := edge(small), edge(large); e4 > e1+0.05 {
		t.Errorf("bwap edge grew with more workers: 1W %v vs 4W %v", e1, e4)
	}
}

// TestFig3StandaloneShape: stand-alone at optimal worker counts, Machine B
// (Figure 3d): bwap within a whisker of the best policy everywhere.
func TestFig3StandaloneShape(t *testing.T) {
	p := MachineB().Quick()
	fig, err := RunStandalone(p, "Figure 3d")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fig.Rows {
		best := 0.0
		for _, pol := range PolicyNames {
			if r.Speedup[pol] > best {
				best = r.Speedup[pol]
			}
		}
		if r.Speedup["bwap"] < best*0.93 {
			t.Errorf("%s: bwap %.3f not comparable to best %.3f", r.Benchmark, r.Speedup["bwap"], best)
		}
	}
}

// TestTable2Shape: the DWP values of Table II — SC on Machine B climbs to
// 100% (locality wins outright there); OC/ON on Machine B stay at 0
// (pure bandwidth hunger).
func TestTable2Shape(t *testing.T) {
	p := MachineB().Quick()
	tab, err := RunTable2(p, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	sc := tab.DWP["SC"]
	if sc[0] < 0.85 {
		t.Errorf("SC 1W DWP on machine B = %v, want ~100%% (Table II)", sc[0])
	}
	// At 2 workers the landscape beyond DWP~0.4 is flat to within
	// measurement noise in our model (see EXPERIMENTS.md); the tuner must
	// still climb well away from 0.
	if sc[1] < 0.25 {
		t.Errorf("SC 2W DWP on machine B = %v, want to climb toward locality", sc[1])
	}
	for _, name := range []string{"OC", "ON"} {
		for i, v := range tab.DWP[name] {
			if v > 0.15 {
				t.Errorf("%s DWP[%d] = %v, want ~0 (Table II)", name, i, v)
			}
		}
	}
	if !strings.Contains(tab.Render(), "Table II") {
		t.Fatal("render broken")
	}
}

// TestFig4Shape: the Streamcluster DWP landscape on Machine A — convex-ish
// with an interior optimum at 1 worker, monotone rising at 2 workers, and
// the tuner within one step of the static optimum.
func TestFig4Shape(t *testing.T) {
	p := MachineA().Quick()
	fig, err := RunFig4(p, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := fig.Panels[0], fig.Panels[1]
	// 1 worker: interior optimum (neither 0 nor 1), per Figure 4 left.
	if p1.BestStaticDWP <= 0.05 || p1.BestStaticDWP >= 0.95 {
		t.Errorf("1W best static DWP = %v, want interior", p1.BestStaticDWP)
	}
	// 2 workers: optimum at/near zero, per Table II (SC/A/2W = 0%).
	if p2.BestStaticDWP > 0.15 {
		t.Errorf("2W best static DWP = %v, want ~0", p2.BestStaticDWP)
	}
	for _, panel := range fig.Panels {
		if !panel.WithinOneStep {
			t.Errorf("%dW: tuner DWP %v vs static %v — outside one step",
				panel.Workers, panel.TunedDWP, panel.BestStaticDWP)
		}
		// Stall rate tracks execution time: argmin within one step.
		bestStall, bestTime := 0.0, 0.0
		minS, minT := math.Inf(1), math.Inf(1)
		for _, pt := range panel.Static {
			if pt.RawStallRate < minS {
				minS, bestStall = pt.RawStallRate, pt.DWP
			}
			if pt.RawTime < minT {
				minT, bestTime = pt.RawTime, pt.DWP
			}
		}
		if math.Abs(bestStall-bestTime) > 0.11 {
			t.Errorf("%dW: stall argmin %v vs time argmin %v — not correlated",
				panel.Workers, bestStall, bestTime)
		}
	}
}

// TestOverheadWithinBounds: Section IV-B — tuner overhead stays small and
// the chosen DWP lands within one step of the optimum. This uses the full
// profile: the paper itself notes that short runs cannot amortize the
// search, and the Quick profile's runs are deliberately short.
func TestOverheadWithinBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("full-profile experiment")
	}
	p := MachineA()
	p.Seeds = 2
	o, err := RunOverhead(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: at most 4% on minutes-long native runs. Our compressed runs
	// amortize the search less, and SP.B's simulated landscape is steeper
	// around DWP=0 than the real machine's, so its inherent one-step
	// overshoot costs ~20% (see EXPERIMENTS.md). Everything else must stay
	// in single digits.
	if worst := o.MaxOverheadPct(); worst > 25 {
		t.Errorf("max tuner overhead %.1f%%, want <= 25%%", worst)
	}
	inSingleDigits := 0
	for _, r := range o.Rows {
		if !r.WithinOneStep {
			t.Errorf("%s: tuned DWP %v vs best static %v", r.Benchmark, r.TunedDWP, r.BestStaticDWP)
		}
		if r.OverheadPct <= 8 {
			inSingleDigits++
		}
	}
	if inSingleDigits < 4 {
		t.Errorf("only %d/5 benchmarks with single-digit overhead", inSingleDigits)
	}
}

// TestKernelVsUserAblation: Section IV — the user-level Algorithm 1 costs
// at most ~3% against the kernel-level weighted interleave.
func TestKernelVsUserAblation(t *testing.T) {
	var a *Ablation
	for _, disableFF := range []bool{true, false} {
		var err error
		if a, err = RunKernelVsUserAblation(quickMachineA(disableFF), 2); err != nil {
			t.Fatal(err)
		}
		// Recorded under the per-page walk from page 0 that the checkpointed
		// walk replaced.
		checkFrozen(t, fmt.Sprintf("quick kernel-vs-user ablation (DisableFastForward=%v)", disableFF), a.Render(),
			"f67b43b60f2175b6524168d9bbb70d87bc9014e242cce074b1ff1d6660764e53")
	}
	if gap := a.MaxAbsGapPct(); gap > 3 {
		t.Errorf("kernel-vs-user gap %.2f%%, want <= 3%%", gap)
	}
}

// TestProfilesAndPolicies covers harness plumbing.
func TestProfilesAndPolicies(t *testing.T) {
	for _, p := range []*Profile{MachineA(), MachineB()} {
		if p.Canonical() == nil {
			t.Fatal("no canonical tuner")
		}
		if p.Canonical() != p.Canonical() {
			t.Fatal("canonical tuner not cached")
		}
		for _, name := range PolicyNames {
			pl, err := p.NewPolicy(name, "")
			if err != nil {
				t.Fatal(err)
			}
			if pl.Name() != name {
				t.Fatalf("policy %q renders as %q", name, pl.Name())
			}
		}
		if _, err := p.NewPolicy("nope", ""); err == nil {
			t.Fatal("unknown policy accepted")
		}
	}
	q := MachineA().Quick()
	if q.Seeds >= MachineA().Seeds {
		t.Fatal("Quick did not reduce seeds")
	}
}

func TestOptimalWorkersStandalone(t *testing.T) {
	a := OptimalWorkersStandalone("machine-A")
	if a["SC"] != 4 || a["OC"] != 8 || a["SP.B"] != 1 {
		t.Fatalf("machine-A map wrong: %v", a)
	}
	b := OptimalWorkersStandalone("machine-B")
	if b["OC"] != 4 || b["SP.B"] != 1 {
		t.Fatalf("machine-B map wrong: %v", b)
	}
}

func TestRunRejectsImpossibleCoSchedule(t *testing.T) {
	p := MachineB().Quick()
	ws, err := p.Workers(4) // whole machine: no nodes left for Swaptions
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(workload.Streamcluster, ws, "bwap", true); err == nil {
		t.Fatal("co-scheduling with no free nodes accepted")
	}
}

// TestDynamicExtension: the Section VI re-tuner must beat (or match) the
// one-shot tuner on a phase-changing workload and actually re-tune.
func TestDynamicExtension(t *testing.T) {
	p := MachineB().Quick()
	d, err := RunDynamicExtension(p)
	if err != nil {
		t.Fatal(err)
	}
	if d.ReTunes == 0 {
		t.Fatal("watchdog never re-tuned")
	}
	if d.DynamicTime > d.OneShotTime*1.02 {
		t.Fatalf("dynamic slower than one-shot: %v vs %v", d.DynamicTime, d.OneShotTime)
	}
	if !strings.Contains(d.Render(), "re-tune") {
		t.Fatal("render broken")
	}
}
