package experiments

import (
	"math"
	"testing"

	"bwap/internal/search"
	"bwap/internal/stats"
	"bwap/internal/topology"
	"bwap/internal/workload"
)

// TestObservation1PagesOnAllNodes reproduces Section II, Observation 1:
// the searched optimal placements use non-worker nodes, not just workers.
func TestObservation1PagesOnAllNodes(t *testing.T) {
	p := MachineA().Quick()
	workers, _ := p.Workers(2)
	best := searchedWeights(t, p, workload.Streamcluster, workers)
	nonWorkerMass := 0.0
	isWorker := map[topology.NodeID]bool{}
	for _, w := range workers {
		isWorker[w] = true
	}
	for i, w := range best {
		if !isWorker[topology.NodeID(i)] {
			nonWorkerMass += w
		}
	}
	if nonWorkerMass < 0.2 {
		t.Fatalf("searched placement ignores non-workers: %.2f mass outside the worker set (weights %v)",
			nonWorkerMass, best)
	}
}

// TestObservation2UnevenWeights reproduces Observation 2: the searched
// distributions are highly asymmetric, reflecting the topology.
func TestObservation2UnevenWeights(t *testing.T) {
	p := MachineA().Quick()
	workers, _ := p.Workers(2)
	best := searchedWeights(t, p, workload.Streamcluster, workers)
	if cv := stats.CV(best); cv < 0.2 {
		t.Fatalf("searched weights suspiciously uniform (CV %.3f): %v", cv, best)
	}
}

// TestObservation3ProportionalSimilarity reproduces Observation 3, the
// insight behind the DWP reduction: after scaling one application's worker
// (resp. non-worker) weights so the aggregates match another application's,
// the per-node differences shrink — optimal distributions differ mostly by
// a single scalar per set.
func TestObservation3ProportionalSimilarity(t *testing.T) {
	p := MachineA().Quick()
	workers, _ := p.Workers(2)
	wa := searchedWeights(t, p, workload.Streamcluster, workers)
	wb := searchedWeights(t, p, workload.FTC, workers)

	isWorker := make([]bool, len(wa))
	for _, w := range workers {
		isWorker[w] = true
	}
	improvedSets := 0
	for _, workerSet := range []bool{true, false} {
		var idx []int
		for i := range wa {
			if isWorker[i] == workerSet {
				idx = append(idx, i)
			}
		}
		sumA, sumB := 0.0, 0.0
		for _, i := range idx {
			sumA += wa[i]
			sumB += wb[i]
		}
		if sumA == 0 || sumB == 0 {
			continue
		}
		scale := sumB / sumA
		before, after := 0.0, 0.0
		for _, i := range idx {
			before += math.Abs(wa[i] - wb[i])
			after += math.Abs(wa[i]*scale - wb[i])
		}
		if after <= before+1e-12 {
			improvedSets++
		}
		t.Logf("set(worker=%v): per-node |diff| before %.4f after scaling %.4f", workerSet, before, after)
	}
	if improvedSets == 0 {
		t.Fatal("scaling did not improve per-node similarity for either set (Observation 3)")
	}
}

// searchedWeights hill-climbs the weight space for one benchmark and
// returns the best distribution found.
func searchedWeights(t *testing.T, p *Profile, spec workload.Spec, workers []topology.NodeID) []float64 {
	t.Helper()
	objective := func(w []float64) float64 {
		tt, err := p.staticWeightedTime(spec, workers, w, nil)
		if err != nil {
			return inf
		}
		return tt
	}
	starts := [][]float64{
		search.UniformOver(p.M.NumNodes(), nodeInts(workers)),
		search.Uniform(p.M.NumNodes()),
	}
	res, err := search.HillClimbMulti(objective, starts, 0.10, p.SearchBudget)
	if err != nil {
		t.Fatal(err)
	}
	return res.Best.Weights
}

// TestRendersContainKeyMarkers covers the text renderers.
func TestRendersContainKeyMarkers(t *testing.T) {
	p := MachineB().Quick()
	p.Seeds = 1
	fig, err := RunCoScheduled(p, 1, "Figure 3a")
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Render()
	for _, want := range []string{"Figure 3a", "bwap", "uniform-workers", "SC"} {
		if !containsStr(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
	o, err := RunOverhead(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !containsStr(o.Render(), "overhead") {
		t.Error("overhead render broken")
	}
	a, err := RunKernelVsUserAblation(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !containsStr(a.Render(), "Algorithm 1") {
		t.Error("ablation render broken")
	}
	f4, err := RunFig4(p, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if !containsStr(f4.Render(), "bwap chose") {
		t.Error("fig4 render broken")
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}
