package search

import (
	"fmt"
	"math"
	"testing"

	"bwap/internal/stats"
)

// sphere is a convex objective over the simplex with minimum at target.
func sphere(target []float64) Eval {
	return func(w []float64) float64 {
		s := 0.0
		for i := range w {
			d := w[i] - target[i]
			s += d * d
		}
		return s
	}
}

func TestHillClimbFindsSimplexOptimum(t *testing.T) {
	target := []float64{0.5, 0.3, 0.15, 0.05}
	res, err := HillClimbWeights(sphere(target), nil, Uniform(4), 0.1, 300)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Score > 0.003 {
		t.Fatalf("best score %v too far from optimum (weights %v)", res.Best.Score, res.Best.Weights)
	}
	if math.Abs(stats.Sum(res.Best.Weights)-1) > 1e-9 {
		t.Fatalf("best point off the simplex: %v", res.Best.Weights)
	}
}

func TestHillClimbRespectsBudget(t *testing.T) {
	res, err := HillClimbWeights(sphere([]float64{1, 0, 0}), nil, Uniform(3), 0.1, 25)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals > 25 {
		t.Fatalf("budget exceeded: %d evals", res.Evals)
	}
	if len(res.History) != res.Evals {
		t.Fatalf("history %d != evals %d", len(res.History), res.Evals)
	}
}

func TestHillClimbHistoryContainsBest(t *testing.T) {
	res, err := HillClimbWeights(sphere([]float64{0.7, 0.2, 0.1}), nil, Uniform(3), 0.1, 120)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range res.History {
		if c.Score == res.Best.Score {
			found = true
		}
	}
	if !found {
		t.Fatal("best score not present in history")
	}
}

func TestHillClimbErrors(t *testing.T) {
	if _, err := HillClimbWeights(sphere(nil), nil, nil, 0.1, 10); err == nil {
		t.Fatal("empty start accepted")
	}
	if _, err := HillClimbWeights(sphere([]float64{1}), nil, []float64{1}, 0, 10); err == nil {
		t.Fatal("zero step accepted")
	}
	if _, err := HillClimbWeights(sphere([]float64{1}), nil, []float64{1}, 1.5, 10); err == nil {
		t.Fatal("step >= 1 accepted")
	}
	if _, err := HillClimbWeights(sphere([]float64{1}), nil, []float64{1}, 0.1, 0); err == nil {
		t.Fatal("zero budget accepted")
	}
}

func TestTopKAndMeanTopK(t *testing.T) {
	res := &Result{History: []Candidate{
		{Score: 5}, {Score: 1}, {Score: 3}, {Score: 2}, {Score: 4},
	}}
	top := res.TopK(3)
	if top[0].Score != 1 || top[1].Score != 2 || top[2].Score != 3 {
		t.Fatalf("TopK = %v", top)
	}
	if got := res.MeanTopK(3); math.Abs(got-2) > 1e-12 {
		t.Fatalf("MeanTopK = %v, want 2", got)
	}
	if got := res.TopK(99); len(got) != 5 {
		t.Fatalf("TopK clamp failed: %d", len(got))
	}
}

func TestUniformHelpers(t *testing.T) {
	u := Uniform(4)
	if math.Abs(stats.Sum(u)-1) > 1e-12 || u[0] != 0.25 {
		t.Fatalf("Uniform = %v", u)
	}
	w := UniformOver(6, []int{1, 3})
	if w[1] != 0.5 || w[3] != 0.5 || stats.Sum(w) != 1 {
		t.Fatalf("UniformOver = %v", w)
	}
	if z := UniformOver(3, nil); stats.Sum(z) != 0 {
		t.Fatalf("UniformOver(nil) = %v", z)
	}
}

func TestPerturbFloors(t *testing.T) {
	if got := perturb([]float64{0.1, 0.9}, 0, -0.2); got != nil {
		t.Fatalf("negative weight allowed: %v", got)
	}
	got := perturb([]float64{0.5, 0.5}, 0, 0.1)
	if math.Abs(stats.Sum(got)-1) > 1e-12 {
		t.Fatalf("perturb off simplex: %v", got)
	}
}

func TestHillClimbMulti(t *testing.T) {
	target := []float64{0.6, 0.25, 0.1, 0.05}
	starts := [][]float64{Uniform(4), UniformOver(4, []int{0})}
	res, err := HillClimbMulti(sphere(target), starts, 0.1, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Score > 0.01 {
		t.Fatalf("multi-start missed optimum: %v at %v", res.Best.Score, res.Best.Weights)
	}
	if res.Evals > 200+2 {
		t.Fatalf("budget exceeded: %d", res.Evals)
	}
	if _, err := HillClimbMulti(sphere(target), nil, 0.1, 10); err == nil {
		t.Fatal("no starts accepted")
	}
}

func TestHillClimbMultiTinyBudget(t *testing.T) {
	// Budget below the start count still evaluates every start once.
	res, err := HillClimbMulti(sphere([]float64{1, 0}), [][]float64{Uniform(2), {1, 0}}, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) < 2 {
		t.Fatalf("history = %d", len(res.History))
	}
}

// TestMergeClimbsMatchesHillClimbMulti pins the merge a pooled multi-start
// search relies on: climbs run one by one at StartBudget and merged by
// MergeClimbs equal HillClimbMulti, history order included, at an even, an
// odd and a below-one-per-start budget; the merge concatenates histories
// in start order, sums evaluations, and keeps the earliest of equally good
// bests.
func TestMergeClimbsMatchesHillClimbMulti(t *testing.T) {
	eval := sphere([]float64{0.6, 0.25, 0.1, 0.05})
	starts := [][]float64{UniformOver(4, []int{0, 1}), Uniform(4), UniformOver(4, []int{3})}
	for _, budget := range []int{120, 61, 2} {
		want, err := HillClimbMulti(eval, starts, 0.1, budget)
		if err != nil {
			t.Fatal(err)
		}
		climbs := make([]*Result, len(starts))
		var history []Candidate
		evals := 0
		for i, start := range starts {
			if climbs[i], err = HillClimbWeights(eval, nil, start, 0.1, StartBudget(budget, len(starts))); err != nil {
				t.Fatal(err)
			}
			history = append(history, climbs[i].History...)
			evals += climbs[i].Evals
		}
		got := MergeClimbs(climbs)
		if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
			t.Fatalf("budget %d: merged climbs\n%s\nHillClimbMulti\n%s", budget, g, w)
		}
		if got.Evals != evals || fmt.Sprint(got.History) != fmt.Sprint(history) {
			t.Fatalf("budget %d: merge is not the start-order concatenation (%d evals, want %d)", budget, got.Evals, evals)
		}
	}
	tie := MergeClimbs([]*Result{
		{Best: Candidate{Weights: []float64{1, 0}, Score: 2}},
		{Best: Candidate{Weights: []float64{0.5, 0.5}, Score: 1}},
		{Best: Candidate{Weights: []float64{0, 1}, Score: 1}},
	})
	if tie.Best.Weights[0] != 0.5 {
		t.Fatalf("merge kept %v, want the earliest of the equally good bests", tie.Best)
	}
}

// referenceClimb is HillClimbWeights as it was before the prepare hook:
// each neighbour is built just before it is evaluated, and the budget is
// checked before each one. It is kept as the hook's reference.
func referenceClimb(eval Eval, start []float64, step float64, budget int) *Result {
	res := &Result{}
	evalPoint := func(w []float64) float64 {
		score := eval(w)
		res.History = append(res.History, Candidate{Weights: append([]float64(nil), w...), Score: score})
		res.Evals++
		return score
	}
	cur := stats.Normalize(start)
	curScore := evalPoint(cur)
	res.Best = res.History[0]
	for res.Evals < budget && step > 1e-4 {
		bestNeighbor := []float64(nil)
		bestScore := curScore
		for dim := range cur {
			for _, dir := range []float64{+1, -1} {
				if res.Evals >= budget {
					break
				}
				cand := perturb(cur, dim, dir*step)
				if cand == nil {
					continue
				}
				if s := evalPoint(cand); s < bestScore {
					bestScore, bestNeighbor = s, cand
				}
			}
		}
		if bestNeighbor == nil {
			step /= 2
			continue
		}
		cur, curScore = bestNeighbor, bestScore
	}
	for _, c := range res.History {
		if c.Score < res.Best.Score {
			res.Best = c
		}
	}
	return res
}

// TestHillClimbPrepare pins the prepare hook: with and without it a climb
// equals referenceClimb, history and best included, at budgets that cut
// an iteration short and from starts with zero weights (whose neighbours
// skip infeasible moves); the hook sees every evaluated point once, in
// evaluation order, before any point of its batch is evaluated.
func TestHillClimbPrepare(t *testing.T) {
	target := []float64{0.6, 0.25, 0.1, 0.05}
	for _, start := range [][]float64{Uniform(4), UniformOver(4, []int{0, 1})} {
		for _, budget := range []int{1, 2, 9, 37, 120} {
			want := fmt.Sprintf("%+v", referenceClimb(sphere(target), start, 0.1, budget))
			plain, err := HillClimbWeights(sphere(target), nil, start, 0.1, budget)
			if err != nil {
				t.Fatal(err)
			}
			var prepared [][]float64
			next := 0
			eval := func(w []float64) float64 {
				if next >= len(prepared) || fmt.Sprint(prepared[next]) != fmt.Sprint(w) {
					t.Fatalf("start %v, budget %d: evaluation %d of %v was not prepared next", start, budget, next, w)
				}
				next++
				return sphere(target)(w)
			}
			hooked, err := HillClimbWeights(eval, func(points [][]float64) {
				if next != len(prepared) {
					t.Fatalf("start %v, budget %d: prepare called with %d prepared points unevaluated", start, budget, len(prepared)-next)
				}
				prepared = append(prepared, points...)
			}, start, 0.1, budget)
			if err != nil {
				t.Fatal(err)
			}
			for i, got := range []*Result{plain, hooked} {
				if g := fmt.Sprintf("%+v", got); g != want {
					t.Fatalf("start %v, budget %d, hook %v:\n%s\nreference\n%s", start, budget, i == 1, g, want)
				}
			}
			if next != len(prepared) {
				t.Fatalf("start %v, budget %d: %d points prepared, %d evaluated", start, budget, len(prepared), next)
			}
		}
	}
}
