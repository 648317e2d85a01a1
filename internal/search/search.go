// Package search provides the offline n-dimensional hill climbing over
// per-node weight distributions (Section II) that serves as the
// near-optimal oracle of Figure 1b. The DWP tuner's fixed-step 1-D search
// lives in the core package, because it is event-driven.
//
// Objective convention: lower is better (execution time, stall rate).
package search

import (
	"fmt"
	"sort"

	"bwap/internal/stats"
)

// Eval is an objective over a weight vector; lower is better.
type Eval func(weights []float64) float64

// Candidate pairs an evaluated point with its score.
type Candidate struct {
	Weights []float64
	Score   float64
}

// Result reports a hill-climbing run.
type Result struct {
	// Best is the best candidate found.
	Best Candidate
	// History lists every evaluated candidate in evaluation order — the
	// paper averages the top-10 candidates of each search (Section II).
	History []Candidate
	// Evals is the number of objective evaluations spent.
	Evals int
}

// TopK returns the k best evaluated candidates, best first.
func (r *Result) TopK(k int) []Candidate {
	sorted := append([]Candidate(nil), r.History...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Score < sorted[j].Score })
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[:k]
}

// MeanTopK returns the mean score of the k best candidates — the paper's
// "averages over a selection of the top-10 best performing distributions".
func (r *Result) MeanTopK(k int) float64 {
	top := r.TopK(k)
	scores := make([]float64, len(top))
	for i, c := range top {
		scores[i] = c.Score
	}
	return stats.Mean(scores)
}

// Prepare is told the points a climb is about to evaluate, in evaluation
// order, before it evaluates any of them: the start alone, then each
// iteration's neighbours, cut to the remaining budget. An objective can
// use it to set up work the points share, such as walking their weight
// vectors together.
type Prepare func(points [][]float64)

// HillClimbWeights runs steepest-descent hill climbing on the weight
// simplex: from the current point it evaluates, for every dimension, the
// neighbours obtained by shifting ±step of mass to/from that dimension
// (renormalized), moves to the best improving neighbour, and halves the
// step when stuck, stopping when the evaluation budget is exhausted or the
// step underflows. This mirrors the paper's offline search: ~180
// evaluations starting from uniform-workers. A non-nil prepare sees every
// point before it is evaluated; it changes neither the points nor their
// order.
func HillClimbWeights(eval Eval, prepare Prepare, start []float64, step float64, budget int) (*Result, error) {
	if len(start) == 0 {
		return nil, fmt.Errorf("search: empty start point")
	}
	if step <= 0 || step >= 1 {
		return nil, fmt.Errorf("search: step %v out of (0,1)", step)
	}
	if budget < 1 {
		return nil, fmt.Errorf("search: budget %d", budget)
	}
	res := &Result{}
	evalPoint := func(w []float64) float64 {
		score := eval(w)
		res.History = append(res.History, Candidate{Weights: append([]float64(nil), w...), Score: score})
		res.Evals++
		return score
	}

	cur := stats.Normalize(start)
	if prepare != nil {
		prepare([][]float64{cur})
	}
	curScore := evalPoint(cur)
	res.Best = res.History[0]

	for res.Evals < budget && step > 1e-4 {
		var cands [][]float64
		for dim := range cur {
			for _, dir := range []float64{+1, -1} {
				if cand := perturb(cur, dim, dir*step); cand != nil {
					cands = append(cands, cand)
				}
			}
		}
		cands = cands[:min(len(cands), budget-res.Evals)]
		if prepare != nil {
			prepare(cands)
		}
		bestNeighbor := []float64(nil)
		bestScore := curScore
		for _, cand := range cands {
			if s := evalPoint(cand); s < bestScore {
				bestScore, bestNeighbor = s, cand
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
	return res, nil
}

// perturb shifts delta of weight mass onto dimension dim (negative delta
// removes mass) and renormalizes. It returns nil when the move is
// infeasible (weight would go negative).
func perturb(w []float64, dim int, delta float64) []float64 {
	out := append([]float64(nil), w...)
	out[dim] += delta
	if out[dim] < 0 {
		return nil
	}
	sum := stats.Sum(out)
	if sum <= 0 {
		return nil
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// HillClimbMulti runs HillClimbWeights from several starting points,
// splitting the budget evenly (StartBudget), and merges the histories into
// one Result (MergeClimbs). The paper's single 180-evaluation climb from
// uniform-workers explores a large sample of the landscape; at the reduced
// budgets tests and benchmarks use, restarting from structurally different
// points (e.g. uniform-workers and uniform-all) recovers that coverage.
func HillClimbMulti(eval Eval, starts [][]float64, step float64, budget int) (*Result, error) {
	if len(starts) == 0 {
		return nil, fmt.Errorf("search: no start points")
	}
	climbs := make([]*Result, len(starts))
	for i, start := range starts {
		r, err := HillClimbWeights(eval, nil, start, step, StartBudget(budget, len(starts)))
		if err != nil {
			return nil, err
		}
		climbs[i] = r
	}
	return MergeClimbs(climbs), nil
}

// StartBudget is the evaluation budget each of starts climbs gets when a
// multi-start search splits budget evenly: at least one evaluation each.
func StartBudget(budget, starts int) int {
	return max(1, budget/starts)
}

// MergeClimbs merges the climbs of one multi-start search, given in start
// order: histories are concatenated and evaluations summed, and Best is
// the lowest-scoring climb's best, the earliest such climb's on a tie.
// Climbs run separately (for example on a worker pool) and merged here
// give exactly HillClimbMulti's result.
func MergeClimbs(climbs []*Result) *Result {
	merged := &Result{}
	for _, r := range climbs {
		merged.History = append(merged.History, r.History...)
		merged.Evals += r.Evals
		if merged.Best.Weights == nil || r.Best.Score < merged.Best.Score {
			merged.Best = r.Best
		}
	}
	return merged
}

// Uniform returns the uniform weight vector of length n.
func Uniform(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	return w
}

// UniformOver returns a vector of length n with uniform mass on the given
// indices (e.g. uniform-workers as a search start point).
func UniformOver(n int, idx []int) []float64 {
	w := make([]float64, n)
	if len(idx) == 0 {
		return w
	}
	for _, i := range idx {
		w[i] = 1 / float64(len(idx))
	}
	return w
}
