// Package sched implements the thread-placement side of the deployment:
// choosing worker node sets and pinning threads to cores. The paper
// delegates this to prior work and adopts AsymSched's rule of thumb
// (Section IV): group threads on the subset of worker nodes with the
// highest aggregate inter-worker bandwidth, then pin one thread per core.
package sched

import (
	"fmt"

	"bwap/internal/topology"
)

// InterWorkerBW scores a candidate worker set: the sum of nominal
// bandwidths over all ordered pairs of distinct workers. For a single
// worker the score is its local bandwidth.
func InterWorkerBW(m *topology.Machine, workers []topology.NodeID) float64 {
	if len(workers) == 1 {
		return m.NominalBW(workers[0], workers[0])
	}
	total := 0.0
	for _, a := range workers {
		for _, b := range workers {
			if a != b {
				total += m.NominalBW(a, b)
			}
		}
	}
	return total
}

// BestWorkerSet returns the k-node worker set with the highest aggregate
// inter-worker bandwidth (the AsymSched rule), breaking ties toward the
// lexicographically smallest set so the choice is deterministic.
func BestWorkerSet(m *topology.Machine, k int) ([]topology.NodeID, error) {
	n := m.NumNodes()
	if k <= 0 || k > n {
		return nil, fmt.Errorf("sched: worker count %d out of [1,%d]", k, n)
	}
	all := make([]topology.NodeID, n)
	for i := range all {
		all[i] = topology.NodeID(i)
	}
	return BestWorkerSubset(m, all, k)
}

// BestWorkerSubset is BestWorkerSet restricted to a candidate node list —
// how a fleet admission policy picks the highest-bandwidth worker set
// among a machine's currently *free* nodes. Candidates are combined in
// the order given; with an ascending list, ties resolve to the
// lexicographically smallest set, matching BestWorkerSet.
func BestWorkerSubset(m *topology.Machine, avail []topology.NodeID, k int) ([]topology.NodeID, error) {
	return BestScoredSubset(avail, k, func(sub []topology.NodeID) float64 {
		return InterWorkerBW(m, sub)
	})
}

// BestScoredSubset enumerates the k-element subsets of avail in
// lexicographic (candidate-order) position and returns the one maximizing
// score, keeping the earliest subset on ties — the deterministic
// tie-break every placement caller relies on. Scores may be negative; the
// first subset evaluated always seeds the maximum.
func BestScoredSubset(avail []topology.NodeID, k int, score func([]topology.NodeID) float64) ([]topology.NodeID, error) {
	if k <= 0 || k > len(avail) {
		return nil, fmt.Errorf("sched: worker count %d out of [1,%d]", k, len(avail))
	}
	var best []topology.NodeID
	bestScore := 0.0
	cur := make([]topology.NodeID, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(cur) == k {
			if s := score(cur); best == nil || s > bestScore+1e-12 {
				bestScore = s
				best = append(best[:0], cur...)
			}
			return
		}
		// Prune: not enough candidates left.
		need := k - len(cur)
		for i := start; i <= len(avail)-need; i++ {
			cur = append(cur, avail[i])
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return best, nil
}

// RemainingNodes returns the machine's nodes not in the worker set, in
// ascending order — where a co-scheduled high-priority application runs.
func RemainingNodes(m *topology.Machine, workers []topology.NodeID) []topology.NodeID {
	used := make(map[topology.NodeID]bool, len(workers))
	for _, w := range workers {
		used[w] = true
	}
	var out []topology.NodeID
	for i := 0; i < m.NumNodes(); i++ {
		if !used[topology.NodeID(i)] {
			out = append(out, topology.NodeID(i))
		}
	}
	return out
}

// PinAllCores returns the thread distribution that pins one thread per
// hardware thread of every worker node — how the paper deploys every
// benchmark ("we pin each thread to a distinct core").
func PinAllCores(m *topology.Machine, workers []topology.NodeID) []int {
	out := make([]int, len(workers))
	for i, w := range workers {
		out[i] = m.Node(w).Cores
	}
	return out
}
