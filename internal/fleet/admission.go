package fleet

import (
	"fmt"

	"bwap/internal/sched"
	"bwap/internal/topology"
)

// Admission policy names accepted by Config.Admission.
const (
	// AdmitMostFree hands the job the lowest-numbered free nodes — the
	// packing rule the scheduler used before the policy seam existed.
	AdmitMostFree = "most-free"
	// AdmitBestBandwidth picks the free node subset with the highest
	// aggregate inter-worker bandwidth (sched.BestWorkerSubset — the
	// AsymSched rule restricted to what is actually free).
	AdmitBestBandwidth = "best-bandwidth"
	// AdmitAntiAffinity spreads bandwidth-hungry jobs away from occupied
	// nodes: among the free subsets it maximizes internal bandwidth minus
	// the interconnect coupling to busy nodes. Modest jobs fall back to
	// most-free packing.
	AdmitAntiAffinity = "anti-affinity"
)

// AdmissionPolicy is the node-selection seam of the admission decision:
// given the machine the scheduler settled on and its free nodes, it picks
// the job's worker set. Machine selection itself (bestFit: most free
// nodes, ties to the lowest machine id) stays in the scheduler, so every
// admission path asks one rule where a job fits (see DESIGN.md).
//
// PickNodes is called with free in ascending node order and
// len(free) >= job.Workers; it must return exactly job.Workers distinct
// members of free.
type AdmissionPolicy interface {
	Name() string
	PickNodes(topo *topology.Machine, free []topology.NodeID, job *Job) ([]topology.NodeID, error)
}

// NewAdmissionPolicy builds one of the named admission policies.
func NewAdmissionPolicy(name string) (AdmissionPolicy, error) {
	switch name {
	case AdmitMostFree:
		return mostFree{}, nil
	case AdmitBestBandwidth:
		return bestBandwidth{}, nil
	case AdmitAntiAffinity:
		return antiAffinity{}, nil
	}
	return nil, fmt.Errorf("fleet: unknown admission policy %q", name)
}

// mostFree packs the lowest-numbered free nodes, preserving the original
// machine.allocate behaviour.
type mostFree struct{}

func (mostFree) Name() string { return AdmitMostFree }

func (mostFree) PickNodes(_ *topology.Machine, free []topology.NodeID, job *Job) ([]topology.NodeID, error) {
	return append([]topology.NodeID(nil), free[:job.Workers]...), nil
}

// bestBandwidth maximizes aggregate inter-worker bandwidth over the free
// subset.
type bestBandwidth struct{}

func (bestBandwidth) Name() string { return AdmitBestBandwidth }

func (bestBandwidth) PickNodes(topo *topology.Machine, free []topology.NodeID, job *Job) ([]topology.NodeID, error) {
	return sched.BestWorkerSubset(topo, free, job.Workers)
}

// hungryDemandGBs classifies a workload as bandwidth-hungry: at or above
// this aggregate demand the anti-affinity policy spreads it away from
// occupied nodes. The threshold sits between the paper's compute-bound
// co-runner (Swaptions, ~1 GB/s) and its memory-intensive benchmarks
// (Table I: 10-40 GB/s).
const hungryDemandGBs = 8

// antiAffinity spreads bandwidth-hungry jobs: it scores every free
// k-subset by internal inter-worker bandwidth minus the nominal bandwidth
// coupling to busy nodes, so a hungry job lands on the free nodes whose
// interconnect paths are least shared with already-running jobs. Jobs
// below the demand threshold pack most-free, keeping dense nodes free for
// the hungry ones.
type antiAffinity struct{}

func (antiAffinity) Name() string { return AdmitAntiAffinity }

func (antiAffinity) PickNodes(topo *topology.Machine, free []topology.NodeID, job *Job) ([]topology.NodeID, error) {
	if job.Spec.ReadGBs+job.Spec.WriteGBs < hungryDemandGBs {
		return mostFree{}.PickNodes(topo, free, job)
	}
	busy := busyNodes(topo, free)
	if len(busy) == 0 {
		// Empty machine: coupling is zero for every subset, so this is
		// exactly the best-bandwidth choice.
		return sched.BestWorkerSubset(topo, free, job.Workers)
	}
	return sched.BestScoredSubset(free, job.Workers, func(sub []topology.NodeID) float64 {
		score := sched.InterWorkerBW(topo, sub)
		for _, a := range sub {
			for _, b := range busy {
				score -= topo.NominalBW(a, b) + topo.NominalBW(b, a)
			}
		}
		return score
	})
}

// busyNodes returns the machine's nodes absent from the ascending free
// list, in ascending order.
func busyNodes(topo *topology.Machine, free []topology.NodeID) []topology.NodeID {
	var busy []topology.NodeID
	j := 0
	for i := 0; i < topo.NumNodes(); i++ {
		n := topology.NodeID(i)
		if j < len(free) && free[j] == n {
			j++
			continue
		}
		busy = append(busy, n)
	}
	return busy
}
