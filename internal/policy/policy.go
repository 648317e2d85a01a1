// Package policy implements the page-placement baselines the paper
// evaluates BWAP against (Section IV): Linux's default first-touch, uniform
// interleaving across worker nodes (the strategy of Carrefour [21] and
// AsymSched [37]), uniform interleaving across all nodes, the locality-driven
// AutoNUMA extension, and a static weighted interleave used by the offline
// n-dimensional search of Section II.
package policy

import (
	"fmt"

	"bwap/internal/mm"
	"bwap/internal/numaapi"
	"bwap/internal/sim"
)

// FirstTouch is the Linux default policy: each page is allocated on the
// node of the thread that first touches it. Thread-private pages land on
// their owner's node; shared pages land on the node of the initializing
// thread — the first worker — which is the centralization pathology the
// paper describes ("it tends to centralize many shared pages on a single
// node").
type FirstTouch struct{}

// Name implements sim.Placer.
func (FirstTouch) Name() string { return "first-touch" }

// Place implements sim.Placer.
func (FirstTouch) Place(e *sim.Engine, a *sim.App) error {
	for _, seg := range a.Segments() {
		if seg.Owner() != mm.SharedOwner {
			seg.FaultAll(seg.Owner())
		} else {
			seg.FaultAll(a.Workers[0])
		}
	}
	return nil
}

// UniformWorkers interleaves every page uniformly across the worker nodes —
// the paper's "uniform-workers", the core strategy of state-of-the-art
// systems.
type UniformWorkers struct{}

// Name implements sim.Placer.
func (UniformWorkers) Name() string { return "uniform-workers" }

// Place implements sim.Placer.
func (UniformWorkers) Place(e *sim.Engine, a *sim.App) error {
	mask := numaapi.NewBitmask(a.Workers...)
	for _, seg := range a.Segments() {
		if err := numaapi.InterleaveMemory(seg, mask); err != nil {
			return err
		}
	}
	return nil
}

// UniformAll interleaves every page uniformly across all nodes of the
// machine (workers and non-workers) — the paper's "uniform-all".
type UniformAll struct{}

// Name implements sim.Placer.
func (UniformAll) Name() string { return "uniform-all" }

// Place implements sim.Placer.
func (UniformAll) Place(e *sim.Engine, a *sim.App) error {
	mask := numaapi.AllNodes(e.M.NumNodes())
	for _, seg := range a.Segments() {
		if err := numaapi.InterleaveMemory(seg, mask); err != nil {
			return err
		}
	}
	return nil
}

// StaticWeighted places every segment by a fixed weight vector using the
// kernel-level weighted interleave. The offline n-dimensional search of
// Section II evaluates candidate weight distributions through this policy.
type StaticWeighted struct {
	// Weights has one non-negative entry per node; it is normalized by mm.
	Weights []float64
	// Label customizes Name() for experiment output.
	Label string
	// Walks, when set, shares the weights' walk checkpoints with every
	// other placement through the same table (see mm.WalkTable).
	Walks *mm.WalkTable
}

// Name implements sim.Placer.
func (p StaticWeighted) Name() string {
	if p.Label != "" {
		return p.Label
	}
	return "static-weighted"
}

// Place implements sim.Placer.
func (p StaticWeighted) Place(e *sim.Engine, a *sim.App) error {
	if len(p.Weights) != e.M.NumNodes() {
		return fmt.Errorf("policy: %d weights for %d nodes", len(p.Weights), e.M.NumNodes())
	}
	for _, seg := range a.Segments() {
		if err := seg.MbindWeightedShared(p.Weights, mm.MoveFlag, p.Walks); err != nil {
			return err
		}
	}
	return nil
}

// AutoNUMA simulates Linux's locality-driven NUMA balancing [1][10]: pages
// start first-touch, then periodic access sampling migrates each page
// toward the node that accesses it most, at a capped migration rate.
// Thread-private pages converge to their owner; uniformly shared pages have
// no stable majority, so their samples keep nominating different workers
// and the pages ping-pong among the worker set — locality-driven balancing
// is bandwidth-oblivious, which is exactly the behaviour BWAP improves on.
//
// One AutoNUMA instance handles every app it places; register it as a hook
// once per engine via Attach.
type AutoNUMA struct {
	// ScanInterval is the balancing period in simulated seconds (default 1).
	ScanInterval float64
	// RateGBs caps migration bandwidth per app (default 0.5 GB/s, matching
	// the kernel's conservative default ratelimit).
	RateGBs float64

	apps     []*sim.App
	lastScan float64
	rotor    int
	attached bool
	target   []float64 // reusable fraction-vector scratch
}

// Name implements sim.Placer.
func (p *AutoNUMA) Name() string { return "autonuma" }

// Place implements sim.Placer: initial placement is first-touch, and the
// balancer hook is registered on first use.
func (p *AutoNUMA) Place(e *sim.Engine, a *sim.App) error {
	if err := (FirstTouch{}).Place(e, a); err != nil {
		return err
	}
	p.apps = append(p.apps, a)
	if !p.attached {
		p.attached = true
		e.AddHook(p)
	}
	return nil
}

// Tick implements sim.Hook: every ScanInterval, migrate pages toward their
// sampled majority accessor.
func (p *AutoNUMA) Tick(e *sim.Engine) {
	interval := p.ScanInterval
	if interval <= 0 {
		interval = 1.0
	}
	rate := p.RateGBs
	if rate <= 0 {
		rate = 0.5
	}
	if e.Now()-p.lastScan < interval {
		return
	}
	p.lastScan = e.Now()
	p.rotor++
	for _, a := range p.apps {
		if a.Done() {
			continue
		}
		budget := int64(rate * interval * 1e9)
		segs := a.Segments()
		if len(segs) == 0 {
			continue
		}
		perSeg := budget / int64(len(segs))
		for _, seg := range segs {
			if len(p.target) != e.M.NumNodes() {
				p.target = make([]float64, e.M.NumNodes())
			}
			target := p.target
			for i := range target {
				target[i] = 0
			}
			if owner := seg.Owner(); owner != mm.SharedOwner {
				// Private pages: the owner is the unambiguous majority.
				target[owner] = 1
			} else {
				// Shared pages: samples arrive from every worker; the
				// instantaneous majority is noise, so the balancer chases a
				// rotating favourite — uniform across workers in the long
				// run, with sustained ping-pong migration cost.
				bias := a.Workers[p.rotor%len(a.Workers)]
				for _, w := range a.Workers {
					target[w] = 0.9 / float64(len(a.Workers))
				}
				target[bias] += 0.1
			}
			seg.MigrateToward(target, perSeg) //nolint:errcheck // target sized by construction
		}
	}
}
