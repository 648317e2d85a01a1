package experiments

import (
	"fmt"
	"math"
	"strings"

	"bwap/internal/topology"
	"bwap/internal/workload"
)

// SpeedupRow is one benchmark's result across all policies, as a speedup
// relative to uniform-workers (the paper's Figures 2 and 3 baseline).
type SpeedupRow struct {
	Benchmark string
	// Speedup maps policy name to T(uniform-workers)/T(policy).
	Speedup map[string]float64
	// Time maps policy name to absolute completion time (seconds).
	Time map[string]float64
	// BWAPDWP is the DWP the bwap tuner settled on (median over seeds).
	BWAPDWP float64
	// Workers is the worker count used for this row.
	Workers int
}

// SpeedupFigure is one panel of Figure 2 or Figure 3.
type SpeedupFigure struct {
	// Label identifies the panel (e.g. "Figure 2a").
	Label string
	// Scenario is "co-scheduled" or "stand-alone".
	Scenario string
	// MachineName identifies the machine.
	MachineName string
	Rows        []SpeedupRow
}

// RunCoScheduled reproduces one co-scheduled panel (Figure 2a/b/c on
// Machine A; Figure 3a/b on Machine B): benchmark B runs on `workers`
// nodes under each policy while Swaptions occupies the remaining nodes.
// Benchmark rows are independent cells and run on the shared worker pool.
func RunCoScheduled(p *Profile, workers int, label string) (*SpeedupFigure, error) {
	ws, err := p.Workers(workers)
	if err != nil {
		return nil, err
	}
	fig := &SpeedupFigure{Label: label, Scenario: "co-scheduled", MachineName: p.Name}
	benches := workload.Benchmarks()
	fig.Rows = make([]SpeedupRow, len(benches))
	err = parallelFor(len(benches), func(i int) error {
		row, err := p.speedupRow(benches[i], ws, true)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", label, benches[i].Name, err)
		}
		fig.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return fig, nil
}

// RunStandalone reproduces Figure 3c/3d: each benchmark deployed
// stand-alone at the paper's optimal worker count for the machine.
func RunStandalone(p *Profile, label string) (*SpeedupFigure, error) {
	optimal := OptimalWorkersStandalone(p.Name)
	fig := &SpeedupFigure{Label: label, Scenario: "stand-alone", MachineName: p.Name}
	benches := workload.Benchmarks()
	fig.Rows = make([]SpeedupRow, len(benches))
	err := parallelFor(len(benches), func(i int) error {
		ws, err := p.Workers(optimal[benches[i].Name])
		if err != nil {
			return err
		}
		row, err := p.speedupRow(benches[i], ws, false)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", label, benches[i].Name, err)
		}
		fig.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return fig, nil
}

func (p *Profile) speedupRow(spec workload.Spec, ws []topology.NodeID, coSched bool) (SpeedupRow, error) {
	row := SpeedupRow{
		Benchmark: spec.Name,
		Speedup:   make(map[string]float64),
		Time:      make(map[string]float64),
		BWAPDWP:   math.NaN(),
		Workers:   len(ws),
	}
	// The policy columns of a row are independent deployments too.
	results := make([]RunResult, len(PolicyNames))
	err := parallelFor(len(PolicyNames), func(i int) error {
		r, err := p.Run(spec, ws, PolicyNames[i], coSched)
		results[i] = r
		return err
	})
	if err != nil {
		return row, err
	}
	for i, pol := range PolicyNames {
		row.Time[pol] = results[i].Time
		if pol == "bwap" {
			row.BWAPDWP = results[i].BestDWP
		}
	}
	base := row.Time["uniform-workers"]
	for pol, t := range row.Time {
		row.Speedup[pol] = base / t
	}
	return row, nil
}

// Render prints the panel in the layout of Figures 2/3 (speedup vs
// uniform-workers; higher is better).
func (f *SpeedupFigure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — speedup vs uniform-workers (%s, %s)\n", f.Label, f.Scenario, f.MachineName)
	fmt.Fprintf(&b, "%-7s %4s", "Bench", "W")
	for _, pol := range PolicyNames {
		fmt.Fprintf(&b, " %15s", pol)
	}
	b.WriteString("   bwap-DWP\n")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-7s %4d", r.Benchmark, r.Workers)
		for _, pol := range PolicyNames {
			fmt.Fprintf(&b, " %15.2f", r.Speedup[pol])
		}
		if math.IsNaN(r.BWAPDWP) {
			b.WriteString("          -\n")
		} else {
			fmt.Fprintf(&b, " %9.0f%%\n", r.BWAPDWP*100)
		}
	}
	return b.String()
}
