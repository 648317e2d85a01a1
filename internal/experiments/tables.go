package experiments

import (
	"fmt"
	"math"
	"strings"

	"bwap/internal/policy"
	"bwap/internal/sim"
	"bwap/internal/trace"
	"bwap/internal/workload"
)

// Table1 is the memory-access characterization of the benchmarks
// (Table I: measured on Machine B with one full worker node).
type Table1 struct {
	MachineName string
	Rows        []trace.Characterization
}

// RunTable1 reproduces Table I: run every benchmark on one worker node of
// the profile's machine and characterize it with the trace package (our
// NumaMMA substitute).
func RunTable1(p *Profile) (*Table1, error) {
	ws, err := p.Workers(1)
	if err != nil {
		return nil, err
	}
	out := &Table1{MachineName: p.Name}
	benches := workload.Benchmarks()
	out.Rows = make([]trace.Characterization, len(benches))
	err = parallelFor(len(benches), func(i int) error {
		spec := benches[i]
		e := sim.New(p.M, p.SimCfg)
		// Pages are spread uniform-all so the single worker's demand is not
		// clipped by one controller: NumaMMA characterizes the benchmark's
		// *demand*, not a placement bottleneck.
		app, err := e.AddApp(spec.Name, spec.Scaled(p.WorkScale), ws, policy.UniformAll{})
		if err != nil {
			return err
		}
		res, err := e.Run()
		if err != nil {
			return err
		}
		if res.TimedOut {
			return fmt.Errorf("experiments: table1 run for %s timed out", spec.Name)
		}
		out.Rows[i] = trace.Characterize(app)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Render prints Table I.
func (t *Table1) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — memory access characterization (%s, one full worker node)\n", t.MachineName)
	b.WriteString(trace.Table(t.Rows))
	return b.String()
}

// Table2 reports the DWP values found by the BWAP iterative search in the
// co-scheduled scenarios (Table II of the paper).
type Table2 struct {
	MachineName string
	// Workers lists the scenario worker counts (columns).
	Workers []int
	// DWP[benchmark][i] pairs with Workers[i].
	DWP map[string][]float64
	// Order preserves the paper's benchmark row order.
	Order []string
}

// RunTable2 reproduces the profile's half of Table II: for each benchmark
// and worker count, run the co-scheduled BWAP deployment and record the
// DWP the search chose.
func RunTable2(p *Profile, workerCounts []int) (*Table2, error) {
	out := &Table2{
		MachineName: p.Name,
		Workers:     append([]int(nil), workerCounts...),
		DWP:         make(map[string][]float64),
	}
	// Every (benchmark, worker count) pair is an independent cell; run the
	// whole grid on the shared worker pool.
	benches := workload.Benchmarks()
	cells := make([]float64, len(benches)*len(workerCounts))
	err := parallelFor(len(cells), func(i int) error {
		spec := benches[i/len(workerCounts)]
		nw := workerCounts[i%len(workerCounts)]
		ws, err := p.Workers(nw)
		if err != nil {
			return err
		}
		r, err := p.Run(spec, ws, "bwap", true)
		if err != nil {
			return fmt.Errorf("table2 %s %dW: %w", spec.Name, nw, err)
		}
		cells[i] = r.BestDWP
		return nil
	})
	if err != nil {
		return nil, err
	}
	for bi, spec := range benches {
		out.Order = append(out.Order, spec.Name)
		// Full slice expression: rows must not share spare capacity.
		out.DWP[spec.Name] = cells[bi*len(workerCounts) : (bi+1)*len(workerCounts) : (bi+1)*len(workerCounts)]
	}
	return out, nil
}

// Render prints Table II.
func (t *Table2) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II — DWP values via BWAP iterative search (co-scheduled, %s)\n", t.MachineName)
	b.WriteString("Application")
	for _, w := range t.Workers {
		fmt.Fprintf(&b, " %9dW", w)
	}
	b.WriteString("\n")
	for _, name := range t.Order {
		fmt.Fprintf(&b, "%-11s", name)
		for _, v := range t.DWP[name] {
			if math.IsNaN(v) {
				b.WriteString("         -")
			} else {
				fmt.Fprintf(&b, " %9.1f%%", v*100)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
