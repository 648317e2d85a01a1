package experiments

import (
	"fmt"
	"strings"

	"bwap/internal/memsys"
	"bwap/internal/mm"
	"bwap/internal/policy"
	"bwap/internal/search"
	"bwap/internal/sim"
	"bwap/internal/topology"
	"bwap/internal/workload"
)

// inf is the objective value for failed search evaluations.
const inf = 1e30

// Fig1a is the pairwise node-to-node bandwidth matrix (Figure 1a).
type Fig1a struct {
	MachineName string
	// Matrix[src][dst] is the measured single-stream bandwidth in GB/s.
	Matrix [][]float64
}

// RunFig1a measures the matrix the way the paper does: one saturating
// stream per (src,dst) pair, nothing else running.
func RunFig1a(p *Profile) *Fig1a {
	memCfg := memsys.DefaultConfig()
	if p.SimCfg.Mem != nil {
		memCfg = *p.SimCfg.Mem
	}
	sys := memsys.New(p.M, memCfg)
	return &Fig1a{MachineName: p.M.Name, Matrix: sys.MeasuredMatrix()}
}

// Render prints the matrix in the layout of Figure 1a (rows = source node,
// columns = destination node).
func (f *Fig1a) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1a — node-to-node BWs (GB/s) on %s\n", f.MachineName)
	b.WriteString("src\\dst")
	for d := range f.Matrix {
		fmt.Fprintf(&b, "   N%-3d", d+1)
	}
	b.WriteString("\n")
	for s, row := range f.Matrix {
		fmt.Fprintf(&b, "  N%-4d", s+1)
		for _, v := range row {
			fmt.Fprintf(&b, " %6.1f", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig1bRow is one benchmark of Figure 1b: execution-time of each baseline
// normalized against the offline n-dimensional search (1.0 = as good as
// the search's best placements; lower = slower).
type Fig1bRow struct {
	Benchmark      string
	FirstTouch     float64
	UniformWorkers float64
	UniformAll     float64
	// OracleTime is the mean execution time of the search's top-10 weight
	// distributions.
	OracleTime float64
	// OracleBest is the single best weight distribution found.
	OracleBest []float64
}

// Fig1b is the motivation experiment of Section II: 2 worker nodes,
// 8 threads each, on Machine A.
type Fig1b struct {
	Rows []Fig1bRow
	// Evals is the number of objective evaluations each benchmark's
	// search made (the most any made, should a climb stop early).
	Evals int
}

// RunFig1b reproduces Figure 1b: for each benchmark, hill-climb the
// N-dimensional weight space (starting from uniform-workers, as the paper
// does) and normalize the standard policies against the top-10 mean.
//
// Every climb of every benchmark and every baseline run is one task of a
// single flat fan-out, climbs first: the climbs are the long tasks and
// differ several-fold in cost, and a fan-out per benchmark, nested or not,
// leaves a slot idle behind its slowest climb (DESIGN.md §4). Each
// benchmark's climbs are then merged in start order, as
// search.HillClimbMulti merges them. Every evaluation binds through one
// walk table, so a weight vector any climb has visited — the two starts
// and their neighbours recur across benchmarks — is walked once per call.
// Each climb hands the table the points of a step before evaluating them
// (mm.WalkTable.Prepare), so the vectors it lacks are walked four at a
// time to the benchmark's largest segment.
func RunFig1b(p *Profile) (*Fig1b, error) {
	workers, err := p.Workers(2)
	if err != nil {
		return nil, err
	}
	benches := workload.Benchmarks()
	// The paper climbs from uniform-workers; a second start at uniform-all
	// keeps the oracle strong at reduced budgets.
	starts := [][]float64{
		search.UniformOver(p.M.NumNodes(), nodeInts(workers)),
		search.Uniform(p.M.NumNodes()),
	}
	perStart := search.StartBudget(p.SearchBudget, len(starts))
	walks := mm.NewWalkTable()
	policies := []string{"first-touch", "uniform-workers", "uniform-all"}
	climbs := make([]*search.Result, len(benches)*len(starts))
	baselines := make([]RunResult, len(benches)*len(policies))
	err = parallelFor(len(climbs)+len(baselines), func(i int) error {
		if i >= len(climbs) {
			i -= len(climbs)
			r, err := p.Run(benches[i/len(policies)], workers, policies[i%len(policies)], false)
			baselines[i] = r
			return err
		}
		spec := benches[i/len(starts)]
		objective := func(w []float64) float64 {
			t, err := p.staticWeightedTime(spec, workers, w, walks)
			if err != nil {
				return inf
			}
			return t
		}
		pages := largestSegmentPages(spec)
		prepare := func(points [][]float64) { walks.Prepare(points, pages) }
		r, err := search.HillClimbWeights(objective, prepare, starts[i%len(starts)], 0.10, perStart)
		climbs[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	out := &Fig1b{Rows: make([]Fig1bRow, len(benches))}
	for b, spec := range benches {
		res := search.MergeClimbs(climbs[b*len(starts) : (b+1)*len(starts)])
		out.Evals = max(out.Evals, res.Evals)
		oracle := res.MeanTopK(10)
		base := baselines[b*len(policies):]
		out.Rows[b] = Fig1bRow{
			Benchmark:      spec.Name,
			FirstTouch:     oracle / base[0].Time,
			UniformWorkers: oracle / base[1].Time,
			UniformAll:     oracle / base[2].Time,
			OracleTime:     oracle,
			OracleBest:     res.Best.Weights,
		}
	}
	return out, nil
}

// staticWeightedTime runs one stand-alone deployment under a fixed weight
// vector (the search's evaluation function), binding through walks.
func (p *Profile) staticWeightedTime(spec workload.Spec, workers []topology.NodeID, w []float64, walks *mm.WalkTable) (float64, error) {
	e := sim.New(p.M, p.SimCfg)
	placer := policy.StaticWeighted{Weights: w, Label: "static-search", Walks: walks}
	if _, err := e.AddApp(spec.Name, spec.Scaled(p.WorkScale), workers, placer); err != nil {
		return 0, err
	}
	res, err := e.Run()
	if err != nil {
		return 0, err
	}
	if res.TimedOut {
		return 0, fmt.Errorf("experiments: static-weighted %s timed out", spec.Name)
	}
	return res.Times[spec.Name], nil
}

// largestSegmentPages is the page count of spec's largest segment, shared
// or private, as sim.Engine.AddApp maps them.
func largestSegmentPages(spec workload.Spec) int {
	gb := max(spec.SharedGB, spec.PrivateGBPerNode)
	return int((uint64(gb*float64(1<<30)) + mm.PageSize - 1) / mm.PageSize)
}

// nodeInts converts node ids to plain ints for search.UniformOver.
func nodeInts(nodes []topology.NodeID) []int {
	out := make([]int, len(nodes))
	for i, n := range nodes {
		out[i] = int(n)
	}
	return out
}

// Render prints Figure 1b as a table.
func (f *Fig1b) Render() string {
	var b strings.Builder
	b.WriteString("Figure 1b — performance normalized to the n-dim search (higher is better)\n")
	b.WriteString("Benchmark   first-touch  uniform-workers  uniform-all   (oracle time s)\n")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-11s %11.2f %16.2f %12.2f %14.1f\n",
			r.Benchmark, r.FirstTouch, r.UniformWorkers, r.UniformAll, r.OracleTime)
	}
	fmt.Fprintf(&b, "(search budget: %d evaluations per benchmark)\n", f.Evals)
	return b.String()
}
