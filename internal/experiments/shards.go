package experiments

import (
	"fmt"
	"strings"
	"time"

	"bwap/internal/fleet"
	"bwap/internal/sim"
	"bwap/internal/topology"
)

// The shard-scaling scenario measures the fleet's multi-core axis: the
// identical job stream scheduled at increasing shard counts (worker pool
// sized to match), under each admission policy. Because routing is
// least-loaded, the simulated outcome — every placement, turnaround and
// log byte — is invariant to the shard count (the replay tests pin this);
// what changes is wall-clock time, so the table separates simulation
// results (identical down the column) from the wall-time scaling the
// sharding exists for. Runs share one pre-warmed tuning cache so probe
// cost does not pollute the timing.

// ShardAdmissionPolicies is the fixed comparison order.
var ShardAdmissionPolicies = []string{
	fleet.AdmitMostFree, fleet.AdmitBestBandwidth, fleet.AdmitAntiAffinity,
}

// ShardScalingResult is one (admission policy, shard count) cell.
type ShardScalingResult struct {
	Admission string
	Shards    int
	WallMS    float64
	Stats     *fleet.Stats
}

// ShardScalingTable is the rendered scenario.
type ShardScalingTable struct {
	Title       string
	Machines    int
	Jobs        int
	ShardCounts []int
	Results     []ShardScalingResult
}

// RunShardScaling executes the scenario: a shared Poisson stream over a
// fleet of Machine B boxes, swept over admission policies × shard counts.
// quick shrinks the fleet and stream for tests and CI.
func RunShardScaling(quick bool) (*ShardScalingTable, error) {
	machines := 8
	shardCounts := []int{1, 2, 4}
	jobsPerClass := 6
	workScale := 0.05
	if quick {
		machines = 4
		shardCounts = []int{1, 2}
		jobsPerClass = 2
		workScale = 0.03
	}
	streams := fleetStream(jobsPerClass, workScale)
	simCfg := sim.Config{Seed: 1}
	cache := fleet.NewTuningCache(simCfg, 0, 1)

	newFleet := func(admission string, shards int) (*fleet.Fleet, error) {
		return fleet.New(fleet.Config{
			Machines:   machines,
			Shards:     shards,
			Workers:    shards,
			Admission:  admission,
			NewMachine: func(int) *topology.Machine { return topology.MachineB() },
			SimCfg:     simCfg,
			Seed:       1,
			Cache:      cache,
		})
	}

	// Warm the cache once per admission policy (placements differ across
	// policies, so their co-runner contexts can too), then time the grid.
	// Cells run serially on purpose: wall-clock scaling is the measurement.
	table := &ShardScalingTable{
		Title:       "Shard scaling: admission policies × shard counts on a shared job stream",
		Machines:    machines,
		Jobs:        jobsPerClass * 3,
		ShardCounts: shardCounts,
	}
	for _, admission := range ShardAdmissionPolicies {
		warm, err := newFleet(admission, 1)
		if err != nil {
			return nil, err
		}
		if err := warm.SubmitStream(streams); err != nil {
			return nil, err
		}
		if _, err := warm.Run(); err != nil {
			return nil, fmt.Errorf("shards warm-up (%s): %w", admission, err)
		}
		for _, shards := range shardCounts {
			f, err := newFleet(admission, shards)
			if err != nil {
				return nil, err
			}
			if err := f.SubmitStream(streams); err != nil {
				return nil, err
			}
			start := time.Now() //bwap:wallclock WallMS reports real speedup; it is presentation, not simulation state
			stats, err := f.Run()
			if err != nil {
				return nil, fmt.Errorf("shards %s/%d: %w", admission, shards, err)
			}
			table.Results = append(table.Results, ShardScalingResult{
				Admission: admission,
				Shards:    shards,
				WallMS:    float64(time.Since(start).Microseconds()) / 1000, //bwap:wallclock harness timing, excluded from log-identity checks
				Stats:     stats,
			})
		}
	}
	return table, nil
}

// Render formats the comparison.
func (t *ShardScalingTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%d machines (Machine B), %d jobs, least-loaded routing, workers = shards\n", t.Machines, t.Jobs)
	fmt.Fprintf(&b, "(simulated columns are shard-invariant by construction; wall ms is the scaling axis)\n\n")
	fmt.Fprintf(&b, "  %-16s %7s %9s %11s %12s %7s %8s\n",
		"admission", "shards", "wall ms", "speedup", "turnaround", "util", "cache")
	var base float64
	for _, r := range t.Results {
		if r.Shards == t.ShardCounts[0] {
			base = r.WallMS
		}
		speedup := "-"
		if r.Shards != t.ShardCounts[0] && r.WallMS > 0 {
			speedup = fmt.Sprintf("%.2fx", base/r.WallMS)
		}
		s := r.Stats
		fmt.Fprintf(&b, "  %-16s %7d %9.1f %11s %11.1fs %6.1f%% %5d/%d\n",
			r.Admission, r.Shards, r.WallMS, speedup,
			s.MeanTurnaround, 100*s.Utilization, s.CacheHits, s.CacheMisses)
	}
	return b.String()
}
