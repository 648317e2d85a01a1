package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"bwap/internal/fleet"
	"bwap/internal/sim"
	"bwap/internal/topology"
)

// The fast-forward scenario demonstrates the quiescent-interval
// optimization end to end: the identical job stream scheduled twice —
// once on the naive solve-every-tick reference (DisableFastForward, the
// BWAP_NO_FASTFORWARD=1 path) and once with memoized solves replayed
// through the advance windows. The simulated outcome is byte-identical by
// construction (the scenario verifies the merged event logs match); what
// changes is wall-clock time and the tick economics, which the table
// reports as solves vs. replays.

// FastForwardResult is one mode's outcome on the shared stream.
type FastForwardResult struct {
	// Mode labels the run: naive or fast-forward.
	Mode string
	// Stats is the fleet outcome (TickSolves/TickReplays carry the
	// economics).
	Stats *fleet.Stats
	// WallMS is the wall-clock time of the fleet run.
	WallMS float64
}

// FastForwardTable is the rendered scenario.
type FastForwardTable struct {
	Title    string
	Machines int
	Jobs     int
	// LogsIdentical records the byte-comparison of the two event logs —
	// the scenario's correctness half.
	LogsIdentical bool
	Results       []FastForwardResult
}

// RunFastForward executes the comparison: a Poisson stream over a fleet
// of Machine B boxes with a pre-warmed tuning cache (so probe work does
// not pollute the timing), naive vs. fast-forward. quick shrinks the
// stream for tests and CI.
func RunFastForward(quick bool) (*FastForwardTable, error) {
	machines := 8
	jobsPerClass := 6
	workScale := 0.05
	if quick {
		machines = 4
		jobsPerClass = 2
		workScale = 0.03
	}
	streams := fleetStream(jobsPerClass, workScale)
	cache := fleet.NewTuningCache(sim.Config{Seed: 1}, 0, 1)

	newFleet := func(disable bool) (*fleet.Fleet, error) {
		return fleet.New(fleet.Config{
			Machines:   machines,
			NewMachine: func(int) *topology.Machine { return topology.MachineB() },
			SimCfg:     sim.Config{Seed: 1, DisableFastForward: disable},
			Seed:       1,
			Cache:      cache,
		})
	}

	// Warm the shared cache so both timed runs place from hits alone.
	warm, err := newFleet(true)
	if err != nil {
		return nil, err
	}
	if err := warm.SubmitStream(streams); err != nil {
		return nil, err
	}
	if _, err := warm.Run(); err != nil {
		return nil, fmt.Errorf("fastforward warm-up: %w", err)
	}

	table := &FastForwardTable{
		Title:    "Quiescent-interval fast-forward: naive reference vs memoized replay",
		Machines: machines,
		Jobs:     jobsPerClass * len(streams),
	}
	var logs [][]byte
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"naive", true}, {"fast-forward", false}} {
		f, err := newFleet(mode.disable)
		if err != nil {
			return nil, err
		}
		if err := f.SubmitStream(streams); err != nil {
			return nil, err
		}
		start := time.Now() //bwap:wallclock WallMS reports real speedup; it is presentation, not simulation state
		stats, err := f.Run()
		if err != nil {
			return nil, fmt.Errorf("fastforward %s: %w", mode.name, err)
		}
		table.Results = append(table.Results, FastForwardResult{
			Mode:   mode.name,
			Stats:  stats,
			WallMS: float64(time.Since(start).Microseconds()) / 1000, //bwap:wallclock harness timing, excluded from log-identity checks
		})
		logs = append(logs, f.LogBytes())
	}
	table.LogsIdentical = bytes.Equal(logs[0], logs[1])
	return table, nil
}

// Render formats the comparison.
func (t *FastForwardTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%d machines, %d jobs; identical stream, identical seed\n\n", t.Machines, t.Jobs)
	fmt.Fprintf(&b, "%-14s %10s %12s %12s %10s %12s\n",
		"mode", "wall ms", "tick solves", "tick replays", "replay %", "turnaround")
	for _, r := range t.Results {
		total := r.Stats.TickSolves + r.Stats.TickReplays
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(r.Stats.TickReplays) / float64(total)
		}
		fmt.Fprintf(&b, "%-14s %10.1f %12d %12d %9.1f%% %11.2fs\n",
			r.Mode, r.WallMS, r.Stats.TickSolves, r.Stats.TickReplays, pct, r.Stats.MeanTurnaround)
	}
	fmt.Fprintf(&b, "\nevent logs byte-identical: %v\n", t.LogsIdentical)
	return b.String()
}
