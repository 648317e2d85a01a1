package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"bwap/internal/fleet"
	"bwap/internal/sim"
	"bwap/internal/topology"
)

// The chaos scenario stresses the scheduler's robustness claim: machine
// churn — rolling restarts and correlated crashes injected by a
// deterministic FaultPlan — should degrade turnaround, not correctness,
// and bandwidth-aware placement should keep its edge over first-touch
// while the fleet is losing and regaining capacity. Each scenario runs the
// identical job stream and fault schedule under both policies; the bwap
// run's event log is then replayed through fleet.ReadTrace with the same
// FaultPlan at several tick-pool widths and byte-compared against the
// original, demonstrating that a recorded failure scenario is a fully
// replayable experiment.

// ChaosResult is one (scenario, policy) cell.
type ChaosResult struct {
	Scenario string
	Policy   string
	Stats    *fleet.Stats
}

// ChaosReplay is one scenario's replay-equivalence verdict.
type ChaosReplay struct {
	Scenario string
	// Widths lists the tick-pool widths replayed; Identical reports
	// whether every replay reproduced the recorded log byte for byte.
	Widths    []int
	Identical bool
}

// ChaosTable is the rendered scenario.
type ChaosTable struct {
	Title    string
	Machines int
	Jobs     int
	Results  []ChaosResult
	Replays  []ChaosReplay
}

// chaosScenario pairs a fault schedule with its label.
type chaosScenario struct {
	name string
	plan *fleet.FaultPlan
}

// chaosScenarios builds the two fault schedules against a fleet of the
// given size. Times sit inside the stream's busy window so the faults
// actually hit running jobs.
func chaosScenarios(machines int, quick bool) []chaosScenario {
	drainAt, stagger, drainUp := 30.0, 20.0, 20.0
	crashAt, crashEvery, crashUp := 10.0, 15.0, 10.0
	crashWaves := 3
	if quick {
		drainAt, stagger, drainUp = 4, 5, 8
		crashAt, crashEvery, crashUp = 6, 8, 6
		crashWaves = 1
	}
	half := make([]int, 0, machines/2)
	for m := 0; m < (machines+1)/2; m++ {
		half = append(half, m)
	}
	return []chaosScenario{
		{
			name: "rolling-restart",
			plan: &fleet.FaultPlan{Faults: []fleet.FaultSpec{
				{Kind: fleet.FaultDrain, At: drainAt, Stagger: stagger, RecoverAfter: drainUp},
			}},
		},
		{
			name: "correlated-crash",
			plan: &fleet.FaultPlan{Faults: []fleet.FaultSpec{
				{Kind: fleet.FaultCrash, Machines: half, At: crashAt,
					Every: crashEvery, Count: crashWaves, RecoverAfter: crashUp},
			}},
		},
	}
}

// chaosConfig is the shared fleet configuration of every cell.
func chaosConfig(machines, width int, policy string, plan *fleet.FaultPlan) fleet.Config {
	return fleet.Config{
		Machines:   machines,
		Shards:     width,
		NewMachine: func(int) *topology.Machine { return topology.MachineB() },
		SimCfg:     sim.Config{Seed: 1},
		Policy:     policy,
		Seed:       1,
		Faults:     plan,
	}
}

// RunChaos executes the fault-injection comparison and the replay
// verification. quick shrinks the stream, fleet and width sweep for tests
// and CI.
func RunChaos(quick bool) (*ChaosTable, error) {
	machines := 4
	jobsPerClass := 6
	workScale := 0.05
	widths := []int{1, 2, 4}
	if quick {
		machines = 2
		jobsPerClass = 2
		workScale = 0.03
		widths = []int{1, 2}
	}
	streams := fleetStream(jobsPerClass, workScale)
	scenarios := chaosScenarios(machines, quick)
	policies := []string{fleet.PolicyFirstTouch, fleet.PolicyBWAP}

	table := &ChaosTable{
		Title:    "Chaos: deterministic fault injection under bwap vs first-touch",
		Machines: machines,
		Jobs:     jobsPerClass * len(streams),
		Results:  make([]ChaosResult, len(scenarios)*len(policies)),
	}
	logs := make([][]byte, len(scenarios)) // bwap run per scenario, for replay
	err := parallelFor(len(table.Results), func(i int) error {
		sc := scenarios[i/len(policies)]
		pol := policies[i%len(policies)]
		f, err := fleet.New(chaosConfig(machines, 1, pol, sc.plan))
		if err != nil {
			return err
		}
		if err := f.SubmitStream(streams); err != nil {
			return err
		}
		stats, err := f.Run()
		if err != nil {
			return fmt.Errorf("chaos %s/%s: %w", sc.name, pol, err)
		}
		table.Results[i] = ChaosResult{Scenario: sc.name, Policy: pol, Stats: stats}
		if pol == fleet.PolicyBWAP {
			logs[i/len(policies)] = f.LogBytes()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Replay verification: the recorded bwap log, re-ingested as a trace and
	// rerun with the same FaultPlan, must reproduce itself bit for bit at
	// every pool width.
	for si, sc := range scenarios {
		rep := ChaosReplay{Scenario: sc.name, Widths: widths, Identical: true}
		trace, err := fleet.ReadTrace(logs[si], nil)
		if err != nil {
			return nil, fmt.Errorf("chaos %s: %w", sc.name, err)
		}
		for _, width := range widths {
			f, err := fleet.New(chaosConfig(machines, width, fleet.PolicyBWAP, sc.plan))
			if err != nil {
				return nil, err
			}
			if err := f.SubmitStream(trace); err != nil {
				return nil, err
			}
			if _, err := f.Run(); err != nil {
				return nil, fmt.Errorf("chaos %s replay (pool width %d): %w", sc.name, width, err)
			}
			if !bytes.Equal(f.LogBytes(), logs[si]) {
				rep.Identical = false
			}
		}
		table.Replays = append(table.Replays, rep)
	}
	return table, nil
}

// Render formats the comparison.
func (t *ChaosTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%d machines (Machine B), %d jobs per cell\n\n", t.Machines, t.Jobs)
	fmt.Fprintf(&b, "  %-18s %-12s %12s %10s %6s %8s %7s %6s\n",
		"scenario", "policy", "turnaround", "completed", "evac", "retries", "failed", "util")
	for _, r := range t.Results {
		s := r.Stats
		fmt.Fprintf(&b, "  %-18s %-12s %11.1fs %10d %6d %8d %7d %5.1f%%\n",
			r.Scenario, r.Policy, s.MeanTurnaround, s.Completed,
			s.Evacuations, s.Retries, s.FailedJobs, 100*s.Utilization)
	}
	b.WriteString("\n")
	for _, rep := range t.Replays {
		verdict := "bit-identical"
		if !rep.Identical {
			verdict = "MISMATCH"
		}
		widths := make([]string, len(rep.Widths))
		for i, w := range rep.Widths {
			widths[i] = fmt.Sprintf("%d", w)
		}
		fmt.Fprintf(&b, "  %-18s log replay at pool widths %s: %s\n",
			rep.Scenario, strings.Join(widths, "/"), verdict)
	}
	return b.String()
}
