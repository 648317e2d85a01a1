package experiments

import (
	"strings"
	"testing"

	"bwap/internal/fleet"
)

// TestRunChaos runs the quick chaos scenario and checks what it exists to
// demonstrate: fault injection actually touches jobs (the comparison is
// not vacuous), every job still reaches a terminal state under churn, and
// each recorded bwap log replays bit-identically at every pool width.
func TestRunChaos(t *testing.T) {
	table, err := RunChaos(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Results) != 4 {
		t.Fatalf("%d result cells, want 4 (2 scenarios x 2 policies)", len(table.Results))
	}
	churned := false
	for _, r := range table.Results {
		s := r.Stats
		if s == nil {
			t.Fatalf("cell %s/%s has no stats", r.Scenario, r.Policy)
		}
		if s.Completed+s.FailedJobs != table.Jobs {
			t.Fatalf("cell %s/%s: %d completed + %d failed of %d jobs",
				r.Scenario, r.Policy, s.Completed, s.FailedJobs, table.Jobs)
		}
		if s.Evacuations > 0 || s.Retries > 0 {
			churned = true
		}
		if s.MachinesUp != s.Machines {
			t.Fatalf("cell %s/%s ended with %d/%d machines up: a fault never recovered",
				r.Scenario, r.Policy, s.MachinesUp, s.Machines)
		}
	}
	if !churned {
		t.Fatal("no cell evacuated or retried a job; the chaos scenario is vacuous")
	}
	if len(table.Replays) != 2 {
		t.Fatalf("%d replay verdicts, want 2", len(table.Replays))
	}
	for _, rep := range table.Replays {
		if !rep.Identical {
			t.Fatalf("scenario %s: chaos replay diverged across pool widths", rep.Scenario)
		}
	}
	out := table.Render()
	for _, want := range []string{"rolling-restart", "correlated-crash",
		fleet.PolicyBWAP, fleet.PolicyFirstTouch, "bit-identical"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}
