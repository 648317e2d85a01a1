package experiments

import "testing"

// TestShardScalingInvariance runs the quick shard-scaling grid and checks
// the scenario's core claim: for a fixed admission policy, the simulated
// outcome is identical at every shard count (only wall time may move).
func TestShardScalingInvariance(t *testing.T) {
	table, err := RunShardScaling(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Results) != len(ShardAdmissionPolicies)*len(table.ShardCounts) {
		t.Fatalf("got %d cells, want %d", len(table.Results),
			len(ShardAdmissionPolicies)*len(table.ShardCounts))
	}
	type outcome struct {
		completed  int
		turnaround float64
		records    int
	}
	byAdmission := map[string]outcome{}
	for _, r := range table.Results {
		if r.Stats.Completed != table.Jobs {
			t.Fatalf("%s/%d completed %d/%d jobs", r.Admission, r.Shards, r.Stats.Completed, table.Jobs)
		}
		got := outcome{r.Stats.Completed, r.Stats.MeanTurnaround, r.Stats.LogRecords}
		if prev, ok := byAdmission[r.Admission]; ok {
			if prev != got {
				t.Fatalf("%s: shard count changed the simulated outcome: %+v vs %+v",
					r.Admission, prev, got)
			}
		} else {
			byAdmission[r.Admission] = got
		}
		// Warm cache: the measured cells must never probe.
		if r.Stats.CacheMisses != 0 {
			t.Fatalf("%s/%d ran %d probes against the warm cache", r.Admission, r.Shards, r.Stats.CacheMisses)
		}
	}
	if table.Render() == "" {
		t.Fatal("empty render")
	}
}
