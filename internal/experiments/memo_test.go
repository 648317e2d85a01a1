package experiments

import (
	"fmt"
	"testing"

	"bwap/internal/workload"
)

// TestTable2ReusesCoScheduledRuns pins the run memo's main use: Table II
// asks for exactly the tuned co-scheduled runs Figures 2 and 3 made, so
// after RunCoScheduled over the same worker counts, RunTable2 starts no
// simulation — every cell is a memo hit — and still renders the cells a
// fresh profile computes from scratch.
func TestTable2ReusesCoScheduledRuns(t *testing.T) {
	workers := []int{1, 2}
	p := MachineB().Quick()
	p.Seeds = 2
	for _, k := range workers {
		if _, err := RunCoScheduled(p, k, "memo"); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := p.runs().Stats()
	got, err := RunTable2(p, workers)
	if err != nil {
		t.Fatal(err)
	}
	h, m := p.runs().Stats()
	if m != misses {
		t.Fatalf("RunTable2 after RunCoScheduled missed the memo %d times", m-misses)
	}
	if cells := int64(len(workload.Benchmarks()) * len(workers)); h-hits != cells {
		t.Fatalf("RunTable2 hit the memo %d times, want %d", h-hits, cells)
	}
	fresh := MachineB().Quick()
	fresh.Seeds = 2
	want, err := RunTable2(fresh, workers)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
		t.Fatalf("memoized Table II diverged from a fresh profile's:\n memo  %s\n fresh %s", g, w)
	}
}

// TestRunMemoFollowsProfile pins when the memo answers: a repeated
// multi-seed run hits, a changed Seeds re-simulates (the memo was made for
// the old value), single-seed runs are never kept, and Quick copies start
// without their source's memo.
func TestRunMemoFollowsProfile(t *testing.T) {
	spec := workload.Streamcluster
	p := MachineB().Quick()
	p.Seeds = 2
	ws, err := p.Workers(1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p *Profile, placer string) RunResult {
		t.Helper()
		r, err := p.Run(spec, ws, placer, true)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	stats := func(p *Profile) string {
		h, m := p.runs().Stats()
		return fmt.Sprintf("%d hits, %d misses", h, m)
	}
	first := run(p, "bwap")
	if again := run(p, "bwap"); fmt.Sprint(again) != fmt.Sprint(first) {
		t.Fatalf("repeated run returned %+v, first %+v", again, first)
	}
	if got := stats(p); got != "1 hits, 1 misses" {
		t.Fatalf("after a repeated run: %s", got)
	}
	run(p, "first-touch")
	if got := stats(p); got != "1 hits, 1 misses" {
		t.Fatalf("a single-seed run touched the memo: %s", got)
	}

	p.Seeds = 3
	three := run(p, "bwap")
	if got := stats(p); got != "0 hits, 1 misses" {
		t.Fatalf("after changing Seeds: %s, want a fresh memo's miss", got)
	}
	fresh := MachineB().Quick()
	fresh.Seeds = 3
	if want := run(fresh, "bwap"); fmt.Sprint(three) != fmt.Sprint(want) {
		t.Fatalf("run after changing Seeds returned %+v, a fresh 3-seed profile %+v", three, want)
	}

	q1, q2 := p.Quick(), p.Quick()
	if q1.memo != nil || q2.memo != nil {
		t.Fatal("Quick copied its source's memo")
	}
	q1.Seeds, q2.Seeds = 2, 2
	run(q1, "bwap")
	run(q2, "bwap")
	if q1.runs() == q2.runs() || q1.runs() == p.runs() {
		t.Fatal("Quick copies share a memo")
	}
	if got := stats(q2); got != "0 hits, 1 misses" {
		t.Fatalf("second Quick copy: %s, want its own miss", got)
	}
}
