package fleet

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"bwap/internal/sim"
)

// TestTuningCacheSnapshotRoundTrip pins the durability acceptance
// criterion: probe once, Save, LoadInto a fresh cache, and the repeated
// signature hits with zero probe runs.
func TestTuningCacheSnapshotRoundTrip(t *testing.T) {
	topo := smallMachine(0)
	spec := testSpec("durable")
	src := NewTuningCache(sim.Config{Seed: 7}, 0, 7)
	want, hit, err := src.DWP(topo, spec, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first lookup hit an empty cache")
	}

	path := filepath.Join(t.TempDir(), "tuning.json")
	if err := src.Save(path); err != nil {
		t.Fatal(err)
	}

	dst := NewTuningCache(sim.Config{Seed: 7}, 0, 7)
	n, err := dst.LoadInto(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d entries, want 1", n)
	}
	got, hit, err := dst.DWP(topo, spec, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("restored entry missed: the probe ran again")
	}
	if got != want {
		t.Fatalf("restored DWP %g, want %g", got, want)
	}
	cs := dst.Stats()
	if cs.Misses != 0 {
		t.Fatalf("warm cache ran %d probes, want 0", cs.Misses)
	}
	if cs.Restored != 1 || cs.Hits != 1 || cs.Entries != 1 {
		t.Fatalf("warm cache stats %+v", cs)
	}

	// Missing file surfaces as os.IsNotExist for the boot-if-present path.
	if _, err := dst.LoadInto(filepath.Join(t.TempDir(), "absent.json")); !os.IsNotExist(err) {
		t.Fatalf("LoadInto(absent) err = %v, want IsNotExist", err)
	}
	// Garbage and wrong-kind files are rejected.
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte(`{"version":1,"kind":"other","dwp":{}}`), 0o644) //nolint:errcheck
	if _, err := dst.LoadInto(bad); err == nil {
		t.Fatal("LoadInto accepted a foreign file kind")
	}
}

// TestTuningCacheErrorNotPoisoned is the error-poisoning regression test
// at the fleet layer: a failing probe (worker demand no machine satisfies,
// so sched.BestWorkerSet errors) must be retried on the next lookup.
func TestTuningCacheErrorNotPoisoned(t *testing.T) {
	topo := smallMachine(0)
	spec := testSpec("flaky")

	tc := NewTuningCache(sim.Config{Seed: 3}, 0, 3)
	if _, _, err := tc.DWP(topo, spec, 99, 0); err == nil {
		t.Fatal("impossible worker demand probed successfully")
	}
	if _, _, err := tc.DWP(topo, spec, 99, 0); err == nil {
		t.Fatal("second lookup succeeded")
	}
	if cs := tc.Stats(); cs.Misses != 2 {
		t.Fatalf("failing probe ran %d times, want 2 (forget-on-error retries)", cs.Misses)
	}
	// A succeeding key still computes exactly once.
	if _, hit, err := tc.DWP(topo, spec, 2, 0); err != nil || hit {
		t.Fatalf("first good lookup: hit=%v err=%v", hit, err)
	}
	if _, hit, err := tc.DWP(topo, spec, 2, 0); err != nil || !hit {
		t.Fatalf("second good lookup: hit=%v err=%v", hit, err)
	}
}

// TestTuningCacheLRUBound checks CacheMaxEntries evicts the least recently
// used placement and reports it in the stats.
func TestTuningCacheLRUBound(t *testing.T) {
	topo := smallMachine(0)
	tc := NewTuningCache(sim.Config{Seed: 5}, 0, 5, CacheMaxEntries(2))
	for _, name := range []string{"w1", "w2", "w3"} {
		if _, _, err := tc.DWP(topo, testSpec(name), 2, 0); err != nil {
			t.Fatal(err)
		}
	}
	cs := tc.Stats()
	if cs.Entries != 2 || cs.Evictions != 1 {
		t.Fatalf("stats %+v, want 2 entries / 1 eviction", cs)
	}
	// w1 was evicted: looking it up again probes.
	if _, hit, err := tc.DWP(topo, testSpec("w1"), 2, 0); err != nil || hit {
		t.Fatalf("evicted key lookup: hit=%v err=%v", hit, err)
	}
	// w3 survived (w2 went when w1 re-entered).
	if _, hit, err := tc.DWP(topo, testSpec("w3"), 2, 0); err != nil || !hit {
		t.Fatalf("recent key lookup: hit=%v err=%v", hit, err)
	}
}

// TestTuningCacheBadSnapshots mirrors the cache-layer corrupt-snapshot
// table at the fleet boundary: every unusable payload surfaces as
// ErrBadSnapshot via errors.Is — the sentinel bwapd's boot path matches to
// warn and cold-start instead of dying — and the cache keeps working.
func TestTuningCacheBadSnapshots(t *testing.T) {
	topo := smallMachine(0)
	spec := testSpec("survivor")
	tc := NewTuningCache(sim.Config{Seed: 5}, 0, 5)
	want, _, err := tc.DWP(topo, spec, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"garbage", []byte("}{")},
		{"truncated file", []byte(`{"version":1,"kind":"bwap-tuning-cache"`)},
		{"wrong kind", []byte(`{"version":1,"kind":"other","dwp":{"version":1,"entries":[]}}`)},
		{"wrong file version", []byte(`{"version":9,"kind":"bwap-tuning-cache","dwp":{"version":1,"entries":[]}}`)},
		{"inner version", []byte(`{"version":1,"kind":"bwap-tuning-cache","dwp":{"version":9,"entries":[]}}`)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n, err := tc.RestoreBytes(c.data)
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("RestoreBytes = %v, want ErrBadSnapshot", err)
			}
			if n != 0 {
				t.Fatalf("RestoreBytes loaded %d entries from a bad payload", n)
			}
			got, hit, err := tc.DWP(topo, spec, 2, 0)
			if err != nil || !hit || got != want {
				t.Fatalf("cache unusable after failed restore: %g, %v, %v", got, hit, err)
			}
		})
	}
	if st := tc.Stats(); st.Entries != 1 || st.Restored != 0 {
		t.Fatalf("failed restores mutated the cache: %+v", st)
	}
}
