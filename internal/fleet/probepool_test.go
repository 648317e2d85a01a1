package fleet

import (
	"bytes"
	"fmt"
	"testing"
)

// TestProbePoolDeterminism is the parallel-probe acceptance criterion:
// for a cold cache, the probe pool width must be invisible to every
// demand-side observable. A chaos + telemetry fleet runs at probe-workers
// −1 (pool disabled: the pre-pool synchronous behaviour), 1 and 4,
// crossed with tick-pool widths 1, 2 and 4; the event log, the
// /metrics exposition and the probe-observer consumption sequence must
// all be byte-for-byte (resp. value-for-value) identical across the
// whole matrix. Only wall-clock time may change with the pool width.
func TestProbePoolDeterminism(t *testing.T) {
	type outcome struct {
		name    string
		log     []byte
		metrics []byte
		probes  []float64
	}
	var runs []outcome
	for _, pw := range []int{-1, 1, 4} {
		for _, width := range []int{1, 2, 4} {
			cfg := obsFaultConfig(width)
			cfg.Cache = NewTuningCache(cfg.SimCfg, 0, cfg.Seed, ProbeWorkers(pw))
			cfg.Obs = NewObserver(ObserverConfig{})
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Interpose on the probe observer: record the consumption
			// sequence this run reports, then feed the real observer so
			// /metrics stays fully populated.
			var probes []float64
			inner := f.Observer().observeProbe
			f.Cache().SetProbeObserver(func(secs float64) {
				probes = append(probes, secs)
				inner(secs)
			})
			if err := f.SubmitStream(denseStreams()); err != nil {
				t.Fatal(err)
			}
			stats, err := f.Run()
			if err != nil {
				t.Fatal(err)
			}
			if stats.Completed == 0 {
				t.Fatal("no jobs completed; the matrix is vacuous")
			}
			runs = append(runs, outcome{
				name:    fmt.Sprintf("probe-workers=%d width=%d", pw, width),
				log:     f.LogBytes(),
				metrics: metricsOf(t, f),
				probes:  probes,
			})
		}
	}
	base := runs[0]
	if len(base.probes) == 0 {
		t.Fatal("no probes observed on a cold cache; the sequence check is vacuous")
	}
	for _, r := range runs[1:] {
		if !bytes.Equal(base.log, r.log) {
			t.Errorf("%s: merged log differs from %s", r.name, base.name)
		}
		if !bytes.Equal(base.metrics, r.metrics) {
			t.Errorf("%s: /metrics differs from %s\n--- base ---\n%s\n--- got ---\n%s",
				r.name, base.name, base.metrics, r.metrics)
		}
		if len(base.probes) != len(r.probes) {
			t.Errorf("%s: %d probe observations, %s saw %d", r.name, len(r.probes), base.name, len(base.probes))
			continue
		}
		for i := range base.probes {
			if base.probes[i] != r.probes[i] {
				t.Errorf("%s: probe observation %d = %v, want %v", r.name, i, r.probes[i], base.probes[i])
				break
			}
		}
	}
}

// TestProbePoolQuiesce pins the at-rest contract: Run drains the probe
// pool before returning, so no prefetch goroutine outlives the fleet's
// work (allocation-counting tests and -race depend on this), and a
// mispredicted prefetch left unconsumed never perturbs the hit/miss
// accounting of a later identical run.
func TestProbePoolQuiesce(t *testing.T) {
	cfg := poolConfig(PolicyBWAP, AdmitMostFree, 2, 7)
	cfg.Cache = NewTuningCache(cfg.SimCfg, 0, cfg.Seed, ProbeWorkers(4))
	f, stats := runFleet(t, cfg, denseStreams())
	f.Cache().Quiesce() // must be a no-op: Run already drained the pool
	if stats.CacheMisses == 0 {
		t.Fatal("cold run recorded no misses")
	}

	// A second fleet sharing the warm cache sees only hits, exactly as a
	// pool-less warm run would.
	cfg2 := poolConfig(PolicyBWAP, AdmitMostFree, 2, 7)
	cfg2.Cache = f.Cache()
	_, warm := runFleet(t, cfg2, denseStreams())
	if warm.CacheMisses != 0 {
		t.Fatalf("warm run recorded %d misses; prefetching perturbed the cache", warm.CacheMisses)
	}
	if warm.CacheHits == 0 {
		t.Fatal("warm run recorded no hits")
	}
}
