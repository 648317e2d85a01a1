package fleet

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"strconv"
	"sync"

	"bwap/internal/cache"
	"bwap/internal/core"
	"bwap/internal/policy"
	"bwap/internal/sched"
	"bwap/internal/sim"
	"bwap/internal/topology"
	"bwap/internal/workload"
)

// TuningCache memoizes BWAP placement decisions across jobs so that a
// repeated job skips re-profiling entirely. Two layers are cached, both
// with single-flight semantics (internal/cache):
//
//   - one core.CanonicalTuner per topology *fingerprint*, shared by every
//     machine of the same model — the canonical bandwidth profiling runs
//     at most once per (model, worker set) for the whole fleet;
//   - one tuned DWP value per (topology fingerprint × workload signature ×
//     worker count × co-runner count). A miss runs an offline probe: the
//     job's spec under the full BWAP policy (canonical weights + on-line
//     DWP tuner) on the best worker set of that size, against a synthetic
//     background co-runner scaled to the co-runner count. The probe's
//     BestDWP is the cached placement decision.
//
// The key deliberately uses the worker *count*, not the exact node set:
// the DWP proximity factor is a scalar property of how much page mass the
// worker set should attract, which transfers across symmetric node sets;
// the node-set-specific canonical weights are resolved separately (and
// cached per exact set inside the CanonicalTuner).
//
// A TuningCache is safe for concurrent use and may be shared across fleets
// and a bwapd daemon; concurrent first submissions of the same key share
// one probe run. Because a probe is a pure function of its key, the cache
// can also compute probes speculatively: Prefetch reserves a key and runs
// its mini-sim on a bounded worker pool (ProbeWorkers), and the later DWP
// call that demands the key blocks on the single-flight result at the
// same deterministic consumption point a synchronous probe would occupy.
// Restore a snapshot before kicking prefetches (the daemon's boot order):
// a reservation already in flight blocks a restore of the same key.
//
// The DWP layer forgets failed probes (a transient failure does not
// poison its key for the daemon's lifetime) and is unbounded by default
// (CacheMaxEntries adds an LRU bound for long-lived multi-tenant fleets).
// Completed DWP entries can be saved to a versioned JSON file and
// reloaded on a later boot: the key derivation is stable across
// processes, so a restored entry is a legitimate hit.
type TuningCache struct {
	simCfg     sim.Config
	probeScale float64
	seed       uint64
	canon      *cache.Cache[*core.CanonicalTuner]
	dwp        *cache.Cache[float64]

	// Probe pool: Prefetch reserves a key synchronously, then hands the
	// probe mini-sim to a goroutine bounded by sem. wg tracks every
	// in-flight prefetch so Quiesce can prove the cache is at rest.
	workers int
	sem     chan struct{}
	wg      sync.WaitGroup

	// mu guards the observer hook and the per-key elapsed side-channel.
	// Probes record their elapsed simulated time here regardless of which
	// goroutine ran them; DWP pops and reports it at the consumption point
	// — on the demanding goroutine, outside any cache mutex — so the
	// observation sequence is a pure function of the demand order no
	// matter how many pool workers computed probes concurrently.
	mu       sync.Mutex
	probeObs func(simSeconds float64)
	elapsed  map[string]float64
}

// SetProbeObserver registers fn to receive every probe run's elapsed
// simulated time, reported when the probed value is first consumed by a
// DWP call (the deterministic point of the record stream). A cache shared
// between fleets reports each consumption to the last observer attached.
func (tc *TuningCache) SetProbeObserver(fn func(simSeconds float64)) {
	tc.mu.Lock()
	tc.probeObs = fn
	tc.mu.Unlock()
}

// TuningCacheOption configures a TuningCache at construction.
type TuningCacheOption func(*tuningCacheOpts)

type tuningCacheOpts struct {
	maxEntries   int
	probeWorkers int
}

// CacheMaxEntries bounds the DWP layer to n entries with LRU eviction
// (n <= 0 keeps it unbounded). The canonical-tuner layer stays unbounded:
// it holds one entry per topology model, not per workload.
func CacheMaxEntries(n int) TuningCacheOption {
	return func(o *tuningCacheOpts) { o.maxEntries = n }
}

// ProbeWorkers sizes the asynchronous probe pool serving Prefetch: n >= 1
// bounds how many speculative probe mini-sims run concurrently, n == 0
// (the default) selects GOMAXPROCS, and n < 0 disables prefetching —
// every probe then runs synchronously inside the DWP call that demands
// it, the pre-pool behaviour. Probes are pure functions of the cache key
// and consumption stays single-flight at the demanding caller, so the
// setting changes wall-clock time only, never a log byte (pinned by
// TestProbePoolDeterminism).
func ProbeWorkers(n int) TuningCacheOption {
	return func(o *tuningCacheOpts) { o.probeWorkers = n }
}

// DefaultProbeWorkScale is the fraction of a job's work volume a tuning
// probe simulates: long enough for the scaled DWP search to converge,
// short enough that a cache miss costs a small fraction of the job itself.
const DefaultProbeWorkScale = 0.05

// probeMaxTime bounds one probe run in simulated seconds; if the tuner has
// not finished by then, its best-so-far DWP is used.
const probeMaxTime = 600

// NewTuningCache returns an empty cache. simCfg should match the fleet's
// engine configuration so probes see the same contention model; probeScale
// <= 0 selects DefaultProbeWorkScale.
func NewTuningCache(simCfg sim.Config, probeScale float64, seed uint64, opts ...TuningCacheOption) *TuningCache {
	if probeScale <= 0 {
		probeScale = DefaultProbeWorkScale
	}
	var o tuningCacheOpts
	for _, opt := range opts {
		opt(&o)
	}
	dwpOpts := []cache.Option{cache.ForgetErrors()}
	if o.maxEntries > 0 {
		dwpOpts = append(dwpOpts, cache.MaxEntries(o.maxEntries))
	}
	workers := o.probeWorkers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 0 {
		workers = 0
	}
	tc := &TuningCache{
		simCfg:     simCfg,
		probeScale: probeScale,
		seed:       seed,
		canon:      cache.New[*core.CanonicalTuner](),
		dwp:        cache.New[float64](dwpOpts...),
		workers:    workers,
		elapsed:    make(map[string]float64),
	}
	if workers > 0 {
		tc.sem = make(chan struct{}, workers)
	}
	return tc
}

// Canonical returns the shared canonical tuner for the machine's topology
// fingerprint, creating it on first use.
func (tc *TuningCache) Canonical(topo *topology.Machine) *core.CanonicalTuner {
	ct, _, _ := tc.canon.Get(topo.Fingerprint(), func() (*core.CanonicalTuner, error) {
		return core.NewCanonicalTuner(topo, tc.simCfg), nil
	})
	return ct
}

// Key derives the cache key for a placement decision. The layout is
// frozen — "<fingerprint>|<signature>|w<workers>|c<coRunners>" — because
// persisted cache snapshots store keys verbatim; the hand-rolled append
// keeps the derivation to one allocation on the admission/prefetch hot
// path.
func (tc *TuningCache) Key(topo *topology.Machine, spec workload.Spec, workers, coRunners int) string {
	var scratch [64]byte
	return string(appendKey(scratch[:0], topo, spec, workers, coRunners))
}

// appendKey appends the Key bytes to dst, so the prefetch hot path can
// probe the cache with a stack-built key and allocate only when it
// actually reserves.
func appendKey(dst []byte, topo *topology.Machine, spec workload.Spec, workers, coRunners int) []byte {
	dst = append(dst, topo.Fingerprint()...)
	dst = append(dst, '|')
	dst = spec.AppendSignature(dst)
	dst = append(dst, '|', 'w')
	dst = strconv.AppendInt(dst, int64(workers), 10)
	dst = append(dst, '|', 'c')
	dst = strconv.AppendInt(dst, int64(coRunners), 10)
	return dst
}

// DWP returns the tuned proximity factor for the given placement context,
// running a probe on first use. hit reports whether the value came from
// the cache (true) or this call consumed the probe (false) — a probe the
// pool prefetched still counts as this caller's miss, because consumption
// is the deterministic point of the demand sequence.
func (tc *TuningCache) DWP(topo *topology.Machine, spec workload.Spec, workers, coRunners int) (dwp float64, hit bool, err error) {
	key := tc.Key(topo, spec, workers, coRunners)
	dwp, hit, err = tc.dwp.Get(key, func() (float64, error) {
		return tc.probe(key, topo, spec, workers, coRunners)
	})
	if !hit {
		// Consumption point: report the probe's elapsed simulated time to
		// the observer here — on the demanding goroutine, outside the cache
		// mutex (lockedio) — never from the pool goroutine that happened to
		// run the mini-sim. The elapsed value is a pure function of the key
		// and this pop happens exactly once per consumed probe, so the
		// observation sequence is byte-identical for any pool width.
		tc.mu.Lock()
		secs, ran := tc.elapsed[key]
		if ran {
			delete(tc.elapsed, key)
		}
		obs := tc.probeObs
		tc.mu.Unlock()
		if ran && obs != nil {
			obs(secs)
		}
	}
	return dwp, hit, err
}

// Prefetch hints that the given placement context will be demanded soon:
// if its key is not already cached or reserved, the probe mini-sim is
// handed to the cache's bounded pool and computed off the caller's
// goroutine. The reservation itself is synchronous and cheap; the later
// DWP call blocks on the single-flight result (or computes it inline if
// it wins the race), so prefetching overlaps probe work with the
// scheduler without moving any demand-side observable. No-op when the
// pool is disabled (ProbeWorkers < 0).
func (tc *TuningCache) Prefetch(topo *topology.Machine, spec workload.Spec, workers, coRunners int) {
	if tc.workers <= 0 {
		return
	}
	// Probe with a stack-built key first: the fleet re-hints aggressively
	// (every arrival, backfill sweep and retune), so on a warm cache this
	// path runs orders of magnitude more often than it reserves and must
	// not allocate. Contains is advisory — Prefetch re-checks under its
	// own lock — so a race costs one key allocation, nothing else.
	var scratch [64]byte
	if tc.dwp.Contains(appendKey(scratch[:0], topo, spec, workers, coRunners)) {
		return
	}
	key := tc.Key(topo, spec, workers, coRunners)
	run, reserved := tc.dwp.Prefetch(key, func() (float64, error) {
		return tc.probe(key, topo, spec, workers, coRunners)
	})
	if !reserved {
		return
	}
	tc.wg.Add(1)
	go func() {
		defer tc.wg.Done()
		tc.sem <- struct{}{}
		defer func() { <-tc.sem }()
		run()
	}()
}

// Quiesce blocks until every in-flight prefetch probe has finished. A
// drained fleet calls it before returning (and the daemon before saving
// the cache), so no background goroutine outlives the work that spawned
// it — allocation-counting tests and the race detector see a cache at
// rest between runs.
func (tc *TuningCache) Quiesce() { tc.wg.Wait() }

// TuningCacheStats is the DWP layer's cumulative accounting, reported by
// the daemon's /fleet endpoint. Misses equal probe runs.
type TuningCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Restored  int64 `json:"restored"`
	Entries   int   `json:"entries"`
}

// Stats reports the DWP cache's cumulative counters.
func (tc *TuningCache) Stats() TuningCacheStats {
	hits, misses := tc.dwp.Stats()
	return TuningCacheStats{
		Hits:      hits,
		Misses:    misses,
		Evictions: tc.dwp.Evictions(),
		Restored:  tc.dwp.Restored(),
		Entries:   tc.dwp.Len(),
	}
}

// tuningCacheFileVersion versions the Save/LoadInto envelope; the inner
// cache snapshot carries its own format version.
const (
	tuningCacheFileVersion = 1
	tuningCacheFileKind    = "bwap-tuning-cache"
)

// tuningCacheFile is the on-disk envelope around the DWP cache snapshot.
type tuningCacheFile struct {
	Version int             `json:"version"`
	Kind    string          `json:"kind"`
	DWP     json.RawMessage `json:"dwp"`
}

// SnapshotBytes serializes every completed DWP entry (keys embed the
// topology fingerprint and workload signature, so entries are portable
// across processes and machines of the same model).
func (tc *TuningCache) SnapshotBytes() ([]byte, error) {
	dwp, err := tc.dwp.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("fleet: cache snapshot: %w", err)
	}
	return json.MarshalIndent(tuningCacheFile{
		Version: tuningCacheFileVersion,
		Kind:    tuningCacheFileKind,
		DWP:     dwp,
	}, "", " ")
}

// ErrBadSnapshot re-exports cache.ErrBadSnapshot: every RestoreBytes (and
// LoadInto) failure caused by the snapshot content wraps it, so a daemon
// can distinguish a corrupt cache file — warn and boot cold — from an I/O
// problem worth failing on.
var ErrBadSnapshot = cache.ErrBadSnapshot

// RestoreBytes loads a SnapshotBytes payload into the cache and returns
// how many entries it added. Restored entries are full hits: a later DWP
// lookup of their key runs no probe. Corrupt, truncated or wrong-version
// payloads return an error wrapping ErrBadSnapshot and leave the cache
// untouched and usable.
func (tc *TuningCache) RestoreBytes(data []byte) (int, error) {
	var f tuningCacheFile
	if err := json.Unmarshal(data, &f); err != nil {
		return 0, fmt.Errorf("fleet: cache restore: %w: %v", ErrBadSnapshot, err)
	}
	if f.Kind != tuningCacheFileKind {
		return 0, fmt.Errorf("fleet: cache restore: %w: kind %q, want %q", ErrBadSnapshot, f.Kind, tuningCacheFileKind)
	}
	if f.Version != tuningCacheFileVersion {
		return 0, fmt.Errorf("fleet: cache restore: %w: file version %d, want %d", ErrBadSnapshot, f.Version, tuningCacheFileVersion)
	}
	n, err := tc.dwp.Restore(f.DWP)
	if err != nil {
		return 0, fmt.Errorf("fleet: cache restore: %w", err)
	}
	return n, nil
}

// Save atomically writes the cache snapshot to path (temp file + rename),
// so a crash mid-write never leaves a truncated cache for the next boot.
func (tc *TuningCache) Save(path string) error {
	data, err := tc.SnapshotBytes()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("fleet: cache save: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return fmt.Errorf("fleet: cache save: %w", err)
	}
	return nil
}

// LoadInto reads a Save file into this cache, returning how many entries
// were restored. A missing file is an error the caller can detect with
// os.IsNotExist for the boot-if-present pattern.
func (tc *TuningCache) LoadInto(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return tc.RestoreBytes(data)
}

// probeParams compresses the DWP search the same way the experiment
// profiles do for scaled-down runs, so the probe converges within its
// shortened work volume.
func probeParams() core.Params {
	p := core.DefaultParams()
	p.N, p.C, p.T = 5, 1, 0.1
	return p
}

// probeCoSpec models the aggregate memory pressure of n co-located jobs as
// one background streaming application: a moderate mixed read/write stream
// per co-runner, never finishing (ComputeBound), so the probe's tuner
// hill-climbs against a loaded interconnect comparable to the fleet
// machine it stands in for.
func probeCoSpec(n int) workload.Spec {
	d := 4.0 * float64(n)
	return workload.Spec{
		Name: "probe-co", ReadGBs: d, WriteGBs: 0.25 * d, PrivateFrac: 0.5,
		LatencySensitivity: 0.05,
		SharedGB:           0.25, PrivateGBPerNode: 0.1,
		ComputeBound: true,
	}
}

// probe runs one offline tuning simulation and returns the DWP the on-line
// tuner settles on. The seed is derived from the key so every probe is
// deterministic regardless of the order in which keys are first requested.
func (tc *TuningCache) probe(key string, topo *topology.Machine, spec workload.Spec, workers, coRunners int) (float64, error) {
	ws, err := sched.BestWorkerSet(topo, workers)
	if err != nil {
		return 0, fmt.Errorf("fleet: probe %s: %w", key, err)
	}
	cfg := tc.simCfg
	cfg.MaxTime = probeMaxTime
	h := fnv.New64a()
	h.Write([]byte(key))
	cfg.Seed = tc.seed ^ h.Sum64()
	e := sim.New(topo, cfg)

	if rest := sched.RemainingNodes(topo, ws); coRunners > 0 && len(rest) > 0 {
		if _, err := e.AddApp("probe-co", probeCoSpec(coRunners), rest, policy.FirstTouch{}); err != nil {
			return 0, fmt.Errorf("fleet: probe %s: %w", key, err)
		}
	}
	b := core.NewBWAP(tc.Canonical(topo))
	b.Params = probeParams()
	if _, err := e.AddApp(spec.Name, spec.Scaled(tc.probeScale), ws, b); err != nil {
		return 0, fmt.Errorf("fleet: probe %s: %w", key, err)
	}
	if _, err := e.Run(); err != nil {
		return 0, fmt.Errorf("fleet: probe %s: %w", key, err)
	}
	// e.Now() after Run is the probe's elapsed simulated time — a pure
	// function of (key, topology, spec). It is parked here and reported to
	// the observer only when a DWP call consumes the key, because this
	// function may run on a pool goroutine at a wall-clock-dependent point.
	tc.mu.Lock()
	tc.elapsed[key] = e.Now()
	tc.mu.Unlock()
	tuner := b.TunerFor(spec.Name)
	if tuner == nil {
		return 0, fmt.Errorf("fleet: probe %s: no tuner attached", key)
	}
	if err := tuner.Err(); err != nil {
		return 0, fmt.Errorf("fleet: probe %s: %w", key, err)
	}
	return tuner.BestDWP(), nil
}
