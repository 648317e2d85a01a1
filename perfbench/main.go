// Command perfbench is the repository's benchmark. It drives the BWAP
// simulator through its public entry points under one of three seeded
// workloads, checks the outputs, and prints the metrics by name with their
// units. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through the wrapper, which builds the program from source first:
//
//	bash perfbench/run.sh --workload chaos --seed 1 --seconds 35 --trace 0
//
// Workloads (each chosen for the layers it alone stresses):
//
//   - daemon: bwapd — fleet.NewServer(f).Handler() on a loopback listener —
//     with a warmed tuning cache, under open-loop Poisson sessions that
//     follow the documented client (batch /submit, /status, /fleet). The
//     only workload crossing HTTP, the server mutex and the observer.
//   - chaos: fleet.New + Submit + Run over a seeded 1,000-job stream with
//     rolling restarts and crash waves, a cold cache and no HTTP. It
//     measures simulator throughput without wall-clock pacing.
//   - paper: the paper's figures and tables through experiments.Run* at
//     full fidelity. It bypasses fleet, cache and server.
//
// End-to-end metrics (untraced runs). Every workload reports all three, so
// each one is bounded on every workload:
//
//   - setup_s: median wall time of one set-up, repeated across the run
//     (daemon: fleet, observer, warmed cache, server and listener, 51
//     times, half before and half after the window; chaos: fleet.New,
//     three times before every pass; paper: profiles and canonical tuners,
//     ten times before every pass).
//   - op_ms: wall time of the workload's unit of work — the median POST
//     /submit latency, timed from its scheduled send (daemon); the median
//     pass of the stream from the first Submit to the drained Run (chaos);
//     the mean pass of every artifact (paper: Fig 1b's five searches share
//     GOMAXPROCS pool slots with the calling goroutine, so pass times fall
//     in two modes a median of a few passes would jump between).
//   - heap_live_mb: live heap after forced collections at the end of the
//     measured phase.
//
// Figures that exist for one workload only (the daemon's p99 and read
// latencies, simulated seconds per wall second, the paper's wall seconds,
// the error ratio) are printed as text lines above the result; --trace 1
// reports them with the per-layer metrics. go.cpu_ms (process CPU time per
// pass; absent on the daemon, whose load generator shares the process),
// go.alloc_mb and go.gc_cycles are per unit of work: per request, or per
// pass. A traced run records spans around the benchmark's own calls into
// each layer and writes them to .bench_build/trace/. The simulator is not
// validated against hardware: these are host-speed figures and simulated
// statistics, not accuracy.
//
// The seed defaults to 1, which gives the paper profiles their usual noise
// seeds (Machine A 1, Machine B 2); 7 is the held-out seed.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// options configure one run. The two wrap seams exist for the attribution
// self-test, which injects delays at points the benchmark owns.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// wrapHandler wraps the daemon's handler inside the tracing middleware.
	wrapHandler func(http.Handler) http.Handler
	// wrapLog wraps the chaos fleet's log sink.
	wrapLog func(io.Writer) io.Writer
}

type metricDef struct{ name, unit string }

// e2eMetrics are printed by untraced runs and bounded in BENCHMARK.json.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"op_ms", "ms"},
	{"heap_live_mb", "MB"},
}

// layerMetrics are printed by traced runs, grouped by the module whose
// public functions the spans surround or whose counters are read.
var layerMetrics = []metricDef{
	// fleet server: handler time from a middleware around Server.Handler.
	{"server.submit_p50_us", "us"},
	{"server.submit_p99_us", "us"},
	{"server.read_p50_us", "us"},
	{"server.read_p99_us", "us"},
	{"server.metrics_p50_us", "us"},
	// HTTP client side: transport cost and the daemon's remaining
	// end-to-end latencies.
	{"http.overhead_p50_us", "us"},
	{"http.submit_p99_ms", "ms"},
	{"http.read_p50_ms", "ms"},
	{"http.read_p99_ms", "ms"},
	// fleet scheduler and driver.
	{"fleet.sim_s_per_s", "s/s"},
	{"fleet.advance_ms_per_sim_s", "ms/s"},
	{"fleet.submit_us", "us"},
	{"fleet.advance_batches", "count"},
	{"fleet.window_ticks_mean", "ticks"},
	{"fleet.log_records", "count"},
	{"fleet.log_bytes", "bytes"},
	{"fleet.sim_lag_ratio", "ratio"},
	// simulated statistics: a host-only change leaves them identical.
	{"fleet.jobs_completed", "count"},
	{"fleet.jobs_failed", "count"},
	{"fleet.evacuations", "count"},
	{"fleet.retries", "count"},
	{"fleet.utilization", "ratio"},
	{"fleet.turnaround_mean_s", "s"},
	// tuning cache.
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.probes", "count"},
	{"cache.dwp_hit_us", "us"},
	{"cache.dwp_miss_ms", "ms"},
	// sim engine.
	{"sim.tick_solves", "count"},
	{"sim.tick_replays", "count"},
	{"sim.replay_fraction", "ratio"},
	{"sim.run_us_per_tick", "us"},
	// memsys, mm and core.
	{"memsys.solve_us", "us"},
	{"mm.mbind_weighted_us", "us"},
	{"mm.fractions_us", "us"},
	{"core.interleave_us", "us"},
	{"core.canonical_ms", "ms"},
	// experiments: one span per artifact.
	{"experiments.fig1a_s", "s"},
	{"experiments.fig1b_s", "s"},
	{"experiments.table1_s", "s"},
	{"experiments.fig2_s", "s"},
	{"experiments.fig3_s", "s"},
	{"experiments.table2_s", "s"},
	{"experiments.fig4_s", "s"},
	{"experiments.overhead_s", "s"},
	// Go runtime, per unit of work.
	{"go.cpu_ms", "ms"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	// the benchmark itself: run validity, not program speed.
	{"loadgen.achieved_rps", "1/s"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

var workloads = map[string]func(options) (*result, error){
	"daemon": runDaemon,
	"chaos":  runChaos,
	"paper":  runPaper,
}

func main() {
	name := flag.String("workload", "", "daemon, chaos or paper")
	seed := flag.Uint64("seed", 1, "workload seed (1 is the default, 7 the held-out seed)")
	seconds := flag.Float64("seconds", 35, "length of the measured phase in wall seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload daemon|chaos|paper --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *traceFlag == 1}
	stamp := hostStamp()
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *traceFlag)
	fmt.Printf("# host nproc=%d gomaxprocs=%d go=%s commit=%s source=%s\n",
		stamp.NumCPU, stamp.GOMAXPROCS, stamp.GoVersion, stamp.Commit, stamp.Source)

	res, err := run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	for _, p := range res.problems {
		fmt.Println("FAILED", p)
	}
	defs := e2eMetrics
	if opts.trace {
		defs = layerMetrics
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]map[string]any{}}
	vals := res.e2e
	if opts.trace {
		vals = res.layer
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		switch {
		case ok:
			fmt.Printf("%s %.6g %s\n", d.name, v, d.unit)
		case opts.trace && res.absent[d.name] != "":
			fmt.Printf("%s 0 %s (absent: %s)\n", d.name, d.unit, res.absent[d.name])
		default:
			fmt.Fprintf(os.Stderr, "perfbench %s: metric %s not measured\n", *name, d.name)
			os.Exit(1)
		}
		out.Metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	if opts.trace {
		if tr := res.tr; tr != nil {
			path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
			header := map[string]any{"workload": *name, "seed": *seed, "seconds": *seconds,
				"host": stamp, "notes": res.notes, "spans": tr.count()}
			if err := tr.write(path, header); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench %s: writing trace: %v\n", *name, err)
				os.Exit(1)
			}
			fmt.Printf("# trace %s\n", path)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// stamp identifies the host and the code a result was measured on.
type stamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source"`
}

// hostStamp reads the VCS revision the binary was built from, when the
// build saw one, and hashes the Go sources under the working directory
// (the repository root), which identify the measured code in a checkout
// that is not a git repository.
func hostStamp() stamp {
	s := stamp{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := ""
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.Commit = kv.Value
			case "vcs.modified":
				if kv.Value == "true" {
					modified = "+modified"
				}
			}
		}
		s.Commit += modified
	}
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	h := sha256.New()
	slices.Sort(files)
	for _, f := range files {
		data, rerr := os.ReadFile(f)
		if rerr != nil {
			err = rerr
			break
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	s.Source = "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
	if err != nil {
		s.Source = "unreadable: " + err.Error()
	}
	return s
}

// since is time.Since in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
