package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 when xs is empty).
// xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailNote names a p99 whose sample count leaves fewer than ten samples
// beyond it, so a reader does not take it for a resolved tail.
func tailNote(n int) string {
	if n-int(0.99*float64(n)+0.5) < 10 {
		return fmt.Sprintf(" (n=%d: fewer than 10 samples beyond p99)", n)
	}
	return fmt.Sprintf(" (n=%d)", n)
}

// span is one timed call the benchmark made into a layer. Spans of one
// request, job or pass share ID; Parent indexes the enclosing span (-1 for
// a root). Times are nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site. It is safe for
// concurrent use (the daemon's middleware records from handler goroutines).
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns its index for close and for children.
func (t *tracer) open(name string, id int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) close(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// record adds a finished root span measured by the caller.
func (t *tracer) record(name string, id int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: -1,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// spans returns the id and duration (seconds) of every closed span with
// the given name.
func (t *tracer) named(name string) (ids []int64, secs []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			ids = append(ids, s.ID)
			secs = append(secs, float64(s.End-s.Start)/1e9)
		}
	}
	return ids, secs
}

// seconds returns the durations of every closed span with the given name.
func (t *tracer) seconds(name string) []float64 {
	_, secs := t.named(name)
	return secs
}

func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, d := range t.seconds(name) {
		sum += d
	}
	return sum
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the header line and every span as JSON lines. The span
// slice is copied under the lock and written after it is released.
func (t *tracer) write(path string, header map[string]any) error {
	t.mu.Lock()
	spans := slices.Clone(t.spans)
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runtimeSample is the Go runtime's allocation and GC counters at one
// instant.
type runtimeSample struct{ allocBytes, gcCycles uint64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeSample{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// runtimeDelta reports allocation (MB) and GC cycles since before.
func runtimeDelta(before runtimeSample) (allocMB, gcCycles float64) {
	now := readRuntime()
	return float64(now.allocBytes-before.allocBytes) / 1e6, float64(now.gcCycles - before.gcCycles)
}

// cpuSeconds returns the CPU time (user + system) the process has used.
// A VM guest's kernel does not charge it the time the hypervisor stole
// from its vCPUs, which wall time includes.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage(RUSAGE_SELF): %v", err)) // fails only on a bad pointer
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// liveHeapMB forces two collections — the second frees what sync.Pool
// caches survived the first — and returns the heap the last one marked
// live.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// result is what one run of a workload measured and checked.
type result struct {
	attempted, failed int
	problems          []string
	// e2e holds the end-to-end metrics, layer the per-layer ones (traced
	// runs only). Per-layer metrics a workload never reaches are left out
	// and reported as 0 with absent's reason.
	e2e    map[string]float64
	layer  map[string]float64
	absent map[string]string
	// notes are printed before the result line: digests and the figures
	// only one workload has, such as the daemon's p99 latencies.
	notes []string
	// tr holds a traced run's spans, written out when the run ends.
	tr *tracer
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}, absent: map[string]string{}}
}

// check counts one verified output and records it as failed if !ok.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// skip marks per-layer metrics the workload does not reach.
func (r *result) skip(reason string, names ...string) {
	for _, n := range names {
		r.absent[n] = reason
	}
}
