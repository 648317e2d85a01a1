package core

import (
	"math"

	"bwap/internal/perf"
	"bwap/internal/sim"
	"bwap/internal/stats"
)

// This file implements the two automations Section III-B3 leaves as
// addressable limitations:
//
//  1. classifying workloads as memory-intensive or not via the number of
//     memory accesses per instruction (MAPI), "like in Carrefour [21]", so
//     the co-scheduled variant does not need an external hint; and
//  2. triggering BWAP-init automatically by watching the periodic
//     variation of the MAPI metric and acting "only when such variation is
//     below a given threshold", instead of requiring the programmer to
//     call BWAP-init at the start of the stable phase.

// DefaultMAPIThreshold separates memory-intensive workloads from the rest.
// With 64-byte lines and nominal IPC 1, a workload needs roughly one
// access per 50 instructions to stress a commodity memory system; Swaptions
// sits two orders of magnitude below the paper's benchmarks.
const DefaultMAPIThreshold = 0.02

// MemoryIntensive classifies an application from its accumulated counters.
// It requires some execution history; an app with no retired instructions
// classifies as not memory-intensive.
func MemoryIntensive(app *sim.App, threshold float64) bool {
	if threshold <= 0 {
		threshold = DefaultMAPIThreshold
	}
	return app.Counters.MAPI() >= threshold
}

// PhaseDetector watches the periodic variation of an application's MAPI
// and reports stability once the relative spread of recent windows drops
// below Tolerance — the trigger the paper proposes for automating
// BWAP-init.
type PhaseDetector struct {
	// WindowSeconds is the MAPI sampling window (default 0.5 s).
	WindowSeconds float64
	// Windows is how many consecutive windows are compared (default 3).
	Windows int
	// Tolerance is the maximum relative spread (max-min)/mean considered
	// stable (default 5%).
	Tolerance float64

	app        *sim.App
	lastTime   float64
	lastBytes  float64
	lastInstrs float64
	history    []float64
	stableAt   float64
}

// NewPhaseDetector returns a detector for the app with default parameters.
func NewPhaseDetector(app *sim.App) *PhaseDetector {
	return &PhaseDetector{
		WindowSeconds: 0.5,
		Windows:       3,
		Tolerance:     0.05,
		app:           app,
		stableAt:      math.NaN(),
	}
}

// Observe feeds the detector the current simulated time; call it every
// tick. It returns true once the application's MAPI has been stable for
// the configured number of windows.
func (d *PhaseDetector) Observe(now float64) bool {
	if d.Stable() {
		return true
	}
	c := d.app.Counters
	if d.lastTime == 0 && d.lastBytes == 0 && d.lastInstrs == 0 {
		d.lastTime, d.lastBytes, d.lastInstrs = now, c.BytesRead+c.BytesWritten, c.Instructions
		return false
	}
	if now-d.lastTime < d.WindowSeconds {
		return false
	}
	bytes := c.BytesRead + c.BytesWritten
	instrs := c.Instructions
	dBytes, dInstrs := bytes-d.lastBytes, instrs-d.lastInstrs
	d.lastTime, d.lastBytes, d.lastInstrs = now, bytes, instrs
	mapi := 0.0
	if dInstrs > 0 {
		mapi = dBytes / perf.CacheLineBytes / dInstrs
	}
	d.history = append(d.history, mapi)
	if len(d.history) > d.Windows {
		d.history = d.history[len(d.history)-d.Windows:]
	}
	if len(d.history) < d.Windows {
		return false
	}
	mean := stats.Mean(d.history)
	if mean <= 0 {
		return false
	}
	spread := (stats.Max(d.history) - stats.Min(d.history)) / mean
	if spread <= d.Tolerance {
		d.stableAt = now
		return true
	}
	return false
}

// Stable reports whether stability has been detected.
func (d *PhaseDetector) Stable() bool { return !math.IsNaN(d.stableAt) }
