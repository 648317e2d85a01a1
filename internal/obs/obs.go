// Package obs is the deterministic telemetry core: counters, gauges and
// fixed log-bucket histograms keyed on *simulated* time, plus a windowed
// time-series ring and a Chrome-trace span writer.
//
// Nothing in this package reads the wall clock, allocates on the update
// path, or iterates a map where order could leak into output — so any
// metric fed exclusively from a deterministic event stream renders to
// byte-identical text for the same seed at any tick-pool width.
// The fleet exploits this for its replayable /metrics surface: updates
// are driven off the merged event log (itself bit-reproducible), and the
// exposition walks families and series in registration order.
//
// The types here are NOT safe for concurrent use; the fleet scheduler is
// single-threaded and the HTTP server serializes access behind its mutex,
// which is the same contract every other fleet structure has.
package obs

import (
	"fmt"
	"strings"
)

// Metric kinds, in Prometheus exposition vocabulary.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Label is one name="value" pair attached to a series.
type Label struct {
	Key   string
	Value string
}

// Registry holds metric families in registration order — the order the
// exposition renders them in, which is what makes the output deterministic
// without any sorting pass.
type Registry struct {
	fams   []*family
	byName map[string]*family
}

// family is one named metric family: a help string, a kind, and its series.
type family struct {
	name   string
	help   string
	kind   string
	series []*series
	byKey  map[string]*series
}

// series is one labeled instance of a family. Exactly one of c/g/h is set,
// matching the family kind.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// lookup finds or creates the family, enforcing kind/help consistency.
func (r *Registry) lookup(name, help, kind string) *family {
	if f, ok := r.byName[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: family %s registered as %s, requested as %s", name, f.kind, kind))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, byKey: map[string]*series{}}
	r.fams = append(r.fams, f)
	r.byName[name] = f
	return f
}

// labelKey renders labels into the canonical identity string.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// find returns the existing series with these labels, or nil.
func (f *family) find(key string) *series {
	return f.byKey[key]
}

func (f *family) add(key string, s *series) {
	f.series = append(f.series, s)
	f.byKey[key] = s
}

// Counter registers (or returns) a monotonically increasing counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.lookup(name, help, KindCounter)
	key := labelKey(labels)
	if s := f.find(key); s != nil {
		return s.c
	}
	c := &Counter{}
	f.add(key, &series{labels: labels, c: c})
	return c
}

// Gauge registers (or returns) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.lookup(name, help, KindGauge)
	key := labelKey(labels)
	if s := f.find(key); s != nil {
		return s.g
	}
	g := &Gauge{}
	f.add(key, &series{labels: labels, g: g})
	return g
}

// Histogram registers (or returns) a histogram with the given fixed upper
// bounds (ascending; the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram %s bounds not ascending at %d", name, i))
		}
	}
	f := r.lookup(name, help, KindHistogram)
	key := labelKey(labels)
	if s := f.find(key); s != nil {
		return s.h
	}
	h := &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	f.add(key, &series{labels: labels, h: h})
	return h
}

// Counter is a monotonically increasing count. The update path is
// allocation-free.
type Counter struct {
	v float64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v++ }

// Add adds d (must be >= 0 to keep the counter monotone; not checked on
// the hot path).
func (c *Counter) Add(d float64) { c.v += d }

// Gauge is an instantaneous value. The update path is allocation-free.
type Gauge struct {
	v float64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v = v }
