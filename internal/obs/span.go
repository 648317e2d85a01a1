package obs

import (
	"encoding/json"
	"io"
)

// SpanWriter streams lifecycle spans as Chrome trace-event JSON — the
// format chrome://tracing and Perfetto open directly. Events are written
// one per line inside a JSON array; Close terminates the array, but both
// viewers accept a truncated (unclosed) file, so a crashed run's span log
// is still loadable. Timestamps are simulated seconds scaled to
// microseconds, the unit the trace viewers expect.
//
// Span output is a pure function of the (name, cat, pid, tid, ts, dur,
// args) call sequence: args marshal through encoding/json (struct fields
// in declaration order, map keys sorted), so a deterministic caller gets
// deterministic bytes.
type SpanWriter struct {
	w   io.Writer
	n   int
	err error
}

// NewSpanWriter wraps w. The caller owns closing any underlying file
// after calling Close on the writer.
func NewSpanWriter(w io.Writer) *SpanWriter {
	return &SpanWriter{w: w}
}

// traceEvent is the Chrome trace-event wire shape.
type traceEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat,omitempty"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Args any     `json:"args,omitempty"`
}

const microsPerSec = 1e6

// Complete emits a ph="X" complete span: [start, start+dur) in simulated
// seconds on track (pid, tid).
func (s *SpanWriter) Complete(name, cat string, pid, tid int, start, dur float64, args any) {
	s.emit(traceEvent{Name: name, Cat: cat, Ph: "X",
		Ts: start * microsPerSec, Dur: dur * microsPerSec, Pid: pid, Tid: tid, Args: args})
}

// Instant emits a ph="i" instant event at time t.
func (s *SpanWriter) Instant(name, cat string, pid, tid int, t float64, args any) {
	s.emit(traceEvent{Name: name, Cat: cat, Ph: "i",
		Ts: t * microsPerSec, Pid: pid, Tid: tid, Args: args})
}

func (s *SpanWriter) emit(ev traceEvent) {
	if s.err != nil {
		return
	}
	data, err := json.Marshal(ev)
	if err != nil {
		s.err = err
		return
	}
	var prefix string
	if s.n == 0 {
		prefix = "[\n"
	} else {
		prefix = ",\n"
	}
	if _, err := io.WriteString(s.w, prefix); err != nil {
		s.err = err
		return
	}
	if _, err := s.w.Write(data); err != nil {
		s.err = err
		return
	}
	s.n++
}

// Close terminates the JSON array, making the output strictly valid JSON.
func (s *SpanWriter) Close() error {
	if s.err != nil {
		return s.err
	}
	if s.n == 0 {
		_, s.err = io.WriteString(s.w, "[]\n")
		return s.err
	}
	_, s.err = io.WriteString(s.w, "\n]\n")
	return s.err
}
