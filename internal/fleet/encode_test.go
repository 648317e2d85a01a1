package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

// encodeOne runs the hand-rolled encoder against a fresh buffer.
func encodeOne(t *testing.T, rec Record) []byte {
	t.Helper()
	out, err := appendRecord(nil, &rec)
	if err != nil {
		t.Fatalf("appendRecord: %v", err)
	}
	return out
}

// TestRecordEncodeMatchesMarshal pins the encoder against encoding/json on
// a table of tricky records: every omitempty boundary, both float formats
// and the exponent-cleanup path, HTML escaping, invalid UTF-8 and the
// JSONP line separators.
func TestRecordEncodeMatchesMarshal(t *testing.T) {
	dwp := 0.0
	hit := false
	hit2 := true
	cases := []Record{
		{},
		{Seq: 3, T: 12.5, Type: "arrive", Machine: -1, Workload: "alpha", Workers: 2, WorkScale: 0.1},
		{T: 1e-7, Type: "x", WorkScale: 1e21, Elapsed: 123456789.000001, RetryAt: 2.5e-8},
		{T: -1e-9, WorkScale: -3e21, Elapsed: 5e-324, RetryAt: math.MaxFloat64},
		{Type: "admit", Machine: 4, Nodes: []int{0, 1, 2}, DWP: &dwp, CacheHit: &hit},
		{Type: "retune", Jobs: []int{7}, CacheHit: &hit2, Attempt: 2, RetryAt: 9.75},
		{Type: "schema", Version: LogSchemaVersion},
		{Workload: `quote " back \ slash`},
		{Workload: "ctrl \x00\x01\x1f\b\f\n\r\t end"},
		{Workload: "html <b>&amp;</b>"},
		{Workload: "bad utf8 \xff\xfe ok"},
		{Workload: "seps \u2028 and \u2029"},
		{Workload: "uni 漢字 café"},
	}
	for _, rec := range cases {
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("Marshal(%+v): %v", rec, err)
		}
		if got := encodeOne(t, rec); !bytes.Equal(got, want) {
			t.Errorf("encode mismatch for %+v:\n got  %s\n want %s", rec, got, want)
		}
	}
}

// TestRecordEncodeNonFinite checks the error path agrees with Marshal:
// non-finite floats must fail, not emit bytes.
func TestRecordEncodeNonFinite(t *testing.T) {
	inf := math.Inf(1)
	for _, rec := range []Record{
		{T: math.NaN()},
		{WorkScale: math.Inf(-1)},
		{DWP: &inf},
		{Elapsed: math.NaN()},
		{RetryAt: math.Inf(1)},
	} {
		if _, err := json.Marshal(rec); err == nil {
			t.Fatalf("Marshal accepted non-finite %+v", rec)
		}
		if _, err := appendRecord(nil, &rec); err == nil {
			t.Errorf("appendRecord accepted non-finite %+v", rec)
		}
	}
}

// FuzzRecordEncode is the byte-equality contract with encoding/json,
// explored over randomized records (see encode.go). CI replays the corpus
// via plain `go test -run FuzzRecordEncode`.
func FuzzRecordEncode(f *testing.F) {
	f.Add(int(3), 12.5, "arrive", 2, 7, -1, "alpha", 2, 0.1, []byte{0, 1}, []byte{7}, true, 0.0, true, false, 3.25, 1, 40.5)
	f.Add(int(0), 1e-7, "x<>&", 0, 0, 0, "bad \xff \u2028", 0, 1e21, []byte{}, []byte{}, false, -0.0, false, true, 5e-324, 0, -2.5e-8)
	f.Add(int(-9), -3.0, "ctrl\x00\n\t", 0, 0, 4, "quote\"\\", 0, -1e-6, []byte{255}, []byte{128, 2}, true, 1e20, true, true, 0.0, -1, 0.0)
	f.Fuzz(func(t *testing.T, seq int, tt float64, typ string, version, job, machine int,
		wl string, workers int, workScale float64, nodesRaw, jobsRaw []byte,
		hasDWP bool, dwp float64, hasHit, hit bool, elapsed float64, attempt int, retryAt float64) {
		rec := Record{
			Seq: seq, T: tt, Type: typ, Version: version, Job: job, Machine: machine,
			Workload: wl, Workers: workers, WorkScale: workScale,
			Elapsed: elapsed, Attempt: attempt, RetryAt: retryAt,
		}
		for _, b := range nodesRaw {
			rec.Nodes = append(rec.Nodes, int(b)-128)
		}
		for _, b := range jobsRaw {
			rec.Jobs = append(rec.Jobs, int(b))
		}
		if hasDWP {
			rec.DWP = &dwp
		}
		if hasHit {
			rec.CacheHit = &hit
		}
		want, werr := json.Marshal(rec)
		got, gerr := appendRecord(nil, &rec)
		if werr != nil {
			if gerr == nil {
				t.Fatalf("Marshal rejected %+v (%v) but appendRecord accepted: %s", rec, werr, got)
			}
			return
		}
		if gerr != nil {
			t.Fatalf("Marshal accepted %+v but appendRecord failed: %v", rec, gerr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encode mismatch:\n got  %s\n want %s", got, want)
		}
	})
}

// TestLogAppendAllocationFree pins the zero-alloc property of the log hot
// path: with the in-memory mirror disabled, a warmed eventLog appends
// records without heap allocations; with a bounded mirror, the ring and
// buffer reach steady state and stay amortized-free.
func TestLogAppendAllocationFree(t *testing.T) {
	dwp := 0.37
	hit := true
	rec := Record{
		T: 12.5, Type: "admit", Job: 42, Machine: 3, Workload: "alpha",
		Nodes: []int{0, 1, 2, 3}, DWP: &dwp, CacheHit: &hit,
	}
	for name, l := range map[string]*eventLog{
		"no-mirror": {retain: -1, w: io.Discard},
		"retained":  {retain: 64, w: io.Discard},
	} {
		for i := 0; i < 512; i++ {
			l.append(rec) // warm scratch, ring and buffer to steady state
		}
		allocs := testing.AllocsPerRun(200, func() { l.append(rec) })
		if allocs >= 1 {
			t.Errorf("%s: eventLog.append allocates %.1f times per record; want 0", name, allocs)
		}
		if err := l.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLogRetention covers the three retention regimes of the in-memory
// mirror and checks the streaming writer always sees the full log.
func TestLogRetention(t *testing.T) {
	mkRec := func(i int) Record {
		return Record{T: float64(i), Type: "arrive", Job: i, Machine: -1, Workload: "w"}
	}
	var full bytes.Buffer
	ref := &eventLog{w: &full}
	for i := 0; i < 10; i++ {
		ref.append(mkRec(i))
	}
	if !bytes.Equal(ref.buf.Bytes(), full.Bytes()) {
		t.Fatal("retain=0 mirror diverges from the streamed log")
	}
	lines := bytes.SplitAfter(full.Bytes(), []byte("\n"))

	var stream bytes.Buffer
	l := &eventLog{retain: 3, w: &stream}
	for i := 0; i < 10; i++ {
		l.append(mkRec(i))
	}
	if !bytes.Equal(stream.Bytes(), full.Bytes()) {
		t.Fatal("retention must not affect the streaming writer")
	}
	want := bytes.Join(lines[7:10], nil)
	if got := l.buf.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("retain=3 kept:\n%s\nwant last 3 lines:\n%s", got, want)
	}
	recs, err := DecodeLog(l.buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].Seq != 7 || recs[2].Seq != 9 {
		t.Fatalf("retained window decoded to %+v", recs)
	}

	var stream2 bytes.Buffer
	off := &eventLog{retain: -1, w: &stream2}
	for i := 0; i < 10; i++ {
		off.append(mkRec(i))
	}
	if off.buf.Len() != 0 {
		t.Fatalf("retain<0 still mirrored %d bytes", off.buf.Len())
	}
	if !bytes.Equal(stream2.Bytes(), full.Bytes()) {
		t.Fatal("retain<0 must still stream every record")
	}
}

// TestFleetLogRetention wires Config.LogRetention end to end: a bounded
// fleet log is exactly the tail of the unbounded one, and a disabled
// mirror still streams to LogW.
func TestFleetLogRetention(t *testing.T) {
	fullFleet, _ := runFleet(t, testConfig(PolicyBWAP, 11), testStreams())
	fullLog := fullFleet.LogBytes()
	fullLines := bytes.SplitAfter(fullLog, []byte("\n"))
	fullLines = fullLines[:len(fullLines)-1] // drop the empty split tail

	cfg := testConfig(PolicyBWAP, 11)
	cfg.LogRetention = 5
	tailFleet, _ := runFleet(t, cfg, testStreams())
	want := bytes.Join(fullLines[len(fullLines)-5:], nil)
	if got := tailFleet.LogBytes(); !bytes.Equal(got, want) {
		t.Fatalf("LogRetention=5 kept:\n%s\nwant:\n%s", got, want)
	}

	var stream bytes.Buffer
	cfg = testConfig(PolicyBWAP, 11)
	cfg.LogRetention = -1
	cfg.LogW = &stream
	offFleet, _ := runFleet(t, cfg, testStreams())
	if n := len(offFleet.LogBytes()); n != 0 {
		t.Fatalf("LogRetention=-1 still mirrored %d bytes", n)
	}
	if !bytes.Equal(stream.Bytes(), fullLog) {
		t.Fatal("LogRetention=-1 must still stream the full log to LogW")
	}
	if strings.Count(stream.String(), "\n") != len(fullLines) {
		t.Fatal("streamed log line count diverged")
	}
}

// TestDecodeLogNamesLine: decode errors name the 1-based physical line,
// blank lines counted, and a scanner error keeps its cause.
func TestDecodeLogNamesLine(t *testing.T) {
	_, err := DecodeLog([]byte("{}\n\n{bad\n{}\n"))
	if err == nil || !strings.Contains(err.Error(), "log line 3:") {
		t.Fatalf("bad third line after a blank one: %v", err)
	}
	long := "{}\n" + strings.Repeat("x", 1<<20+1) + "\n"
	_, err = DecodeLog([]byte(long))
	if !errors.Is(err, bufio.ErrTooLong) || !strings.Contains(err.Error(), "log line 2:") {
		t.Fatalf("over-long second line: %v", err)
	}
}
