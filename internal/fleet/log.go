package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// LogSchemaVersion is stamped on the schema record every log opens with.
// Version 1 (implicit — no schema record) had only the five stream-level
// record types; version 2 added the machine-lifecycle types and the
// version/attempt/retry_at fields.
const LogSchemaVersion = 2

// Record is one line of the fleet's replayable JSONL event log. Field order
// is fixed by this struct, values are fully determined by the fleet
// configuration and job stream, and every float is produced by the same
// deterministic computation on every run — so the same seed and stream
// yield a bit-identical log (pinned by TestFleetDeterministicReplay).
//
// Record types:
//
//	schema      — always line 0: the log format version (Version)
//	arrive      — a job entered the system (Machine is -1; Workers/WorkScale
//	              make the log a replayable trace, see ReadTrace)
//	queue       — no machine had capacity; the job waits (Machine is -1)
//	admit       — the job was placed (Machine, Nodes; DWP/CacheHit for bwap)
//	complete    — the job finished (Elapsed = finish − admit)
//	retune      — co-located jobs were re-placed after churn (Jobs)
//	drain       — the machine left service gracefully; Jobs lists the
//	              evacuated ids (each then re-admits or queues)
//	crash       — the machine failed; Jobs lists the killed ids (each then
//	              retries or fails)
//	recover     — the machine returned to service
//	machine-add — the fleet grew by machine Machine
//	retry       — a crash-killed job will re-enter admission at RetryAt
//	              (Attempt = kills so far)
//	fail        — the job exhausted its retry budget; terminal
type Record struct {
	Seq  int     `json:"seq"`
	T    float64 `json:"t"`
	Type string  `json:"type"`
	// Version is the log schema version, stamped on the schema record only.
	Version  int    `json:"version,omitempty"`
	Job      int    `json:"job,omitempty"`
	Machine  int    `json:"machine"`
	Workload string `json:"workload,omitempty"`
	// Workers and WorkScale are stamped on arrive records so the job's
	// shape survives into the log; together with T they are exactly what
	// ReadTrace needs to resubmit the stream.
	Workers   int     `json:"workers,omitempty"`
	WorkScale float64 `json:"work_scale,omitempty"`
	Nodes     []int   `json:"nodes,omitempty"`
	Jobs      []int   `json:"jobs,omitempty"`
	// DWP is a pointer so an applied proximity factor of exactly 0 (the
	// canonical distribution) still appears in admit records.
	DWP      *float64 `json:"dwp,omitempty"`
	CacheHit *bool    `json:"cache_hit,omitempty"`
	Elapsed  float64  `json:"elapsed,omitempty"`
	// Attempt and RetryAt describe the crash-retry records: how many times
	// the job has been killed and when its backoff elapses.
	Attempt int     `json:"attempt,omitempty"`
	RetryAt float64 `json:"retry_at,omitempty"`
}

// eventLog accumulates the JSONL log, optionally mirroring each line to a
// streaming writer. Records are ordered by the fleet-global sequence
// number, which is assigned here under the scheduler — handling is
// serialized even when tick advancement is parallel — so the order is
// total, causal, and independent of the tick pool's width. No record
// names the goroutine that advanced its machine.
type eventLog struct {
	// buf mirrors the encoded log in memory. With retain == 0 it holds the
	// whole log; with retain > 0 only the most recent retain lines, tracked
	// by the lens ring (line lengths, oldest at lens[head]); with
	// retain < 0 the mirror is disabled entirely. The streaming writer w,
	// when set, always receives every line regardless of retention.
	buf    bytes.Buffer
	lens   []int
	head   int
	retain int
	w      io.Writer
	seq    int
	// scratch is the reused encode buffer; after warmup append performs no
	// heap allocations (TestLogAppendAllocationFree).
	scratch []byte
	errs    []error
}

// append assigns the next sequence number, encodes the record and appends
// it. Encoding errors are collected rather than interrupting the
// simulation; Err surfaces them. Encoding is the hand-rolled appendRecord
// (byte-identical to json.Marshal — see encode.go) into a reused scratch
// buffer, keeping the per-record cost allocation-free.
func (l *eventLog) append(rec Record) {
	rec.Seq = l.seq
	l.seq++
	data, err := appendRecord(l.scratch[:0], &rec)
	l.scratch = data
	if err != nil {
		l.errs = append(l.errs, err)
		return
	}
	data = append(data, '\n')
	l.scratch = data
	if l.retain >= 0 {
		l.buf.Write(data)
		if l.retain > 0 {
			l.lens = append(l.lens, len(data))
			if len(l.lens)-l.head > l.retain {
				l.buf.Next(l.lens[l.head])
				l.head++
				// Compact the ring once the dead prefix exceeds the live
				// window, keeping the slice bounded at ~2×retain.
				if l.head > l.retain {
					l.lens = append(l.lens[:0], l.lens[l.head:]...)
					l.head = 0
				}
			}
		}
	}
	if l.w != nil {
		if _, err := l.w.Write(data); err != nil {
			l.errs = append(l.errs, err)
		}
	}
}

func (l *eventLog) Err() error {
	if len(l.errs) == 0 {
		return nil
	}
	return fmt.Errorf("fleet: %d log errors, first: %w", len(l.errs), l.errs[0])
}

// DecodeLog parses a JSONL event log back into records — the replay/verify
// side of the format. Errors name the 1-based physical line, blank lines
// counted.
func DecodeLog(data []byte) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	n := 0
	for sc.Scan() {
		n++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("fleet: log line %d: %w", n, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fleet: log line %d: %w", n+1, err)
	}
	return out, nil
}
