package fleet

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// This file is the hand-rolled JSONL encoder for Record — the event log's
// hot path. eventLog.append used to reflect over the struct through
// json.Marshal, which dominated the fleet's allocation profile (~9,900
// allocs/op in FleetThroughputSharded); appendRecord writes the
// same bytes into a caller-owned scratch buffer with zero allocations.
//
// The contract is byte-equality with encoding/json: field order follows
// the Record struct, omitempty semantics match reflect's isEmptyValue
// (zero ints/floats/strings and empty slices omitted; Machine has no
// omitempty and is always emitted; nil pointers omitted), floats follow
// the ES6-style shortest form with the e-0X exponent cleanup, and strings
// are HTML-escaped exactly like Marshal's default. FuzzRecordEncode pins
// the equality over randomized records, and the frozen log SHAs pin it
// over every record the fleet actually produces. If a field is ever added
// to Record, this encoder and the fuzz target must grow with it — the
// fuzz corpus fails loudly on a shape mismatch.

// appendRecord appends rec's JSON object (no trailing newline) to dst and
// returns the extended slice. Non-finite floats return an error and dst
// unmodified, mirroring json.Marshal's UnsupportedValueError; every float
// the fleet logs is finite, so the path exists for parity, not use.
func appendRecord(dst []byte, rec *Record) ([]byte, error) {
	for _, f := range [...]float64{rec.T, rec.WorkScale, rec.Elapsed, rec.RetryAt} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return dst, fmt.Errorf("fleet: record %d: unsupported non-finite float %v", rec.Seq, f)
		}
	}
	if rec.DWP != nil && (math.IsNaN(*rec.DWP) || math.IsInf(*rec.DWP, 0)) {
		return dst, fmt.Errorf("fleet: record %d: unsupported non-finite dwp %v", rec.Seq, *rec.DWP)
	}

	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendInt(dst, int64(rec.Seq), 10)
	dst = append(dst, `,"t":`...)
	dst = appendJSONFloat(dst, rec.T)
	dst = append(dst, `,"type":`...)
	dst = appendJSONString(dst, rec.Type)
	if rec.Version != 0 {
		dst = append(dst, `,"version":`...)
		dst = strconv.AppendInt(dst, int64(rec.Version), 10)
	}
	if rec.Job != 0 {
		dst = append(dst, `,"job":`...)
		dst = strconv.AppendInt(dst, int64(rec.Job), 10)
	}
	dst = append(dst, `,"machine":`...)
	dst = strconv.AppendInt(dst, int64(rec.Machine), 10)
	if rec.Workload != "" {
		dst = append(dst, `,"workload":`...)
		dst = appendJSONString(dst, rec.Workload)
	}
	if rec.Workers != 0 {
		dst = append(dst, `,"workers":`...)
		dst = strconv.AppendInt(dst, int64(rec.Workers), 10)
	}
	if rec.WorkScale != 0 {
		dst = append(dst, `,"work_scale":`...)
		dst = appendJSONFloat(dst, rec.WorkScale)
	}
	if len(rec.Nodes) != 0 {
		dst = append(dst, `,"nodes":`...)
		dst = appendJSONInts(dst, rec.Nodes)
	}
	if len(rec.Jobs) != 0 {
		dst = append(dst, `,"jobs":`...)
		dst = appendJSONInts(dst, rec.Jobs)
	}
	if rec.DWP != nil {
		dst = append(dst, `,"dwp":`...)
		dst = appendJSONFloat(dst, *rec.DWP)
	}
	if rec.CacheHit != nil {
		if *rec.CacheHit {
			dst = append(dst, `,"cache_hit":true`...)
		} else {
			dst = append(dst, `,"cache_hit":false`...)
		}
	}
	if rec.Elapsed != 0 {
		dst = append(dst, `,"elapsed":`...)
		dst = appendJSONFloat(dst, rec.Elapsed)
	}
	if rec.Attempt != 0 {
		dst = append(dst, `,"attempt":`...)
		dst = strconv.AppendInt(dst, int64(rec.Attempt), 10)
	}
	if rec.RetryAt != 0 {
		dst = append(dst, `,"retry_at":`...)
		dst = appendJSONFloat(dst, rec.RetryAt)
	}
	return append(dst, '}'), nil
}

// appendJSONFloat appends a finite float the way encoding/json does: the
// shortest round-trip form, 'f' format inside [1e-6, 1e21) and 'e'
// outside, with the two-digit negative exponent rewritten e-0X → e-X
// (ES6 number-to-string conversion; see golang.org/issue/6384).
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted and escaped exactly like
// json.Marshal's default (HTML-escaping) string encoder: `"`, `\` and
// control bytes escaped (with the \b \f \n \r \t shorthands), `<` `>` `&`
// written as \u00XX, invalid UTF-8 bytes written as the six-byte
// replacement escape (backslash-u-fffd), and the JSONP-hostile
// U+2028/U+2029 escaped.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONInts appends an int slice as a JSON array.
func appendJSONInts(dst []byte, xs []int) []byte {
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}
