package campaign

// encode.go is the checkpoint encoder: a hand-written appender for
// manifests, journal records and the journal's plan header. It writes
// exactly the bytes encoding/json does — json.Marshal in compact form (one
// journal line) and json.MarshalIndent(v, "", "  ") in indented form (the
// manifest) — in one pass, with no reflection and no intermediate buffer.
// That covers every rule the checkpoint types reach: HTML-safe string
// escaping (<, >, & as \u003c…), \b \f \n \r \t and \u00XX for the other
// control bytes, \ufffd for invalid UTF-8 and escaped U+2028/U+2029, sorted
// map keys, encoding/json's float format, the same error on NaN and ±Inf,
// omitempty, and null for nil slices, maps and records. ref_test.go keeps
// encoding/json as the reference and FuzzCheckpointEncoding diffs the two.

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"unicode/utf8"

	"repro/internal/durable"
)

// encoder appends checkpoint JSON to b. Its buffers are reused from one
// encoding to the next, so a long-lived encoder (the Checkpointer's)
// encodes each journal record without allocating.
type encoder struct {
	b []byte
	// indent selects MarshalIndent's layout ("" prefix, two-space indent).
	indent bool
	depth  int
	// keys is a stack of sorted map keys: each map pushes its keys, writes
	// its members and pops them, so nested maps share one slice (object).
	keys []string
	// err is the first unencodable value (NaN or ±Inf), as json reports it.
	err error
}

// reset starts a new encoding in the given layout, keeping the buffers.
func (e *encoder) reset(indent bool) {
	e.b, e.indent, e.depth, e.err = e.b[:0], indent, 0, nil
}

// newline starts an indented line at the current depth; compact output
// has none.
func (e *encoder) newline() {
	if !e.indent {
		return
	}
	e.b = append(e.b, '\n')
	for i := 0; i < e.depth; i++ {
		e.b = append(e.b, ' ', ' ')
	}
}

// open starts an object or array.
func (e *encoder) open(c byte) {
	e.b = append(e.b, c)
	e.depth++
}

// next starts member number *n of the open object or array.
func (e *encoder) next(n *int) {
	if *n > 0 {
		e.b = append(e.b, ',')
	}
	e.newline()
	*n++
}

// close ends an object or array of n members. An empty one stays "{}" or
// "[]" on one line, as json.Indent leaves it.
func (e *encoder) close(c byte, n int) {
	e.depth--
	if n > 0 {
		e.newline()
	}
	e.b = append(e.b, c)
}

// field starts object member *n named k.
func (e *encoder) field(n *int, k string) {
	e.next(n)
	e.b = appendString(e.b, k)
	e.b = append(e.b, ':')
	if e.indent {
		e.b = append(e.b, ' ')
	}
}

func (e *encoder) str(s string)    { e.b = appendString(e.b, s) }
func (e *encoder) integer(v int64) { e.b = strconv.AppendInt(e.b, v, 10) }
func (e *encoder) null()           { e.b = append(e.b, "null"...) }

// float writes f as encoding/json does: the shortest repr in 'f' form, or
// in 'e' form below 1e-6 and from 1e21 up with a two-digit negative
// exponent shortened (e-07 → e-7). NaN and ±Inf are json's
// UnsupportedValueError.
func (e *encoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		e.null()
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// object writes a map as an object, members in encoding/json's bytewise
// key order, null when nil. Its sorted keys sit on e.keys for the
// duration, above any enclosing map's.
func object[V any](e *encoder, m map[string]V, value func(*encoder, V)) {
	if m == nil {
		e.null()
		return
	}
	lo := len(e.keys)
	for k := range m {
		e.keys = append(e.keys, k)
	}
	slices.Sort(e.keys[lo:])
	e.open('{')
	n := 0
	for i := lo; i < len(e.keys); i++ {
		k := e.keys[i]
		e.field(&n, k)
		value(e, m[k])
	}
	e.close('}', n)
	clear(e.keys[lo:])
	e.keys = e.keys[:lo]
}

// strs writes a string slice, null when nil.
func (e *encoder) strs(s []string) {
	if s == nil {
		e.null()
		return
	}
	e.open('[')
	n := 0
	for _, v := range s {
		e.next(&n)
		e.str(v)
	}
	e.close(']', n)
}

// failure writes a Failure, null when nil.
func (e *encoder) failure(f *Failure) {
	if f == nil {
		e.null()
		return
	}
	e.open('{')
	n := 0
	e.field(&n, "msg")
	e.str(f.Msg)
	for _, kv := range [...]struct{ k, v string }{
		{"invariant", f.Invariant}, {"at", f.At}, {"detail", f.Detail}, {"dump", f.Dump},
	} {
		if kv.v != "" {
			e.field(&n, kv.k)
			e.str(kv.v)
		}
	}
	e.close('}', n)
}

// record writes a Record, null when nil.
func (e *encoder) record(r *Record) {
	if r == nil {
		e.null()
		return
	}
	e.open('{')
	n := 0
	e.field(&n, "id")
	e.str(r.ID)
	e.field(&n, "status")
	e.str(string(r.Status))
	e.field(&n, "attempts")
	e.integer(int64(r.Attempts))
	e.field(&n, "sessions")
	e.integer(int64(r.Sessions))
	e.field(&n, "failed_sessions")
	e.integer(int64(r.FailedSessions))
	e.field(&n, "seed")
	e.b = strconv.AppendUint(e.b, r.Seed, 10)
	if len(r.Metrics) > 0 {
		e.field(&n, "metrics")
		object(e, r.Metrics, (*encoder).float)
	}
	if r.Rendered != "" {
		e.field(&n, "rendered")
		e.str(r.Rendered)
	}
	if r.Failure != nil {
		e.field(&n, "failure")
		e.failure(r.Failure)
	}
	if len(r.Telemetry) > 0 {
		e.field(&n, "telemetry")
		object(e, r.Telemetry, (*encoder).integer)
	}
	e.close('}', n)
}

// plan writes the members a manifest shares with the journal header:
// version, seed, note (omitted when empty) and ids.
func (e *encoder) plan(n *int, h walHeader) {
	e.field(n, "version")
	e.integer(int64(h.Version))
	e.field(n, "seed")
	e.b = strconv.AppendUint(e.b, h.Seed, 10)
	if h.Note != "" {
		e.field(n, "note")
		e.str(h.Note)
	}
	e.field(n, "ids")
	e.strs(h.IDs)
}

// header writes the journal's plan header.
func (e *encoder) header(h walHeader) {
	e.open('{')
	n := 0
	e.plan(&n, h)
	e.close('}', n)
}

// manifest writes a Manifest.
func (e *encoder) manifest(m *Manifest) {
	e.open('{')
	n := 0
	e.plan(&n, headerOf(m))
	e.field(&n, "entries")
	object(e, m.Entries, (*encoder).record)
	if m.Sum != "" {
		e.field(&n, "sum")
		e.str(m.Sum)
	}
	e.close('}', n)
}

// sealed encodes m indented with Sum empty and returns those bytes and
// their self-checksum. m itself is not modified.
func (e *encoder) sealed(m *Manifest) ([]byte, string, error) {
	shadow := *m
	shadow.Sum = ""
	e.reset(true)
	e.manifest(&shadow)
	if e.err != nil {
		return nil, "", e.err
	}
	return e.b, fmt.Sprintf("crc32c:%08x", durable.Checksum(e.b)), nil
}

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes encoding/json copies into a string
// verbatim: everything but control bytes, '"', '\\' and the HTML
// characters '<', '>' and '&'.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// appendString appends s as a JSON string, escaped as json.Marshal
// escapes it.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
