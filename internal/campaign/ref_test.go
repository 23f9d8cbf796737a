package campaign

// ref_test.go keeps encoding/json as the reference for the checkpoint
// encoder (encode.go): json.Marshal for journal lines, and for manifests
// the sealing Encode did with encoding/json — json.MarshalIndent with Sum
// empty to checksum, then json.MarshalIndent again with Sum set.
// FuzzCheckpointEncoding diffs the encoder against it on arbitrary
// records, plan headers and manifests.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/durable"
)

// refEncode seals and serializes m with encoding/json.
func refEncode(m *Manifest) ([]byte, error) {
	shadow := *m
	shadow.Sum = ""
	base, err := json.MarshalIndent(&shadow, "", "  ")
	if err != nil {
		return nil, err
	}
	m.Sum = fmt.Sprintf("crc32c:%08x", durable.Checksum(base))
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// sameErr reports whether two errors agree: both nil, or both non-nil
// with the same message.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// firstDiff renders where got and want first differ.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-40, 0)
	return fmt.Sprintf("first difference at byte %d:\n got: %q\nwant: %q",
		i, got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
}

// checkEncoding encodes v with write on e — compact, then indented — and
// fails t unless each matches encoding/json's bytes and error.
func checkEncoding(t *testing.T, name string, e *encoder, v any, write func(*encoder)) {
	t.Helper()
	for _, indent := range []bool{false, true} {
		e.reset(indent)
		write(e)
		var want []byte
		var err error
		if indent {
			want, err = json.MarshalIndent(v, "", "  ")
		} else {
			want, err = json.Marshal(v)
		}
		if !sameErr(e.err, err) {
			t.Fatalf("%s (indent %v): error %v, encoding/json says %v", name, indent, e.err, err)
		}
		if err == nil && !bytes.Equal(e.b, want) {
			t.Fatalf("%s (indent %v): %s", name, indent, firstDiff(e.b, want))
		}
	}
}

// checkSeal checks Encode, and the checksum decodeManifest verifies with,
// against encoding/json's sealing of the same manifest.
func checkSeal(t *testing.T, name string, m *Manifest) {
	t.Helper()
	a, b := *m, *m
	got, gerr := a.Encode()
	want, werr := refEncode(&b)
	if !sameErr(gerr, werr) {
		t.Fatalf("%s: Encode error %v, encoding/json says %v", name, gerr, werr)
	}
	if werr != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: Encode: %s", name, firstDiff(got, want))
	}
	if sum, err := a.checksum(); err != nil || sum != b.Sum || a.Sum != b.Sum {
		t.Fatalf("%s: checksum %q (%v), Encode set %q; encoding/json's is %q", name, sum, err, a.Sum, b.Sum)
	}
}

// checkAll diffs every encoding of rec and of a manifest holding it.
func checkAll(t *testing.T, name string, e *encoder, rec *Record, m *Manifest) {
	t.Helper()
	checkEncoding(t, name+"/record", e, rec, func(e *encoder) { e.record(rec) })
	if rec != nil {
		checkEncoding(t, name+"/failure", e, rec.Failure, func(e *encoder) { e.failure(rec.Failure) })
	}
	h := headerOf(m)
	checkEncoding(t, name+"/header", e, h, func(e *encoder) { e.header(h) })
	checkEncoding(t, name+"/manifest", e, m, func(e *encoder) { e.manifest(m) })
	checkSeal(t, name, m)
}

// FuzzCheckpointEncoding builds a record, a plan header and a manifest
// from arbitrary strings, numbers and shape bits — nil against empty maps
// and slices, nil records and failures, empty strings that omitempty
// drops — and requires the encoder's bytes and errors to equal
// encoding/json's in compact and indented form, and Encode's sealed
// manifest and checksum to equal encoding/json's sealing.
func FuzzCheckpointEncoding(f *testing.F) {
	f.Add("fig4.1", "ok", "Δ 12.000→3.989 ms — ≈ <&>\n", 0.25, 1e-7, int64(3), uint64(1), uint16(0x0fff))
	f.Add("micro@7", "failed", "invariant \"runqueue\"\t\x00\x1f\x7f", 1e21, math.Copysign(0, -1), int64(-1), uint64(1<<63), uint16(0x5555))
	f.Add("\xff\xfe", "\u2028\u2029", "", math.NaN(), 5e-324, int64(math.MaxInt64), uint64(math.MaxUint64), uint16(0xaaaa))
	f.Add("", "", "e", math.Inf(-1), 123456789e15, int64(0), uint64(0), uint16(0))

	f.Fuzz(func(t *testing.T, s1, s2, s3 string, f1, f2 float64, n int64, u uint64, shape uint16) {
		bit := func(i uint) bool { return shape>>i&1 == 1 }
		rec := &Record{ID: s1, Status: Status(s2), Attempts: int(n), Sessions: int(n >> 7),
			FailedSessions: int(n >> 13), Seed: u}
		switch shape & 3 {
		case 1:
			rec.Metrics = map[string]float64{}
		case 2:
			rec.Metrics = map[string]float64{s1: f1}
		case 3:
			rec.Metrics = map[string]float64{s1: f1, s3: f2, s2: float64(n)}
		}
		if bit(2) {
			rec.Rendered = s3
		}
		if bit(3) {
			rec.Failure = &Failure{Msg: s2}
			if bit(4) {
				rec.Failure.Invariant, rec.Failure.At, rec.Failure.Detail, rec.Failure.Dump = s1, s3, s2+s3, s3+s1
			}
		}
		switch shape >> 5 & 3 {
		case 1:
			rec.Telemetry = map[string]int64{}
		case 2:
			rec.Telemetry = map[string]int64{s3: n}
		case 3:
			rec.Telemetry = map[string]int64{s3: n, s1: -n, s2: int64(u)}
		}
		m := &Manifest{Version: int(n >> 3), Seed: u, Note: s3}
		if bit(7) {
			m.Note = ""
		}
		switch shape >> 8 & 3 {
		case 1:
			m.IDs = []string{}
		case 2:
			m.IDs = []string{s1, s2, s3}
		case 3:
			m.IDs = []string{s2}
		}
		switch shape >> 10 & 3 {
		case 1:
			m.Entries = map[string]*Record{}
		case 2:
			m.Entries = map[string]*Record{s1: rec}
		case 3:
			m.Entries = map[string]*Record{s1: rec, s2: nil, s3 + "'": {ID: s3, Status: StatusSkipped}}
		}
		if bit(12) {
			m.Sum = s2
		}
		var e encoder
		checkAll(t, "fuzz", &e, rec, m)
	})
}
