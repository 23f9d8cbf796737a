package durable

import (
	"bytes"
	"strings"
	"testing"
)

// bytesFS serves one journal's bytes to ReadLog, which only reads.
type bytesFS struct {
	FS
	data []byte
}

func (b bytesFS) ReadFile(string) ([]byte, error) { return b.data, nil }

func readLogBytes(t *testing.T, raw []byte) *LogData {
	t.Helper()
	d, err := ReadLog(bytesFS{data: raw}, "j.wal")
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	return d
}

func mustEncode(t testing.TB, payload []byte) []byte {
	t.Helper()
	line, err := appendLine(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// TestReadLogRejectsNonCanonicalChecksum flips the case of a valid line's
// checksum field, which a lenient hex parse reads as the same value. That
// is damage and must not be served as committed.
func TestReadLogRejectsNonCanonicalChecksum(t *testing.T) {
	line := string(mustEncode(t, []byte(`{"id":"a"}`)))
	if line != "cpwal1 a84a902b {\"id\":\"a\"}\n" {
		t.Fatalf("appendLine changed: %q", line)
	}
	for _, bad := range []string{
		strings.Replace(line, "a84a902b", "A84a902b", 1),
		strings.Replace(line, "a84a902b", "A84A902B", 1),
	} {
		d := readLogBytes(t, []byte(bad))
		if len(d.Payloads) != 0 || !d.Torn || d.TornLine != 1 {
			t.Errorf("%q: served %d payloads (torn=%v line %d), want the line rejected", bad, len(d.Payloads), d.Torn, d.TornLine)
		}
	}
	if d := readLogBytes(t, []byte(line)); len(d.Payloads) != 1 || d.Torn {
		t.Fatalf("canonical line rejected: %+v", d)
	}
}

// FuzzReadLog feeds arbitrary journal bytes to ReadLog. It must never
// panic; every payload it serves must re-encode to exactly the line it was
// read from, in order from the start of the file; and a journal of valid
// lines followed by arbitrary bytes must serve at least those lines.
func FuzzReadLog(f *testing.F) {
	valid := append(mustEncode(f, []byte(`{"id":"a"}`)), mustEncode(f, []byte(`{"id":"b","status":"ok"}`))...)
	f.Add([]byte("one\ntwo\nthree"), []byte(nil))
	f.Add([]byte(`{"id":"a"}`), valid[:len(valid)-5])                                     // torn tail
	f.Add([]byte(""), append(append([]byte("cpwal1 deadbeef x\n"), valid...), "junk"...)) // damage between valid lines
	f.Add([]byte(`{"id":"a"}`), bytes.Replace(valid, []byte("a84a902b"), []byte("A84a902b"), 1))
	f.Add([]byte("p"), []byte("cpwal1 +1234567 p\ncpwal1 12345678\n\n"))

	f.Fuzz(func(t *testing.T, payloads, tail []byte) {
		var want [][]byte
		var journal []byte
		for _, p := range bytes.Split(payloads, []byte("\n")) {
			want = append(want, p)
			journal = append(journal, mustEncode(t, p)...)
		}
		for _, raw := range [][]byte{tail, append(journal, tail...)} {
			d := readLogBytes(t, raw)
			var served []byte
			for _, p := range d.Payloads {
				served = append(served, mustEncode(t, p)...)
			}
			if !bytes.HasPrefix(raw, served) {
				t.Fatalf("served payloads do not re-encode to the journal's prefix:\njournal %q\nserved  %q", raw, served)
			}
		}
		d := readLogBytes(t, append(journal, tail...))
		if len(d.Payloads) < len(want) {
			t.Fatalf("%d valid lines then %q: served only %d", len(want), tail, len(d.Payloads))
		}
		for i, p := range want {
			if !bytes.Equal(d.Payloads[i], p) {
				t.Fatalf("payload %d: got %q want %q", i, d.Payloads[i], p)
			}
		}
	})
}
