package durable

// log.go is the append-only entry journal ("WAL") that rides alongside a
// checkpoint manifest as "<manifest>.wal". It is the commit point: an
// entry is committed once its line (carrying its own CRC) is appended and
// fsynced — lines written together share one fsync (Write, then Sync) —
// and the manifest is only a compaction of the journal, written when a
// session ends. The reader validates line by line and stops at the
// first damaged line: a torn tail (the normal shape of a crash
// mid-append) costs only the in-flight entry, never the committed prefix.
//
// Line format (one payload per line, payloads must be newline-free —
// compact JSON in practice):
//
//	cpwal1 <crc32c-of-payload, 8 hex digits> <payload>\n

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// logMagic tags every journal line with the format version.
const logMagic = "cpwal1"

// castagnoli is the CRC-32C table (the checksum used by ext4, btrfs and
// iSCSI — good mixing, hardware support).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the package's canonical checksum (CRC-32C), shared by the
// journal lines and the manifest self-checksum so every integrity check
// in the repo speaks one dialect.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// Log is an append-only CRC-per-line journal at a fixed path.
type Log struct {
	fs   FS
	path string
	perm os.FileMode
	// dirty: lines were written since the last Sync. created: a Write
	// created the file, so the next Sync also fsyncs its directory.
	// exists: this Log has written or reset the file, so no Write needs
	// to Stat it to learn whether it creates it.
	dirty, created, exists bool
	// line is the encoding buffer, reused by every Write.
	line []byte
}

// NewLog returns a journal handle at path. Nothing is touched until
// Reset or Append.
func NewLog(f FS, path string) *Log {
	return &Log{fs: f, path: path, perm: 0o644}
}

// Path returns the journal's file path.
func (l *Log) Path() string { return l.path }

// appendLine appends the journal line for payload to b.
func appendLine(b, payload []byte) ([]byte, error) {
	if bytes.IndexByte(payload, '\n') >= 0 {
		return b, fmt.Errorf("durable: journal payload contains a newline")
	}
	b = append(b, logMagic+" "...)
	b = appendHex32(b, crc32.Checksum(payload, castagnoli))
	b = append(b, ' ')
	b = append(b, payload...)
	return append(b, '\n'), nil
}

// appendHex32 appends v as eight lower-case hex digits.
func appendHex32(b []byte, v uint32) []byte {
	const digits = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, digits[v>>shift&0xf])
	}
	return b
}

// Reset atomically rewrites the whole journal to exactly the given
// payloads (write tmp + fsync + rename + fsync dir). It is how a fresh
// campaign opens its journal and how repair resynchronizes a journal that
// fell behind its manifest or was torn.
func (l *Log) Reset(payloads ...[]byte) error {
	var buf []byte
	for _, p := range payloads {
		var err error
		if buf, err = appendLine(buf, p); err != nil {
			return err
		}
	}
	if err := WriteFileAtomic(l.fs, l.path, buf, l.perm); err != nil {
		return err
	}
	l.dirty, l.created, l.exists = false, false, true
	return nil
}

// Append durably appends one payload: Write, then Sync.
func (l *Log) Append(payload []byte) error {
	if err := l.Write(payload); err != nil {
		return err
	}
	return l.Sync()
}

// Write appends one payload's line without making it durable: it is
// committed only by the next Sync, so several writes can share one fsync.
// A failed write does not by itself make the next Sync fsync.
func (l *Log) Write(payload []byte) error {
	line, err := appendLine(l.line[:0], payload)
	if err != nil {
		return err
	}
	l.line = line
	created := false
	if !l.exists {
		if _, err := l.fs.Stat(l.path); err != nil {
			created = true
		}
	}
	if err := l.fs.Append(l.path, line, l.perm); err != nil {
		return fmt.Errorf("durable: append %s: %w", l.path, err)
	}
	l.dirty, l.exists = true, true
	l.created = l.created || created
	return nil
}

// Sync commits every line written since the last Sync: fsync the file,
// and its directory when a Write created it, so a journal created by
// appends alone survives a crash. With nothing written it does nothing.
func (l *Log) Sync() error {
	if !l.dirty {
		return nil
	}
	if err := l.fs.Sync(l.path); err != nil {
		return fmt.Errorf("durable: fsync %s: %w", l.path, err)
	}
	if l.created {
		if err := l.fs.SyncDir(filepath.Dir(l.path)); err != nil {
			return fmt.Errorf("durable: fsync dir of %s: %w", l.path, err)
		}
	}
	l.dirty, l.created = false, false
	return nil
}

// LogData is what ReadLog recovered from a journal.
type LogData struct {
	// Payloads are the validated payloads, in append order.
	Payloads [][]byte
	// Torn reports that validation stopped before the end of the file: a
	// truncated, CRC-damaged or malformed line was found, and everything
	// from it on was discarded. The payloads above are the longest valid
	// committed prefix.
	Torn bool
	// TornLine is the 1-based line number validation stopped at (0 when
	// the whole journal was valid).
	TornLine int
	// TornReason says why that line failed.
	TornReason string
	// TornTail reports the damaged line was the file's last — the shape a
	// crash mid-append leaves — rather than damage with lines after it.
	TornTail bool
}

// ReadLog reads and validates a journal, returning the longest valid
// prefix of payloads. A missing journal returns fs.ErrNotExist. Damage
// never returns an error: the journal's whole job is to survive torn
// tails, so damage is reported in LogData.Torn and the valid prefix is
// still served.
func ReadLog(f FS, path string) (*LogData, error) {
	raw, err := f.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d := &LogData{}
	lineNo := 0
	for len(raw) > 0 {
		lineNo++
		nl := bytes.IndexByte(raw, '\n')
		if nl < 0 {
			// No trailing newline: a torn final append.
			d.Torn, d.TornLine, d.TornReason, d.TornTail = true, lineNo, "truncated line (no newline)", true
			return d, nil
		}
		line := raw[:nl]
		raw = raw[nl+1:]
		payload, reason := decodeLine(line)
		if reason != "" {
			d.Torn, d.TornLine, d.TornReason, d.TornTail = true, lineNo, reason, len(raw) == 0
			return d, nil
		}
		d.Payloads = append(d.Payloads, payload)
	}
	return d, nil
}

// decodeLine validates one journal line, returning the payload or a
// non-empty reason.
func decodeLine(line []byte) ([]byte, string) {
	rest, ok := bytes.CutPrefix(line, []byte(logMagic+" "))
	if !ok {
		return nil, fmt.Sprintf("bad magic (want %q)", logMagic)
	}
	sp := bytes.IndexByte(rest, ' ')
	if sp != 8 {
		return nil, "malformed checksum field"
	}
	// The field must be byte-equal to what appendLine writes: a lenient
	// hex parse accepts a case flip, so a damaged checksum field could
	// still validate.
	field, payload := rest[:8], rest[9:]
	var buf [8]byte
	canon := appendHex32(buf[:0], crc32.Checksum(payload, castagnoli))
	if !bytes.Equal(field, canon) {
		return nil, fmt.Sprintf("checksum mismatch (want %q, got %s)", field, string(canon))
	}
	return payload, ""
}
