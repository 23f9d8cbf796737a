package base64

import (
	"bytes"
	stdb64 "encoding/base64"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestEncodeMatchesStdlib(t *testing.T) {
	f := func(data []byte) bool {
		return Encode(data) == stdb64.StdEncoding.EncodeToString(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		got, _, err := Decode(Encode(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeWithNewlines(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog, twice over")
	b64 := Encode(data)
	// Wrap at 20 chars to force newline handling inside chunks.
	var wrapped strings.Builder
	for i := 0; i < len(b64); i += 20 {
		j := i + 20
		if j > len(b64) {
			j = len(b64)
		}
		wrapped.WriteString(b64[i:j])
		wrapped.WriteByte('\n')
	}
	got, _, err := Decode(wrapped.String())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("decode with newlines = %q", got)
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	if _, _, err := Decode("AB*D"); err == nil {
		t.Fatal("want error for invalid character")
	}
	if _, _, err := Decode("AB\x80D"); err == nil {
		t.Fatal("want error for non-ASCII byte")
	}
}

func TestTracePhasesAndLines(t *testing.T) {
	in := Encode([]byte("hello world, this input spans multiple 64-char chunks for sure....."))
	_, trace, err := Decode(in)
	if err != nil {
		t.Fatal(err)
	}
	// Every character is accessed once per phase.
	var v, d int
	for _, a := range trace {
		if a.Char != in[a.Pos] {
			t.Fatalf("access pos %d char %q, input has %q", a.Pos, a.Char, in[a.Pos])
		}
		if a.Line != int(a.Char>>6) {
			t.Fatalf("access line %d for char %#x", a.Line, a.Char)
		}
		if a.Phase == PhaseValidity {
			v++
		} else {
			d++
		}
	}
	if v != len(in) {
		t.Fatalf("validity accesses = %d, want %d", v, len(in))
	}
	if d == 0 || d > len(in) {
		t.Fatalf("decode accesses = %d", d)
	}
	// Within a chunk, all validity accesses precede all decode accesses.
	lastPhase := map[int]Phase{}
	for _, a := range trace {
		if lastPhase[a.Chunk] == PhaseDecode && a.Phase == PhaseValidity {
			t.Fatalf("validity access after decode in chunk %d", a.Chunk)
		}
		lastPhase[a.Chunk] = a.Phase
	}
}

func TestLineBitsMatchTrace(t *testing.T) {
	in := Encode([]byte("0123456789 abcdefghijklmnop QRSTUV"))
	bits := LineBits(in)
	_, trace, _ := Decode(in)
	for _, a := range ValidityAccesses(trace) {
		if bits[a.Pos] != a.Line {
			t.Fatalf("LineBits[%d]=%d, trace line=%d", a.Pos, bits[a.Pos], a.Line)
		}
	}
}

func TestBuildProgram(t *testing.T) {
	in := Encode([]byte("some key material bytes here"))
	prog, trace, err := BuildProgram(in, DefaultLayout, DefaultBuildOptions)
	if err != nil {
		t.Fatal(err)
	}
	var loads, fences int
	for _, inst := range prog.Insts {
		switch inst.Kind {
		case isa.Load:
			loads++
			want := DefaultLayout.EntryAddr(trace[loads-1].Char)
			if inst.Mem != want {
				t.Fatalf("load %d at %#x, want %#x", loads-1, inst.Mem, want)
			}
		case isa.Fence:
			fences++
		}
	}
	if loads != len(trace) {
		t.Fatalf("loads = %d, want %d", loads, len(trace))
	}
	if fences != loads {
		t.Fatalf("LVI mitigation: fences = %d, want one per load (%d)", fences, loads)
	}
	// Validity and decode loads come from different code lines.
	if DefaultLayout.ValidityCode>>6 == DefaultLayout.DecodeCode>>6 {
		t.Fatal("layout places both loops on one cache line")
	}
	// The stream is sized up front, with and without the LVI fences.
	for _, opt := range []BuildOptions{DefaultBuildOptions, {ValidityALU: 3, DecodeALU: 5, GlueALU: 2}} {
		prog, _, err := BuildProgram(in, DefaultLayout, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(prog.Insts) != cap(prog.Insts) {
			t.Fatalf("%+v: %d instructions emitted into a stream sized for %d", opt, len(prog.Insts), cap(prog.Insts))
		}
	}
}

func TestLUTGeometry(t *testing.T) {
	if LUTLines != 2 {
		t.Fatalf("LUT spans %d lines, want 2", LUTLines)
	}
	// Alphabet line split: 'A'..'z' on line 1, digits and symbols line 0.
	if 'A'>>6 != 1 || 'z'>>6 != 1 || '0'>>6 != 0 || '+'>>6 != 0 || '='>>6 != 0 || '\n'>>6 != 0 {
		t.Fatal("unexpected line split")
	}
}
