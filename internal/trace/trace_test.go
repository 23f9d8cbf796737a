package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/timebase"
)

// sample builds a small two-machine trace exercising every event kind.
func sample() *Trace {
	return &Trace{
		Exp:  "fig4.1",
		Seed: 7,
		Events: []Event{
			{Kind: EvMachine, Seed: 7, Label: "CFS"},
			{Kind: EvSchedIn, Thread: 1, Name: "victim", Core: 0, At: 100, Start: 1562, Vruntime: 0},
			{Kind: EvWake, Thread: 2, Name: "attacker", Core: 0, At: 7_000_000, Preempted: true, Curr: 1, Vruntime: -8_500_000, CurrVruntime: 3_500_000},
			{Kind: EvSchedOut, Thread: 1, Name: "victim", Core: 0, At: 7_000_000, Reason: "wakeup-preempt", Retired: 186_000, Vruntime: 3_500_000},
			{Kind: EvMachine, Seed: 8, Label: "EEVDF"},
			{Kind: EvSchedIn, Thread: 1, Name: "victim", Core: 3, At: 0, Start: 1462, Vruntime: 12},
			{Kind: EvWake, Thread: 3, Name: "idle wake", Core: 3, At: 55, Preempted: false, Curr: -1},
		},
		Result: []string{"fig4.1 — vruntime gap", "  row 1", "", "  row 2"},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := sample()
	var buf bytes.Buffer
	if err := want.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Exp != want.Exp || got.Seed != want.Seed || got.Truncated != want.Truncated {
		t.Fatalf("header round-trip: got %q/%d/%v", got.Exp, got.Seed, got.Truncated)
	}
	if len(got.Events) != len(want.Events) {
		t.Fatalf("event count %d, want %d", len(got.Events), len(want.Events))
	}
	for i := range want.Events {
		we := want.Events[i]
		// Labels/names with spaces are sanitized on encode; compare through
		// the canonical render.
		if got.Events[i].String() != we.String() {
			t.Errorf("event %d: got %s, want %s", i, got.Events[i].String(), we.String())
		}
	}
	if len(got.Result) != len(want.Result) {
		t.Fatalf("result count %d, want %d", len(got.Result), len(want.Result))
	}
	for i := range want.Result {
		if got.Result[i] != want.Result[i] {
			t.Errorf("result %d: got %q, want %q", i, got.Result[i], want.Result[i])
		}
	}
}

func TestWriteReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.cptrace")
	want := sample()
	want.Truncated = true
	if err := want.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Truncated {
		t.Fatal("truncated flag lost")
	}
	if d := Diff(got, roundTrip(t, want)); d != nil {
		t.Fatalf("file round-trip diverges:\n%s", d)
	}
}

// roundTrip normalizes a trace through encode/decode so sanitized labels
// compare equal.
func roundTrip(t *testing.T, tr *Trace) *Trace {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDecodeRejectsBadInput(t *testing.T) {
	cases := []string{
		"",
		"cptrace v2 exp=x seed=1\n",
		"not a trace\n",
		"cptrace v1 exp=x seed=1\nZ th=1:a core=0\n",
		"cptrace v1 exp=x seed=1\nI th=1 core=0\n",
		"cptrace v1 exp=x seed=1\nI th=1:a core=zero\n",
		"cptrace v1 exp=x seed=1\nI th=1:a bogus=3\n",
	}
	for _, c := range cases {
		if _, err := Decode(strings.NewReader(c)); err == nil {
			t.Errorf("Decode(%q) succeeded, want error", c)
		}
	}
}

func TestDiffIdentical(t *testing.T) {
	a, b := roundTrip(t, sample()), roundTrip(t, sample())
	if d := Diff(a, b); d != nil {
		t.Fatalf("identical traces diverge:\n%s", d)
	}
}

func TestDiffFirstDivergentEvent(t *testing.T) {
	a, b := roundTrip(t, sample()), roundTrip(t, sample())
	// Perturb one vruntime mid-trace: Diff must name the exact index, carry
	// both renders, and reconstruct the machine state from the golden prefix.
	a.Events[3].Vruntime += 999
	d := Diff(a, b)
	if d == nil {
		t.Fatal("no divergence found")
	}
	if d.Kind != "event" || d.Index != 3 {
		t.Fatalf("divergence at %s %d, want event 3", d.Kind, d.Index)
	}
	if !strings.Contains(d.Got, "vrt=3500999") || !strings.Contains(d.Want, "vrt=3500000") {
		t.Fatalf("divergent events not rendered: got %q want %q", d.Got, d.Want)
	}
	rep := d.String()
	for _, frag := range []string{
		"diverges at event 3",
		">[     3]",
		"machine state at divergence",
		"machine seed=7 label=CFS",
		"thread 1:victim",
	} {
		if !strings.Contains(rep, frag) {
			t.Errorf("report missing %q:\n%s", frag, rep)
		}
	}
}

func TestDiffSeedMismatch(t *testing.T) {
	a, b := sample(), sample()
	b.Seed = 99
	d := Diff(a, b)
	if d == nil || d.Kind != "header" {
		t.Fatalf("seed mismatch: %+v", d)
	}
}

func TestDiffEventCount(t *testing.T) {
	a, b := roundTrip(t, sample()), roundTrip(t, sample())
	a.Events = a.Events[:len(a.Events)-2]
	d := Diff(a, b)
	if d == nil || d.Kind != "event-count" {
		t.Fatalf("missing events: %+v", d)
	}
	if d.Got != "" || d.Want == "" {
		t.Fatalf("event-count divergence sides: got %q want %q", d.Got, d.Want)
	}
}

func TestDiffTruncatedPrefixOK(t *testing.T) {
	a, b := roundTrip(t, sample()), roundTrip(t, sample())
	// A truncated re-recording that stops early matches as long as its
	// prefix and the full rendered result agree.
	a.Events = a.Events[:3]
	a.Truncated = true
	if d := Diff(a, b); d != nil {
		t.Fatalf("truncated prefix diverges:\n%s", d)
	}
	// But a divergence inside the prefix is still caught.
	a.Events[1].Core = 9
	if d := Diff(a, b); d == nil || d.Kind != "event" || d.Index != 1 {
		t.Fatalf("prefix divergence missed: %+v", d)
	}
}

func TestDiffResultLines(t *testing.T) {
	a, b := roundTrip(t, sample()), roundTrip(t, sample())
	a.Result[2] = "  changed"
	d := Diff(a, b)
	if d == nil || d.Kind != "result" || d.Index != 2 {
		t.Fatalf("result divergence: %+v", d)
	}
	a, b = roundTrip(t, sample()), roundTrip(t, sample())
	a.Result = a.Result[:1]
	// Result lines are compared in full even for truncated traces.
	a.Truncated = true
	if d := Diff(a, b); d == nil || d.Kind != "result-count" {
		t.Fatalf("result-count divergence: %+v", d)
	}
}

func TestCollectorCapAndTruncation(t *testing.T) {
	c := NewCollector(2)
	c.add(Event{Kind: EvWake, At: timebase.Time(0)})
	if len(c.Events()) != 1 || c.Truncated() {
		t.Fatalf("collector under cap: %d events, truncated=%v", len(c.Events()), c.Truncated())
	}
	c.add(Event{Kind: EvWake, At: timebase.Time(1)})
	c.add(Event{Kind: EvWake, At: timebase.Time(2)})
	if len(c.Events()) != 2 || !c.Truncated() {
		t.Fatalf("collector over cap: %d events, truncated=%v", len(c.Events()), c.Truncated())
	}
	unbounded := NewCollector(0)
	for i := 0; i < 100; i++ {
		unbounded.add(Event{Kind: EvWake, At: timebase.Time(i)})
	}
	if len(unbounded.Events()) != 100 || unbounded.Truncated() {
		t.Fatalf("unbounded collector: %d events, truncated=%v", len(unbounded.Events()), unbounded.Truncated())
	}
}

// checkRoundTrip asserts that re-encoding a decoded trace is the identity:
// Decode(Encode(t)) matches t under Diff, and a second encode is
// byte-stable.
func checkRoundTrip(t *testing.T, tr *Trace) {
	t.Helper()
	var first, second bytes.Buffer
	if err := tr.Encode(&first); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("re-decoding an encoded trace: %v\n%s", err, first.Bytes())
	}
	if d := Diff(back, tr); d != nil {
		t.Fatalf("Decode(Encode(t)) diverges from t:\n%s", d)
	}
	if err := back.Encode(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-encoding is not byte-stable:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
	}
}

// TestDecodeStoresCanonicalForm covers inputs the encoder never writes but
// Decode accepts: empty or '='-bearing names and labels, fields foreign to
// the event kind, and stacked CRs. Decode must store what Encode would
// write back, or Diff reports divergences whose two sides render alike.
func TestDecodeStoresCanonicalForm(t *testing.T) {
	for _, in := range []string{
		"cptrace v1 exp=x seed=1\nO th=1:\n",
		"cptrace v1 exp=x seed=1\nI th=1:a=b core=0\n",
		"cptrace v1 exp=x seed=1\nO th=1:a reason= ret=3\n",
		"cptrace v1 exp=x seed=1\nM seed=2\n",
		"cptrace v1 exp=x seed=1\nM seed=2 label=a=b th=4:x core=3\n",
		"cptrace v1 exp=x seed=1\nW th=1:a start=9 ret=4 reason=r\n",
		"cptrace v1 exp=a=b seed=1\n",
		"cptrace v1 exp= seed=1\n",
		"cptrace v1 exp=x seed=1\nR row\r\r\n",
	} {
		tr, err := Decode(strings.NewReader(in))
		if err != nil {
			t.Fatalf("Decode(%q): %v", in, err)
		}
		checkRoundTrip(t, tr)
	}
}

// FuzzTraceDecode: Decode never panics, and every trace it accepts
// survives an encode/decode round trip unchanged. Seeds are the committed
// golden traces.
func FuzzTraceDecode(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.cptrace"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no golden seeds: %v", err)
	}
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("cptrace v1 exp=x seed=1\nO th=1:\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkRoundTrip(t, tr)
	})
}
