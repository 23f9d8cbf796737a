package timebase

import (
	"testing"
	"testing/quick"
)

func TestDurationString(t *testing.T) {
	cases := map[Duration]string{
		0:                    "0ns",
		530 * Nanosecond:     "530ns",
		1500 * Nanosecond:    "1.5µs",
		12 * Microsecond:     "12µs",
		12500 * Nanosecond:   "12.5µs",
		3 * Millisecond:      "3ms",
		24 * Millisecond:     "24ms",
		5 * Second:           "5s",
		-1500 * Nanosecond:   "-1.5µs",
		1234567 * Nanosecond: "1.235ms",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(d), got, want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(1000)
	b := a.Add(500 * Nanosecond)
	if b != 1500 {
		t.Fatalf("Add = %d", b)
	}
	if b.Sub(a) != 500 {
		t.Fatalf("Sub = %d", b.Sub(a))
	}
	if !a.Before(b) || !b.After(a) || a.After(b) {
		t.Fatal("ordering broken")
	}
}

func TestUnitConversions(t *testing.T) {
	d := 1500 * Microsecond
	if d.Millis() != 1.5 {
		t.Fatalf("Millis = %f", d.Millis())
	}
	if d.Micros() != 1500 {
		t.Fatalf("Micros = %f", d.Micros())
	}
	if (2 * Second).Seconds() != 2 {
		t.Fatal("Seconds broken")
	}
}

func TestClockRoundTrip(t *testing.T) {
	c := DefaultClock
	if c.CyclesPerNano != 4 {
		t.Fatalf("default clock = %d", c.CyclesPerNano)
	}
	if c.DurationToCycles(10*Nanosecond) != 40 {
		t.Fatal("DurationToCycles broken")
	}
	// Rounds up: a single cycle still consumes a nanosecond.
	if c.CyclesToDuration(1) != 1 {
		t.Fatalf("CyclesToDuration(1) = %d", c.CyclesToDuration(1))
	}
	if c.CyclesToDuration(8) != 2 {
		t.Fatalf("CyclesToDuration(8) = %d", c.CyclesToDuration(8))
	}
	f := func(cyc uint16) bool {
		d := c.CyclesToDuration(int64(cyc))
		// Never undercounts.
		return int64(d)*c.CyclesPerNano >= int64(cyc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroClockFallsBack(t *testing.T) {
	var c Clock
	if c.CyclesToDuration(7) != 7 || c.DurationToCycles(7) != 7 {
		t.Fatal("zero clock should be identity")
	}
}

func TestMinMax(t *testing.T) {
	if MinDuration(1, 2) != 1 || MaxDuration(1, 2) != 2 {
		t.Fatal("duration min/max")
	}
	if MinTime(1, 2) != 1 || MaxTime(1, 2) != 2 {
		t.Fatal("time min/max")
	}
}

// TestCyclesToDurationMatchesDivision pins the shift path against the
// division it replaces. Every count in [0, 1<<16] is checked exhaustively
// for each frequency in 1..16 (powers of two shift, the rest divide): the
// largest single conversion the models make, a cold first fetch plus a
// 1400-cycle walk plus a 220-cycle miss plus the timestamp cost, is far
// below 1<<16. Large and negative counts, where the rounded-up dividend is
// negative or overflows, must keep the division's truncation too.
func TestCyclesToDurationMatchesDivision(t *testing.T) {
	edges := []int64{-1 << 63, -1<<63 + 1, -1 << 40, -65537, -17, -4, -3, -2, -1,
		1<<62 - 1, 1 << 62, 1<<63 - 16, 1<<63 - 4, 1<<63 - 2, 1<<63 - 1}
	for n := int64(1); n <= 16; n++ {
		c := Clock{CyclesPerNano: n}
		for cyc := int64(0); cyc <= 1<<16; cyc++ {
			if got, want := c.CyclesToDuration(cyc), Duration((cyc+n-1)/n); got != want {
				t.Fatalf("n=%d: CyclesToDuration(%d) = %d, want %d", n, cyc, got, want)
			}
		}
		for _, cyc := range edges {
			if got, want := c.CyclesToDuration(cyc), Duration((cyc+n-1)/n); got != want {
				t.Fatalf("n=%d: CyclesToDuration(%d) = %d, want %d", n, cyc, got, want)
			}
		}
	}
	for _, n := range []int64{0, -1, -4, -1 << 63} {
		c := Clock{CyclesPerNano: n}
		for _, cyc := range append(edges, 0, 1, 4, 1<<16) {
			if got := c.CyclesToDuration(cyc); got != Duration(cyc) {
				t.Fatalf("n=%d: CyclesToDuration(%d) = %d, want the identity", n, cyc, got)
			}
		}
	}
}
