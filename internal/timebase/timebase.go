// Package timebase defines the simulated clock used throughout the
// reproduction. All scheduler, timer and microarchitecture code operates on
// simulated nanoseconds; wall-clock time never enters the simulation, which
// is what makes every experiment deterministic and replayable.
package timebase

import (
	"fmt"
	"math/bits"
)

// Time is an absolute instant on the simulated clock, in nanoseconds since
// machine power-on. Time zero is the moment the simulated machine starts.
type Time int64

// Duration is a span of simulated time in nanoseconds. It deliberately
// mirrors time.Duration's base unit so constants read naturally.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Never is a sentinel Time later than any instant a simulation can reach.
const Never Time = 1<<63 - 1

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Seconds returns the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros returns the duration as floating-point microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// Millis returns the duration as floating-point milliseconds.
func (d Duration) Millis() float64 { return float64(d) / float64(Millisecond) }

// String renders a duration with an adaptive unit, e.g. "12.5µs" or "24ms".
func (d Duration) String() string {
	switch {
	case d < 0:
		return "-" + (-d).String()
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return trimZeros(fmt.Sprintf("%.3f", d.Micros())) + "µs"
	case d < Second:
		return trimZeros(fmt.Sprintf("%.3f", d.Millis())) + "ms"
	default:
		return trimZeros(fmt.Sprintf("%.3f", d.Seconds())) + "s"
	}
}

// String renders an absolute time as the duration since power-on.
func (t Time) String() string { return Duration(t).String() }

func trimZeros(s string) string {
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}

// Clock converts between simulated time and CPU cycles at a fixed frequency.
// The reproduction models the paper's i9-9900K at a nominal 4 GHz.
type Clock struct {
	// CyclesPerNano is the core frequency in cycles per nanosecond.
	CyclesPerNano int64
}

// DefaultClock is the 4 GHz clock used by all experiments unless overridden.
var DefaultClock = Clock{CyclesPerNano: 4}

// CyclesToDuration converts a cycle count to simulated time, rounding up (a
// partially used nanosecond is still spent). A power-of-two frequency shifts
// instead of dividing: on a non-negative dividend both round the same way.
func (c Clock) CyclesToDuration(cycles int64) Duration {
	n, up := c.CyclesPerNano, cycles+c.CyclesPerNano-1
	switch {
	case n <= 0:
		return Duration(cycles)
	case up >= 0 && n&(n-1) == 0:
		return Duration(up >> bits.TrailingZeros64(uint64(n)))
	}
	return Duration(up / n)
}

// DurationToCycles converts simulated time to a cycle count.
func (c Clock) DurationToCycles(d Duration) int64 {
	if c.CyclesPerNano <= 0 {
		return int64(d)
	}
	return int64(d) * c.CyclesPerNano
}

// MinDuration returns the smaller of a and b.
func MinDuration(a, b Duration) Duration {
	if a < b {
		return a
	}
	return b
}

// MaxDuration returns the larger of a and b.
func MaxDuration(a, b Duration) Duration {
	if a > b {
		return a
	}
	return b
}

// MinTime returns the earlier of a and b.
func MinTime(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// MaxTime returns the later of a and b.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
