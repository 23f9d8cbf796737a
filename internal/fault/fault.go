// Package fault is the simulation's deterministic fault-injection ("chaos")
// subsystem. The paper's attacks only matter because they survive a hostile
// environment — timer-slack variance, IRQ jitter, interfering threads and
// scheduler migrations (§4, Figures 4.5/4.6) — so the reproduction must be
// able to manufacture that hostility on demand. An Injector, seeded from the
// machine seed, decides at well-defined kernel hook points whether to
// perturb the simulation: every decision is drawn from the injector's own
// random stream, so a run with a given seed and fault configuration is
// bit-for-bit reproducible, and disabling injection does not consume any
// randomness (the baseline jitter streams are untouched).
//
// The kernel (internal/kern) consults the injector at two kinds of
// opportunity:
//
//   - Timer arming: when a nanosleep wake or periodic-timer expiry is
//     programmed, the IRQ can be delayed, dropped (recovered only after
//     DropRetry, like a lost interrupt picked up by the next hrtimer
//     reprogram), or — for nanosleep — stretched by a timer-slack spike.
//   - Scheduler checks: on a periodic cadence the injector may demand a
//     spurious wakeup of a blocked thread (EINTR-style early return), a
//     surprise preemption of a running thread by an invisible interfering
//     thread, or a forced cross-core migration of a queued thread.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/rng"
	"repro/internal/timebase"
)

// Kind enumerates the injectable faults.
type Kind uint8

// Fault kinds.
const (
	// DropIRQ loses a timer interrupt; the wake is recovered DropRetry
	// later (the next timer reprogram notices the missed expiry).
	DropIRQ Kind = iota
	// DelayIRQ stretches timer-interrupt delivery by up to IRQDelayMax.
	DelayIRQ
	// SlackSpike adds up to SlackSpikeMax of extra nanosleep slack, as if
	// the kernel momentarily ignored the thread's PR_SET_TIMERSLACK.
	SlackSpike
	// SpuriousWake wakes a blocked thread before its timer or signal
	// arrives (EINTR-style early return from nanosleep/pause).
	SpuriousWake
	// Preempt forces the current thread of a busy core off the CPU, as an
	// interfering thread or long-running interrupt would.
	Preempt
	// Migrate moves a queued, unpinned thread to another core, as an
	// aggressive load balancer would.
	Migrate

	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case DropIRQ:
		return "drop-irq"
	case DelayIRQ:
		return "delay-irq"
	case SlackSpike:
		return "slack-spike"
	case SpuriousWake:
		return "spurious-wake"
	case Preempt:
		return "preempt"
	case Migrate:
		return "migrate"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Kinds returns every injectable kind, in declaration order.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Window restricts injection to a simulated-time interval. A zero End means
// open-ended.
type Window struct {
	Start timebase.Time
	End   timebase.Time
}

// contains reports whether now falls inside the window.
func (w Window) contains(now timebase.Time) bool {
	if now < w.Start {
		return false
	}
	return w.End == 0 || now < w.End
}

// Config tunes an Injector. The zero value disables injection.
type Config struct {
	// Rate is the per-opportunity injection probability in [0, 1]. Every
	// timer arming and every scheduler check is one opportunity. 0
	// disables the injector entirely.
	Rate float64
	// Kinds restricts injection to the listed kinds; nil enables all.
	Kinds []Kind
	// Window restricts injection to a simulated-time interval; the zero
	// window is always active.
	Window Window
	// CheckPeriod is the cadence of scheduler-level fault opportunities
	// (spurious wake, preempt, migrate). Default 100µs.
	CheckPeriod timebase.Duration
	// IRQDelayMax bounds the extra delivery latency of a DelayIRQ fault.
	// Default 25µs.
	IRQDelayMax timebase.Duration
	// SlackSpikeMax bounds the extra slack of a SlackSpike fault. Default
	// 50µs.
	SlackSpikeMax timebase.Duration
	// DropRetry is how late a dropped IRQ is recovered. Default 1ms.
	DropRetry timebase.Duration
}

// Enabled reports whether the configuration injects anything at all.
func (c Config) Enabled() bool { return c.Rate > 0 }

// Validate checks the configuration: Rate must be a probability in [0, 1],
// the duration tunables non-negative, the window ordered, and every listed
// kind known. NewInjector rejects invalid configurations, so a typo'd rate
// fails loudly at machine construction instead of silently clamping (the
// RNG would treat 1.5 as "always" and -0.1 as "never").
func (c Config) Validate() error {
	if math.IsNaN(c.Rate) || c.Rate < 0 || c.Rate > 1 {
		return fmt.Errorf("fault: Rate %v outside [0, 1]", c.Rate)
	}
	if c.CheckPeriod < 0 {
		return fmt.Errorf("fault: negative CheckPeriod %s", c.CheckPeriod)
	}
	if c.IRQDelayMax < 0 {
		return fmt.Errorf("fault: negative IRQDelayMax %s", c.IRQDelayMax)
	}
	if c.SlackSpikeMax < 0 {
		return fmt.Errorf("fault: negative SlackSpikeMax %s", c.SlackSpikeMax)
	}
	if c.DropRetry < 0 {
		return fmt.Errorf("fault: negative DropRetry %s", c.DropRetry)
	}
	if c.Window.End != 0 && c.Window.End < c.Window.Start {
		return fmt.Errorf("fault: window ends (%s) before it starts (%s)", c.Window.End, c.Window.Start)
	}
	for _, k := range c.Kinds {
		if k >= numKinds {
			return fmt.Errorf("fault: unknown kind %d", uint8(k))
		}
	}
	return nil
}

// withDefaults fills zero tunables.
func (c Config) withDefaults() Config {
	if c.CheckPeriod <= 0 {
		c.CheckPeriod = 100 * timebase.Microsecond
	}
	if c.IRQDelayMax <= 0 {
		c.IRQDelayMax = 25 * timebase.Microsecond
	}
	if c.SlackSpikeMax <= 0 {
		c.SlackSpikeMax = 50 * timebase.Microsecond
	}
	if c.DropRetry <= 0 {
		c.DropRetry = timebase.Millisecond
	}
	return c
}

// Injector makes the injection decisions for one machine. It is not safe
// for concurrent use; the simulation kernel drives it from its
// single-threaded event loop.
type Injector struct {
	cfg     Config
	rng     *rng.RNG
	enabled [numKinds]bool
	counts  [numKinds]int64
}

// NewInjector builds an injector from a configuration and a dedicated
// random stream (fork it from the machine seed so faults are reproducible).
// It rejects invalid configurations (see Config.Validate).
func NewInjector(cfg Config, r *rng.RNG) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{cfg: cfg.withDefaults(), rng: r}
	if len(cfg.Kinds) == 0 {
		for i := range in.enabled {
			in.enabled[i] = true
		}
	} else {
		for _, k := range cfg.Kinds {
			if k < numKinds {
				in.enabled[k] = true
			}
		}
	}
	return in, nil
}

// MustNewInjector is NewInjector for known-good configurations (tests).
func MustNewInjector(cfg Config, r *rng.RNG) *Injector {
	in, err := NewInjector(cfg, r)
	if err != nil {
		panic(err)
	}
	return in
}

// Config returns the injector's (defaulted) configuration.
func (in *Injector) Config() Config { return in.cfg }

// CheckPeriod returns the scheduler-check cadence.
func (in *Injector) CheckPeriod() timebase.Duration { return in.cfg.CheckPeriod }

// roll gates one opportunity at now and uniformly picks one of the enabled
// kinds among candidates. It returns false when the opportunity passes
// clean. The random stream advances identically whether or not any
// candidate kind is enabled, so narrowing Kinds does not shift later
// decisions.
func (in *Injector) roll(now timebase.Time, candidates ...Kind) (Kind, bool) {
	if !in.cfg.Enabled() || !in.cfg.Window.contains(now) {
		return 0, false
	}
	hit := in.rng.Bool(in.cfg.Rate)
	pick := candidates[in.rng.Intn(len(candidates))]
	if !hit || !in.enabled[pick] {
		return 0, false
	}
	return pick, true
}

// record notes that a fault of kind k was actually applied.
func (in *Injector) record(k Kind) { in.counts[k]++ }

// NanosleepFault decides the fate of a nanosleep timer being armed at now:
// the returned duration is added to the wake's delivery time. The kind is
// recorded immediately (the fault always applies).
func (in *Injector) NanosleepFault(now timebase.Time) (Kind, timebase.Duration, bool) {
	k, ok := in.roll(now, DropIRQ, DelayIRQ, SlackSpike)
	if !ok {
		return 0, 0, false
	}
	in.record(k)
	switch k {
	case DropIRQ:
		return k, in.cfg.DropRetry, true
	case DelayIRQ:
		return k, timebase.Duration(in.rng.Int63n(int64(in.cfg.IRQDelayMax)) + 1), true
	default: // SlackSpike
		return k, timebase.Duration(in.rng.Int63n(int64(in.cfg.SlackSpikeMax)) + 1), true
	}
}

// PeriodicTimerFault decides the fate of a periodic-timer expiry being
// armed at now. A DropIRQ means the expiry is swallowed entirely (the timer
// cadence continues); a DelayIRQ returns extra delivery latency. The kind
// is recorded immediately.
func (in *Injector) PeriodicTimerFault(now timebase.Time) (Kind, timebase.Duration, bool) {
	k, ok := in.roll(now, DropIRQ, DelayIRQ)
	if !ok {
		return 0, 0, false
	}
	in.record(k)
	if k == DropIRQ {
		return k, 0, true
	}
	return k, timebase.Duration(in.rng.Int63n(int64(in.cfg.IRQDelayMax)) + 1), true
}

// SchedFault gates one scheduler-level opportunity at now. The caller
// applies the fault and must call Record only if a target existed (so
// counts reflect faults that actually happened).
func (in *Injector) SchedFault(now timebase.Time) (Kind, bool) {
	return in.roll(now, SpuriousWake, Preempt, Migrate)
}

// Record notes an applied scheduler-level fault.
func (in *Injector) Record(k Kind) { in.record(k) }

// Pick returns a uniform integer in [0, n), from the injector's stream
// (target selection for scheduler faults).
func (in *Injector) Pick(n int) int { return in.rng.Intn(n) }

// Count returns how many faults of kind k were applied.
func (in *Injector) Count(k Kind) int64 { return in.counts[k] }

// Total returns the number of applied faults across all kinds.
func (in *Injector) Total() int64 {
	var t int64
	for _, c := range in.counts {
		t += c
	}
	return t
}

// Counts returns the applied-fault counters, keyed by kind name. Kinds with
// zero counts are included so reports are shape-stable.
func (in *Injector) Counts() map[string]int64 {
	out := make(map[string]int64, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		out[k.String()] = in.counts[k]
	}
	return out
}

// CountsString renders the applied-fault counters as "kind=n" pairs in
// sorted kind-name order — the canonical byte-stable form for invariant
// dumps and chaos summaries (never iterate the Counts map for output).
func (in *Injector) CountsString() string {
	counts := in.Counts()
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, name := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", name, counts[name])
	}
	return b.String()
}
