// Package defense is the simulation's countermeasure ("defense wing")
// subsystem: pluggable, composable scheduler/timer hardening installed into
// kern.Machine via hook points on the timer and scheduler paths. Where
// package fault manufactures hostility to show the attack survives it, this
// package models the defenses a kernel could deploy against Controlled
// Preemption itself, so every attack becomes a row in a defense-efficacy
// matrix:
//
//   - Timer-slack randomization (PreFence-flavored): extra uniform delay on
//     nanosleep delivery and periodic-timer expiry, drawn from a dedicated
//     stream forked off the machine seed, defeating the 1ns-slack precision
//     of §4.2 while staying bit-reproducible per seed.
//   - Wake-placement noise: a waking unpinned thread is probabilistically
//     re-placed on another core, breaking the attacker's same-core wakeup
//     preemption (Equation 2.2 never fires cross-core).
//   - Per-task preemption-budget caps: a task may win at most PreemptCap
//     wakeup preemptions per PreemptWindow; further wins are vetoed, so the
//     §4.1 nap loop starves after a bounded burst.
//   - SchedGuard-style core cordoning (Chen et al.): listed cores are
//     reserved for threads whose names match an allow prefix — pinning onto
//     a cordoned core is rejected, placement avoids it, and the load
//     balancer (periodic, newly-idle, and injected migrations alike)
//     refuses to move foreign threads there.
//
// Inertness is the hard contract: a nil *Set is a valid no-op whose hook
// methods cost zero allocations and consume no randomness, so a machine
// with no defense installed runs byte-identical to one built before this
// package existed.
package defense

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/timebase"
)

// Config tunes a defense Set. The zero value disables every countermeasure.
// Countermeasures compose: any combination of fields may be set at once.
type Config struct {
	// SlackRandMax, when positive, adds a uniform random delay in
	// (0, SlackRandMax] to every nanosleep wake delivery, regardless of the
	// thread's PR_SET_TIMERSLACK — the kernel refuses to honour 1ns slack.
	SlackRandMax timebase.Duration
	// PeriodicJitterMax, when positive, adds a uniform random delay in
	// (0, PeriodicJitterMax] to every periodic POSIX-timer expiry delivery
	// (wake-up Method 2's channel).
	PeriodicJitterMax timebase.Duration
	// WakeNoiseProb is the probability in [0, 1] that a waking unpinned
	// thread is re-placed on a uniformly random other core instead of its
	// own runqueue. 0 disables wake-placement noise.
	WakeNoiseProb float64
	// PreemptCap, when positive, caps how many wakeup preemptions a single
	// task may win per PreemptWindow; the budget is per task ID over a
	// tumbling window. Excess wakeups still enqueue, they just do not
	// preempt.
	PreemptCap int
	// PreemptWindow is the tumbling-window length for PreemptCap. Default
	// 1ms (one tick period).
	PreemptWindow timebase.Duration
	// CordonCores lists cores reserved for threads matching CordonAllow
	// (SchedGuard-style cordoning). Must leave at least one core
	// uncordoned.
	CordonCores []int
	// CordonAllow lists thread-name prefixes admitted onto cordoned cores.
	// Empty means the cordoned cores accept no thread at all.
	CordonAllow []string
}

// Enabled reports whether the configuration activates any countermeasure.
func (c Config) Enabled() bool {
	return c.SlackRandMax > 0 || c.PeriodicJitterMax > 0 || c.WakeNoiseProb > 0 ||
		c.PreemptCap > 0 || len(c.CordonCores) > 0
}

// Validate checks the configuration field by field. New rejects invalid
// configurations, so a typo'd probability fails loudly at machine
// construction instead of silently misbehaving.
func (c Config) Validate() error {
	if c.SlackRandMax < 0 {
		return fmt.Errorf("defense: negative SlackRandMax %s", c.SlackRandMax)
	}
	if c.PeriodicJitterMax < 0 {
		return fmt.Errorf("defense: negative PeriodicJitterMax %s", c.PeriodicJitterMax)
	}
	if math.IsNaN(c.WakeNoiseProb) || c.WakeNoiseProb < 0 || c.WakeNoiseProb > 1 {
		return fmt.Errorf("defense: WakeNoiseProb %v outside [0, 1]", c.WakeNoiseProb)
	}
	if c.PreemptCap < 0 {
		return fmt.Errorf("defense: negative PreemptCap %d", c.PreemptCap)
	}
	if c.PreemptWindow < 0 {
		return fmt.Errorf("defense: negative PreemptWindow %s", c.PreemptWindow)
	}
	seen := map[int]bool{}
	for _, core := range c.CordonCores {
		if core < 0 {
			return fmt.Errorf("defense: negative cordoned core %d", core)
		}
		if seen[core] {
			return fmt.Errorf("defense: core %d cordoned twice", core)
		}
		seen[core] = true
	}
	for _, prefix := range c.CordonAllow {
		if prefix == "" {
			return fmt.Errorf("defense: empty CordonAllow prefix")
		}
	}
	return nil
}

// withDefaults fills zero tunables.
func (c Config) withDefaults() Config {
	if c.PreemptWindow <= 0 {
		c.PreemptWindow = timebase.Millisecond
	}
	return c
}

// Summary renders the active countermeasures as a deterministic one-line
// description ("off" when nothing is enabled), for span marks and reports.
func (c Config) Summary() string {
	var parts []string
	if c.SlackRandMax > 0 {
		parts = append(parts, fmt.Sprintf("slackrand=%s", c.SlackRandMax))
	}
	if c.PeriodicJitterMax > 0 {
		parts = append(parts, fmt.Sprintf("periodicjitter=%s", c.PeriodicJitterMax))
	}
	if c.WakeNoiseProb > 0 {
		parts = append(parts, fmt.Sprintf("wakenoise=%g", c.WakeNoiseProb))
	}
	if c.PreemptCap > 0 {
		parts = append(parts, fmt.Sprintf("preemptcap=%d/%s", c.PreemptCap, c.withDefaults().PreemptWindow))
	}
	if len(c.CordonCores) > 0 {
		cores := append([]int(nil), c.CordonCores...)
		sort.Ints(cores)
		s := make([]string, len(cores))
		for i, core := range cores {
			s[i] = fmt.Sprintf("%d", core)
		}
		allow := append([]string(nil), c.CordonAllow...)
		sort.Strings(allow)
		parts = append(parts, fmt.Sprintf("cordon=%s:%s", strings.Join(s, ","), strings.Join(allow, ",")))
	}
	if len(parts) == 0 {
		return "off"
	}
	return strings.Join(parts, " ")
}

// Compose merges several configurations into one combined defense: the
// strictest of each knob wins (largest randomization bounds and noise
// probability, smallest non-zero preemption cap and window, union of
// cordons and allow prefixes).
func Compose(cfgs ...Config) Config {
	var out Config
	coreSet := map[int]bool{}
	allowSet := map[string]bool{}
	for _, c := range cfgs {
		if c.SlackRandMax > out.SlackRandMax {
			out.SlackRandMax = c.SlackRandMax
		}
		if c.PeriodicJitterMax > out.PeriodicJitterMax {
			out.PeriodicJitterMax = c.PeriodicJitterMax
		}
		if c.WakeNoiseProb > out.WakeNoiseProb {
			out.WakeNoiseProb = c.WakeNoiseProb
		}
		if c.PreemptCap > 0 && (out.PreemptCap == 0 || c.PreemptCap < out.PreemptCap) {
			out.PreemptCap = c.PreemptCap
		}
		if c.PreemptWindow > 0 && (out.PreemptWindow == 0 || c.PreemptWindow < out.PreemptWindow) {
			out.PreemptWindow = c.PreemptWindow
		}
		for _, core := range c.CordonCores {
			coreSet[core] = true
		}
		for _, p := range c.CordonAllow {
			allowSet[p] = true
		}
	}
	for core := range coreSet {
		out.CordonCores = append(out.CordonCores, core)
	}
	sort.Ints(out.CordonCores)
	for p := range allowSet {
		out.CordonAllow = append(out.CordonAllow, p)
	}
	sort.Strings(out.CordonAllow)
	return out
}

// Preset names, in canonical sweep order (off first, then by mechanism).
var presetNames = []string{"off", "slackrand", "wakenoise", "preemptcap", "cordon"}

// Presets returns the named defense presets in canonical sweep order — the
// column order of the attack-vs-defense matrix.
func Presets() []string {
	return append([]string(nil), presetNames...)
}

// Preset resolves a named defense preset:
//
//	off         no countermeasure (the provably inert baseline)
//	slackrand   PreFence-flavored timer randomization (50µs on both timer paths)
//	wakenoise   25% wake-placement noise
//	preemptcap  at most 8 wakeup-preemption wins per task per 1ms
//	cordon      SchedGuard cordon of core 0, admitting only victim threads
func Preset(name string) (Config, error) {
	switch name {
	case "off":
		return Config{}, nil
	case "slackrand":
		return Config{
			SlackRandMax:      50 * timebase.Microsecond,
			PeriodicJitterMax: 50 * timebase.Microsecond,
		}, nil
	case "wakenoise":
		return Config{WakeNoiseProb: 0.25}, nil
	case "preemptcap":
		return Config{PreemptCap: 8, PreemptWindow: timebase.Millisecond}, nil
	case "cordon":
		return Config{CordonCores: []int{0}, CordonAllow: []string{"victim"}}, nil
	}
	return Config{}, fmt.Errorf("defense: unknown preset %q (known: %s)", name, strings.Join(presetNames, ", "))
}

// Set is one machine's installed defenses. It is not safe for concurrent
// use; the simulation kernel drives it from its single-threaded event loop.
// The nil *Set is a valid no-op: every hook short-circuits without
// allocating or consuming randomness, which is what lets the kernel call
// the hooks unconditionally.
type Set struct {
	cfg   Config
	rng   *rng.RNG
	cores int
	// cordoned[i] reports whether core i is reserved.
	cordoned []bool
	// winStart/winCount implement the per-task tumbling preemption window.
	winStart map[int]timebase.Time
	winCount map[int]int

	// Defense event counters (nil-safe no-op handles when telemetry is
	// off). Write-only: they never feed back into decisions.
	cSlack     *metrics.Counter
	cPeriodic  *metrics.Counter
	cRedirects *metrics.Counter
	cCapped    *metrics.Counter
	cPinReject *metrics.Counter
	cMigDenied *metrics.Counter
}

// New builds the defense set for a machine with the given core count, a
// dedicated random stream (fork it from the machine seed so defended runs
// are reproducible), and a telemetry registry (nil disables the event
// counters). It rejects invalid configurations, including cordons that name
// a core the machine does not have or that leave no core uncordoned. A
// disabled configuration returns (nil, nil): the inert no-op set.
func New(cfg Config, cores int, r *rng.RNG, reg *metrics.Registry) (*Set, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, nil
	}
	if cores <= 0 {
		return nil, fmt.Errorf("defense: machine has %d cores", cores)
	}
	cordoned := make([]bool, cores)
	for _, core := range cfg.CordonCores {
		if core >= cores {
			return nil, fmt.Errorf("defense: cordoned core %d outside machine (%d cores)", core, cores)
		}
		cordoned[core] = true
	}
	if len(cfg.CordonCores) >= cores {
		return nil, fmt.Errorf("defense: cordoning %d of %d cores leaves none free", len(cfg.CordonCores), cores)
	}
	s := &Set{
		cfg:      cfg.withDefaults(),
		rng:      r,
		cores:    cores,
		cordoned: cordoned,
		winStart: map[int]timebase.Time{},
		winCount: map[int]int{},
	}
	s.cSlack = reg.Counter(`defense_timer_delay_total{path="nanosleep"}`)
	s.cPeriodic = reg.Counter(`defense_timer_delay_total{path="periodic"}`)
	s.cRedirects = reg.Counter("defense_wake_redirect_total")
	s.cCapped = reg.Counter("defense_preempt_capped_total")
	s.cPinReject = reg.Counter("defense_pin_rejected_total")
	s.cMigDenied = reg.Counter("defense_migration_denied_total")
	return s, nil
}

// MustNew is New for known-good configurations (tests).
func MustNew(cfg Config, cores int, r *rng.RNG, reg *metrics.Registry) *Set {
	s, err := New(cfg, cores, r, reg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the set's (defaulted) configuration; the zero Config for
// the nil set.
func (s *Set) Config() Config {
	if s == nil {
		return Config{}
	}
	return s.cfg
}

// NanosleepExtra returns the slack-randomization delay to add to a
// nanosleep wake delivery armed at now. 0 (and no randomness consumed) when
// the countermeasure is off.
func (s *Set) NanosleepExtra(now timebase.Time) timebase.Duration {
	if s == nil || s.cfg.SlackRandMax <= 0 {
		return 0
	}
	s.cSlack.Inc()
	return timebase.Duration(s.rng.Int63n(int64(s.cfg.SlackRandMax)) + 1)
}

// PeriodicExtra returns the randomization delay to add to a periodic-timer
// expiry delivery armed at now. 0 when the countermeasure is off.
func (s *Set) PeriodicExtra(now timebase.Time) timebase.Duration {
	if s == nil || s.cfg.PeriodicJitterMax <= 0 {
		return 0
	}
	s.cPeriodic.Inc()
	return timebase.Duration(s.rng.Int63n(int64(s.cfg.PeriodicJitterMax)) + 1)
}

// RedirectWake decides whether a waking unpinned thread named name, homed on
// core, is re-placed elsewhere: it returns the destination core and true on
// a redirect. Cordoned cores the thread is not admitted to are never chosen.
func (s *Set) RedirectWake(name string, core int) (int, bool) {
	if s == nil || s.cfg.WakeNoiseProb <= 0 {
		return 0, false
	}
	if !s.rng.Bool(s.cfg.WakeNoiseProb) {
		return 0, false
	}
	// Enumerate admissible destinations in core order so the uniform pick
	// is deterministic per seed.
	var cands []int
	for c := 0; c < s.cores; c++ {
		if c == core || !s.allowed(name, c) {
			continue
		}
		cands = append(cands, c)
	}
	if len(cands) == 0 {
		return 0, false
	}
	dst := cands[s.rng.Intn(len(cands))]
	s.cRedirects.Inc()
	return dst, true
}

// CapPreempt charges one wakeup-preemption win to taskID at now and reports
// whether the win must be vetoed because the task's budget for the current
// window is already spent. Pure counting: no randomness.
func (s *Set) CapPreempt(taskID int, now timebase.Time) bool {
	if s == nil || s.cfg.PreemptCap <= 0 {
		return false
	}
	if start, ok := s.winStart[taskID]; !ok || now.Sub(start) >= s.cfg.PreemptWindow {
		s.winStart[taskID] = now
		s.winCount[taskID] = 0
	}
	if s.winCount[taskID] >= s.cfg.PreemptCap {
		s.cCapped.Inc()
		return true
	}
	s.winCount[taskID]++
	return false
}

// PinBlocked reports whether pinning the thread named name onto core is
// rejected by a cordon (the sched_setaffinity call fails; the thread stays
// unpinned).
func (s *Set) PinBlocked(name string, core int) bool {
	if s == nil || s.allowed(name, core) {
		return false
	}
	s.cPinReject.Inc()
	return true
}

// CoreAllowed reports whether the thread named name may be placed on (or
// migrated to) core. The nil set allows everything.
func (s *Set) CoreAllowed(name string, core int) bool {
	return s == nil || s.allowed(name, core)
}

// DenyMigration records a load-balancer migration the cordon refused, for
// telemetry.
func (s *Set) DenyMigration() {
	if s != nil {
		s.cMigDenied.Inc()
	}
}

// allowed implements the cordon admission check.
func (s *Set) allowed(name string, core int) bool {
	if core < 0 || core >= len(s.cordoned) || !s.cordoned[core] {
		return true
	}
	for _, prefix := range s.cfg.CordonAllow {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}
