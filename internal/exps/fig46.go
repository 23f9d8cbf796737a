package exps

import (
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kern"
	"repro/internal/ktrace"
	"repro/internal/timebase"
)

// victimMarkerLine is a cache line the noisy-system victim touches every
// loop iteration — the template line the "victim ran last?" presence
// oracle monitors (§4.3).
const victimMarkerLine uint64 = 0x0049_0000

// Fig46Config tunes the scheduling-noise experiment.
type Fig46Config struct {
	// NoiseHeadStart is how long the noise thread runs alone before the
	// victim arrives (it is the pre-existing thread of §4.3's analysis).
	NoiseHeadStart timebase.Duration
	// AttackFor bounds the attack phase.
	AttackFor timebase.Duration
	Seed      uint64
}

// Fig46Result holds the vruntime progressions and the post-convergence
// behaviour.
type Fig46Result struct {
	Config Fig46Config
	// VSeries/NSeries/ASeries are (time, vruntime) samples per thread.
	VSeries, NSeries, ASeries []ktrace.VSample
	// ConvergeAt is when the victim's vruntime first reached the noise
	// thread's (the dashed line of Figure 4.6).
	ConvergeAt timebase.Time
	// PatternAfter is the post-convergence sched-in pattern over
	// {V,N,A} within one attack burst; the paper reports ((V|N)A)+.
	PatternAfter string
	// PatternFull is the whole post-convergence pattern (bursts and
	// hibernation gaps included).
	PatternFull string
	// PatternOK reports whether the pattern matches ((V|N)A)+.
	PatternOK bool
	// OracleAccuracy is the "victim ran last?" oracle's agreement with
	// scheduler ground truth over the attack's samples.
	OracleAccuracy float64
	// Preemptions achieved despite the noise thread.
	Preemptions int64
}

// RunFig46 reproduces Figure 4.6: Controlled Preemption in a noisy system
// with a third compute-bound thread, plus the template-attack presence
// oracle that keeps the attack usable after the victim and noise vruntimes
// converge.
func RunFig46(env *Env, cfg Fig46Config) *Fig46Result {
	if cfg.NoiseHeadStart <= 0 {
		cfg.NoiseHeadStart = 30 * timebase.Millisecond
	}
	if cfg.AttackFor <= 0 {
		cfg.AttackFor = 400 * timebase.Millisecond
	}
	m := env.NewMachine(CFS, cfg.Seed)
	defer m.Shutdown()

	rec := ktrace.NewRecorder()
	rec.SampleVruntime = true
	m.AttachTracer(rec)

	// The pre-existing noise thread: pure compute, no system calls.
	noise := m.Spawn("noise", func(e *kern.Env) {
		b := isa.NewBuilder("noise", 0x004a_0000, 4)
		b.ALU(64)
		e.RunLoopForever(b.Build().Insts)
	}, kern.WithPin(0))
	m.RunFor(cfg.NoiseHeadStart)

	// The victim: its loop touches the marker line every few instructions
	// (a realistic victim constantly touches its own hot lines; the
	// template attack of §4.3 picks one such line offline).
	vb := isa.NewBuilder("victim", 0x0040_0000, 4)
	for i := 0; i < 8; i++ {
		vb.ALU(3)
		vb.Load(victimMarkerLine)
	}
	victimBody := vb.Build().Insts
	victim := m.Spawn("victim", func(e *kern.Env) {
		e.RunLoopForever(victimBody)
	}, kern.WithPin(0))

	// The attacker: Flush+Reload presence oracle on the marker line.
	var samples []presenceSample
	a := core.NewAttacker(core.Config{
		Epsilon:   2 * timebase.Microsecond,
		Hibernate: 70 * timebase.Millisecond,
		Measure: func(e *kern.Env, s core.Sample) bool {
			fr := attack.NewFlushReload(e, []uint64{victimMarkerLine})
			hit := fr.Reload(e)[0]
			fr.Flush(e)
			e.Burn(8 * timebase.Microsecond)
			samples = append(samples, presenceSample{At: e.Now(), VictimRan: hit})
			return true
		},
	})
	m.Spawn("attacker", a.Run, kern.WithPin(0))
	m.RunFor(cfg.AttackFor)

	res := &Fig46Result{Config: cfg, Preemptions: a.Stats().Preemptions}
	res.VSeries = rec.VSeriesOf(victim.ID())
	res.NSeries = rec.VSeriesOf(noise.ID())
	for _, t := range m.Threads() {
		if t.Name() == "attacker" {
			res.ASeries = rec.VSeriesOf(t.ID())
		}
	}

	// Convergence: first time victim vruntime reaches the noise thread's.
	nv := func(at timebase.Time) int64 {
		last := int64(0)
		for _, s := range res.NSeries {
			if s.At > at {
				break
			}
			last = s.Vruntime
		}
		return last
	}
	for _, s := range res.VSeries {
		if s.Vruntime >= nv(s.At) && nv(s.At) > 0 {
			res.ConvergeAt = s.At
			break
		}
	}

	// Post-convergence pattern over the three threads, starting from the
	// first attacker stint after convergence (the regime the paper's
	// zoom-in shows; convergence itself may happen while the attacker
	// hibernates).
	labels := map[int]byte{victim.ID(): 'V', noise.ID(): 'N'}
	for _, t := range m.Threads() {
		if t.Name() == "attacker" {
			labels[t.ID()] = 'A'
		}
	}
	var pat []byte
	seenA := false
	for _, st := range rec.Stints {
		if st.Start < res.ConvergeAt {
			continue
		}
		l, ok := labels[st.Thread.ID()]
		if !ok {
			continue
		}
		if !seenA {
			if l != 'A' {
				continue
			}
			seenA = true
		}
		pat = append(pat, l)
	}
	res.PatternFull = string(pat)
	// Evaluate the alternation within one attack burst (between
	// hibernations the schedule is just V/N time-slicing).
	if len(pat) > 200 {
		pat = pat[:200]
	}
	res.PatternAfter = string(pat)
	res.PatternOK = patternIsVNAlternating(res.PatternAfter)

	// Oracle accuracy: compare each presence sample with the scheduler's
	// ground truth (which of V/N ran immediately before the attacker's
	// stint).
	res.OracleAccuracy = oracleAccuracy(rec, labels, samples)
	return res
}

// presenceSample is one "victim ran last?" oracle reading.
type presenceSample struct {
	At        timebase.Time
	VictimRan bool
}

// oracleAccuracy scores the presence oracle's precision: of the samples
// where it reported "victim ran last" (the only ones the attack records,
// §4.3), how many had the victim as the last thread to actually retire
// instructions before the sample. Zero-step stints don't count as running —
// nothing executed, so there is nothing to observe or record.
func oracleAccuracy(rec *ktrace.Recorder, labels map[int]byte, samples []presenceSample) float64 {
	si := 0
	lastVN := byte(0)
	recorded, correct := 0, 0
	for _, s := range samples {
		for si < len(rec.Stints) && rec.Stints[si].End <= s.At {
			st := rec.Stints[si]
			if l := labels[st.Thread.ID()]; (l == 'V' || l == 'N') && st.Retired > 0 {
				lastVN = l
			}
			si++
		}
		if s.VictimRan {
			recorded++
			if lastVN == 'V' {
				correct++
			}
		}
	}
	if recorded == 0 {
		return 0
	}
	return float64(correct) / float64(recorded)
}

// patternIsVNAlternating checks ((V|N)A)+ allowing a leading A.
func patternIsVNAlternating(p string) bool {
	if len(p) < 4 {
		return false
	}
	expectA := false
	for i := 0; i < len(p); i++ {
		c := p[i]
		if i == 0 && c == 'A' {
			expectA = false
			continue
		}
		if expectA {
			if c != 'A' {
				return false
			}
		} else if c != 'V' && c != 'N' {
			return false
		}
		expectA = !expectA
	}
	return true
}

// SawBothAfterConvergence reports whether both V and N appear in the
// post-convergence interleave (the unpredictable (V|N) of the paper).
func (r *Fig46Result) SawBothAfterConvergence() bool {
	return strings.ContainsRune(r.PatternFull, 'V') && strings.ContainsRune(r.PatternFull, 'N')
}

// String renders the experiment.
func (r *Fig46Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fig4.6 — noisy system (V, N, A on one core)\n")
	fmt.Fprintf(&b, "  victim/noise vruntimes converge at: %v\n", r.ConvergeAt)
	pat := r.PatternAfter
	if len(pat) > 60 {
		pat = pat[:60] + "..."
	}
	fmt.Fprintf(&b, "  post-convergence schedule: %s\n", pat)
	fmt.Fprintf(&b, "  pattern ((V|N)A)+: %v, both V and N appear: %v\n", r.PatternOK, r.SawBothAfterConvergence())
	fmt.Fprintf(&b, "  presence-oracle accuracy: %.1f%% over %d samples\n", 100*r.OracleAccuracy, r.Preemptions)
	return b.String()
}
