package obs

import "repro/internal/gls"

// Ctx is the ambient tracing context a tier hands to the tiers below it:
// which tracer to emit through, which span is the current parent, and
// whether to record per-event scheduler slices. A nil *Ctx is the
// disabled state — every method no-ops — so call sites thread it
// unconditionally.
//
// A Ctx reaches a tier in one of two ways. Tiers that own a config take it
// explicitly (labd.Config.Obs, fabric.Config.Obs, campaign.Config.Obs),
// falling back to the process-wide default the driving binary installs
// (SetAmbient). Machine phases are the exception: exps.NewMachine reads
// Ambient(), and the campaign engine scopes each traced entry's context to
// the goroutine running the entry for the length of its run (ScopeAmbient),
// so parallel entries parent their machine phases under their own entry
// spans; the worker's prior scope is restored when the entry ends. That
// scope is the last goroutine-scoped value in the harness; with no traced
// campaign running it costs one atomic load per machine.
//
// The phase fields track the machine-tier span currently open on the
// owning goroutine; exps.NewMachine begins one per constructed machine
// and constructing the next machine (or ClosePhase at entry teardown)
// ends it. They are unexported and touched only by the goroutine that
// owns the Ctx.
type Ctx struct {
	Tracer *Tracer
	Parent *Span
	// Slices opts machine phases into per-event scheduler slice spans via
	// an attached kern tracer. Off by default: a paper-scale entry emits
	// millions of sched events.
	Slices bool

	phase    *Span
	phaseNow func() int64 // reads the phase's machine sim clock, for SimEnd
}

var (
	ambientCtx *Ctx
	scopedCtx  gls.Store[*Ctx]
)

// SetAmbient installs c as the process-wide ambient tracing context and
// returns the previous one. Like metrics.SetAmbient, it is written only
// from a driving goroutine with no experiments in flight.
func SetAmbient(c *Ctx) (prev *Ctx) {
	prev = ambientCtx
	ambientCtx = c
	return prev
}

// Ambient resolves the tracing context scope-first: the calling
// goroutine's override when one is installed, else the process-wide
// default (nil when tracing is off). When no scopes are live anywhere,
// this is one atomic load — the cost tracing adds to an untraced run.
func Ambient() *Ctx {
	if c, ok := scopedCtx.Get(); ok {
		return c
	}
	return ambientCtx
}

// ScopeAmbient installs c as the calling goroutine's tracing context and
// returns the restore function (defer restore(), same goroutine).
func ScopeAmbient(c *Ctx) (restore func()) { return scopedCtx.Set(c) }

// Enabled reports whether spans would actually be recorded through c.
func (c *Ctx) Enabled() bool { return c != nil && c.Tracer != nil }

// Child derives a context for a nested tier: same tracer and slice
// setting, parented under sp. Nil-safe (nil in, nil out).
func (c *Ctx) Child(sp *Span) *Ctx {
	if c == nil {
		return nil
	}
	return &Ctx{Tracer: c.Tracer, Parent: sp, Slices: c.Slices}
}

// Start opens a span under the context's parent. Nil-safe; returns nil
// when disabled.
func (c *Ctx) Start(name, tier string) *Span {
	if c == nil {
		return nil
	}
	return c.Tracer.Start(name, tier, c.Parent)
}

// Mark emits an instant event under the context's parent. Nil-safe.
func (c *Ctx) Mark(name string, attrs map[string]string) {
	if c == nil {
		return
	}
	c.Tracer.Mark(name, c.Parent, attrs)
}

// ClosePhase ends the machine-tier span currently open on this context,
// stamping its simulated end time from the machine's clock. Nil-safe and
// idempotent; the campaign engine calls it at entry teardown so a phase
// left open by a panicking entry still reaches the log.
func (c *Ctx) ClosePhase() {
	if c == nil || c.phase == nil {
		return
	}
	if c.phaseNow != nil {
		c.phase.SimEnd = c.phaseNow()
	}
	c.phase.Finish()
	c.phase = nil
	c.phaseNow = nil
}

// beginPhase rotates the context's machine phase: closes the open one and
// installs sp (with simNow reading the new machine's clock) as current.
func (c *Ctx) beginPhase(sp *Span, simNow func() int64) {
	c.ClosePhase()
	c.phase = sp
	c.phaseNow = simNow
}
