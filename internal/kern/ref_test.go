package kern

import (
	"repro/internal/isa"
	"repro/internal/timebase"
)

// The per-instruction victim loops that execBody replaced, kept verbatim as
// the reference FuzzPlainRunDifferential holds the closed-form retirement
// to: every instruction goes through Exec, one maybeYield and one
// cpu.Core.Exec each.

func (e *Env) refExecProgram(p *isa.Program) {
	i := 0
	prev := e.t.specPeek
	e.t.specPeek = func(n int) []isa.Inst {
		hi := i + n
		if hi > len(p.Insts) {
			hi = len(p.Insts)
		}
		if i >= hi {
			return nil
		}
		return p.Insts[i:hi]
	}
	for ; i < len(p.Insts); i++ {
		e.Exec(p.Insts[i])
	}
	e.t.specPeek = prev
}

func (e *Env) refRunLoopForever(body []isa.Inst) {
	t := e.t
	i := 0
	e.t.specPeek = func(n int) []isa.Inst {
		hi := i + n
		if hi > len(body) {
			hi = len(body)
		}
		if i >= hi {
			return nil
		}
		return body[i:hi]
	}
	var prevCost timebase.Duration = -1
	var prevYields int64 = -1
	for {
		start := t.clock
		yieldsBefore := e.m.yieldCount
		for i = 0; i < len(body); i++ {
			e.Exec(body[i])
		}
		cost := t.clock.Sub(start)
		sawKernel := e.m.yieldCount != yieldsBefore
		if !sawKernel && cost == prevCost && prevYields == yieldsBefore && cost > 0 {
			// Steady state: bulk-skip whole iterations below the horizon.
			if room := t.horizon.Sub(t.clock); room > cost {
				n := int64(room/cost) - 1
				if n > 0 {
					t.clock = t.clock.Add(timebase.Duration(n) * cost)
					t.ctx.Seq += n * int64(len(body))
					t.ctx.Retired += n * int64(len(body))
				}
			}
		}
		if sawKernel {
			prevCost, prevYields = -1, -1
		} else {
			prevCost, prevYields = cost, yieldsBefore
		}
	}
}

func (e *Env) refRunLoopUntil(body []isa.Inst, stop func() bool) {
	t := e.t
	var prevCost timebase.Duration = -1
	var prevYields int64 = -1
	for !stop() {
		start := t.clock
		yieldsBefore := e.m.yieldCount
		for i := 0; i < len(body); i++ {
			e.Exec(body[i])
		}
		cost := t.clock.Sub(start)
		sawKernel := e.m.yieldCount != yieldsBefore
		if !sawKernel && cost == prevCost && prevYields == yieldsBefore && cost > 0 {
			if room := t.horizon.Sub(t.clock); room > cost {
				n := int64(room/cost) - 1
				if n > 0 {
					t.clock = t.clock.Add(timebase.Duration(n) * cost)
					t.ctx.Seq += n * int64(len(body))
					t.ctx.Retired += n * int64(len(body))
				}
			}
		}
		if sawKernel {
			prevCost, prevYields = -1, -1
		} else {
			prevCost, prevYields = cost, yieldsBefore
		}
	}
}
