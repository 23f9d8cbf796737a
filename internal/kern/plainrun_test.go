package kern

import (
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"repro/internal/cfs"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/timebase"
)

// diffInsts decodes a run-length instruction stream at base: each byte
// emits a run of up to 64 ALU or Nop instructions, or one Load or Branch.
// Loads hit a handful of lines; branches jump within the stream's range.
func diffInsts(base uint64, code []byte) []isa.Inst {
	var insts []isa.Inst
	for _, b := range code {
		pc := base + 4*uint64(len(insts))
		switch b & 3 {
		case 0, 1:
			kind := isa.ALU
			if b&3 == 1 {
				kind = isa.Nop
			}
			for n := 1 + int(b>>2); n > 0; n-- {
				insts = append(insts, isa.Inst{PC: pc, Kind: kind, Size: 4})
				pc += 4
			}
		case 2:
			insts = append(insts, isa.Inst{PC: pc, Kind: isa.Load, Mem: 0x1000_0000 + uint64(b>>2%8)*4096, Size: 4})
		case 3:
			insts = append(insts, isa.Inst{PC: pc, Kind: isa.Branch, Target: base + 4*uint64(b>>2), Size: 4})
		}
	}
	if len(insts) == 0 {
		insts = append(insts, isa.Inst{PC: base, Kind: isa.ALU, Size: 4})
	}
	return insts
}

// diffSide is one machine of the differential: a single-core machine whose
// one thread the test drives grant by grant, as advanceCore would.
type diffSide struct {
	m   *Machine
	th  *Thread
	reg *metrics.Registry
}

func newDiffSide(clk timebase.Clock, cp cpu.Params, ctx cpu.Context, body func(*Env)) *diffSide {
	p := DefaultParams(1, func() sched.Scheduler { return cfs.New(sched.DefaultParams(1)) })
	p.Clock = clk
	p.Metrics = metrics.New()
	m := NewMachine(p)
	m.cores[0].cpu.P = cp
	th := m.Spawn("victim", body, WithPin(0))
	th.ctx.UseITLB, th.ctx.FetchThroughCache = ctx.UseITLB, ctx.FetchThroughCache
	return &diffSide{m: m, th: th, reg: p.Metrics}
}

// grant resumes the thread until horizon and counts the interaction.
func (s *diffSide) grant(horizon timebase.Time) yieldReq {
	req := s.th.run(horizon)
	s.m.yieldCount++
	return req
}

// preempt switches the thread out and back in gap later: its warm-up
// restarts.
func (s *diffSide) preempt(gap timebase.Duration) {
	s.th.clock = s.th.clock.Add(gap)
	s.th.ctx.ResetSchedIn()
}

// peekIndex is the number of instructions specPeek still offers, or -1
// without one: with the program and body fixed, it pins specPeek's index.
func (s *diffSide) peekIndex(span int) int {
	if s.th.specPeek == nil {
		return -1
	}
	return len(s.th.specPeek(span))
}

// FuzzPlainRunDifferential holds the closed-form retirement of plain runs
// (execBody) to the per-instruction reference loops of ref_test.go. Each
// input builds a body and a program mixing ALU, Nop, Load and Branch, draws
// warm-up and instruction costs and a clock rate, and then drives both
// machines through the same random grants, switch-outs and BTB plantings
// (entries colliding with body PCs, which the NightVision update kills).
// At every park the two must agree on the thread clock, specPeek's index,
// Seq, Retired, every telemetry counter (cpu_instructions_total and the
// BTB counters among them) and the BTB's contents at every PC. A run that
// never parks fails after a timeout.
func FuzzPlainRunDifferential(f *testing.F) {
	// The loop victim: 64 ALU instructions at default costs.
	f.Add(uint64(1), []byte{0, 0, 0, 0, 0, 0, 0, 0}, []byte{0xfc})
	// Mixed runs with a short warm-up and a planted BTB.
	f.Add(uint64(2), []byte{3, 7, 40, 9, 0x0b, 5, 4, 0x84}, []byte{0x40, 0x21, 0x81, 0x06, 0x3f})
	// An invoked victim: poll, then a program with loads and branches.
	f.Add(uint64(3), []byte{1, 2, 90, 30, 0x1a, 3, 8, 0x71}, []byte{0x7c, 0x7d, 0x02, 0x0f, 0x80, 0x13})
	f.Fuzz(func(t *testing.T, seed uint64, cfg []byte, code []byte) {
		at := func(i int) int64 {
			if i < len(cfg) {
				return int64(cfg[i])
			}
			return 0
		}
		cp := cpu.DefaultParams
		// Every instruction costs at least a cycle: a zero-cost loop never
		// reaches its horizon, in either implementation.
		cp.ALU, cp.Nop = 1+at(0)%3, 1+at(1)%3
		cp.ColdDecay, cp.ColdPerInstr = at(2)*2, at(3)
		flags := at(4)
		clk := timebase.Clock{CyclesPerNano: at(5) % 9}
		var ctx cpu.Context
		ctx.UseITLB = flags&1 != 0 && flags&0x30 == 0x30
		ctx.FetchThroughCache = flags&2 != 0 && flags&0x30 == 0x30
		invoked := flags&4 != 0
		plant := flags&8 != 0

		split := len(code) / 2
		body := diffInsts(0x40_0000, code[:split])
		prog := &isa.Program{Name: "prog", Insts: diffInsts(0x50_0000, code[split:])}
		var pcs []uint64
		for _, in := range slices.Concat(body, prog.Insts) {
			pcs = append(pcs, in.PC)
		}
		span := len(body) + len(prog.Insts)

		var stop bool
		victim := func(forever func([]isa.Inst), until func([]isa.Inst, func() bool), exec func(*isa.Program)) func(*Env) {
			return func(e *Env) {
				if invoked {
					until(body, func() bool { return stop })
					exec(prog)
				}
				forever(body)
			}
		}
		got := newDiffSide(clk, cp, ctx, func(e *Env) { victim(e.RunLoopForever, e.RunLoopUntil, e.ExecProgram)(e) })
		want := newDiffSide(clk, cp, ctx, func(e *Env) { victim(e.refRunLoopForever, e.refRunLoopUntil, e.refExecProgram)(e) })

		r := rng.New(seed)
		steps := 20 + int(at(6))
		scales := [...]int64{8, 200, 4000, 20000}
		fail := make(chan string, 1)
		go func() {
			for step := 0; step < steps; step++ {
				if r.Intn(8) == 0 {
					gap := timebase.Duration(r.Int63n(3000))
					got.preempt(gap)
					want.preempt(gap)
				}
				if plant && r.Intn(4) == 0 {
					pc := pcs[r.Intn(len(pcs))] | uint64(r.Intn(2))<<32
					target := pcs[r.Intn(len(pcs))]
					got.m.cores[0].cpu.BTB.UpdateBranch(pc, target)
					want.m.cores[0].cpu.BTB.UpdateBranch(pc, target)
				}
				if invoked && step == steps/3 {
					stop = true
				}
				room := timebase.Duration(r.Int63n(scales[r.Intn(len(scales))]))
				g := got.grant(got.th.clock.Add(room))
				w := want.grant(want.th.clock.Add(room))
				if msg := diffPark(step, got, want, g, w, span, pcs); msg != "" {
					fail <- msg
					return
				}
			}
			fail <- ""
		}()
		select {
		case msg := <-fail:
			got.m.Shutdown()
			want.m.Shutdown()
			if msg != "" {
				t.Fatal(msg)
			}
		case <-time.After(10 * time.Second):
			// The thread is stuck mid-grant; its coroutine cannot be
			// unwound, so the machines are left as they are.
			t.Fatal("a grant never parked: execBody stopped making progress")
		}
	})
}

// diffPark compares the two sides at a park and describes the first
// difference, or returns "".
func diffPark(step int, got, want *diffSide, g, w yieldReq, span int, pcs []uint64) string {
	gt, wt := got.th, want.th
	switch {
	case g != w:
		return fmt.Sprintf("step %d: yield %+v, reference %+v", step, g, w)
	case gt.clock != wt.clock:
		return fmt.Sprintf("step %d: clock %d, reference %d", step, gt.clock, wt.clock)
	case got.peekIndex(span) != want.peekIndex(span):
		return fmt.Sprintf("step %d: specPeek offers %d, reference %d", step, got.peekIndex(span), want.peekIndex(span))
	case gt.ctx.Seq != wt.ctx.Seq || gt.ctx.Retired != wt.ctx.Retired:
		return fmt.Sprintf("step %d: Seq/Retired %d/%d, reference %d/%d", step, gt.ctx.Seq, gt.ctx.Retired, wt.ctx.Seq, wt.ctx.Retired)
	}
	if gm, wm := got.reg.Flatten(), want.reg.Flatten(); !maps.Equal(gm, wm) {
		for name, w := range wm {
			if g, ok := gm[name]; !ok || g != w {
				return fmt.Sprintf("step %d: %s = %d, reference %d", step, name, g, w)
			}
		}
		return fmt.Sprintf("step %d: %d telemetry series, reference %d", step, len(gm), len(wm))
	}
	gb, wb := got.m.cores[0].cpu.BTB, want.m.cores[0].cpu.BTB
	for _, pc := range pcs {
		if gb.Contains(pc) != wb.Contains(pc) {
			return fmt.Sprintf("step %d: BTB entry at %#x differs from the reference", step, pc)
		}
	}
	return ""
}

// BenchmarkLoopVictimGrant runs the §4.3 loop victim pinned beside a
// slack-1 sleeper that wakes every 20µs, so the victim's grants are short
// and each restarts its warm-up: the shape of the temporal-resolution
// experiments. One op is 100µs of simulated time. ns/instr divides the wall
// time by the instructions actually retired (cpu_instructions_total), not
// the ones the steady-state fast-forward skips.
func BenchmarkLoopVictimGrant(b *testing.B) {
	p := DefaultParams(1, func() sched.Scheduler { return cfs.New(sched.DefaultParams(1)) })
	p.Metrics = metrics.New()
	m := NewMachine(p)
	defer m.Shutdown()
	body := loopBody(64)
	m.Spawn("victim", func(e *Env) { e.RunLoopForever(body) }, WithPin(0))
	m.Spawn("sleeper", func(e *Env) {
		e.SetTimerSlack(1)
		for {
			e.Nanosleep(20 * timebase.Microsecond)
		}
	}, WithPin(0))
	m.RunFor(timebase.Millisecond)
	retired := p.Metrics.Counter("cpu_instructions_total")
	before := retired.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RunFor(100 * timebase.Microsecond)
	}
	b.StopTimer()
	if n := retired.Value() - before; n > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/instr")
		b.ReportMetric(float64(n)/float64(b.N), "instr/op")
	}
}
