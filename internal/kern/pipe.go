package kern

import (
	"repro/internal/sched"
)

// Pipe is a byte pipe with a blocking reader — the "waiting on blocking IO
// events" inhabitant of the waitqueue in §2.1. A write to a pipe with a
// blocked reader wakes it through exactly the same path as a timer expiry:
// Equation 2.1 placement and the Equation 2.2 wakeup-preemption check. This
// is the generality the paper points at ("when data becomes available
// (e.g., network packets arrive), the thread responsible for processing
// that data should get CPU time immediately", §4) — any blocking IO
// completion is a preemption trigger.
type Pipe struct {
	m      *Machine
	buf    []byte
	reader *Thread
	// Writes counts total bytes written, for tests.
	Writes int64
}

// NewPipe creates an empty pipe on the machine.
func (m *Machine) NewPipe() *Pipe { return &Pipe{m: m} }

// Buffered returns the number of unread bytes.
func (p *Pipe) Buffered() int { return len(p.buf) }

// PipeRead reads up to max bytes from p, blocking while the pipe is empty.
// It returns at least one byte.
func (e *Env) PipeRead(p *Pipe, max int) []byte {
	if max <= 0 {
		max = 1
	}
	e.advance(e.m.p.SyscallEntry)
	t := e.t
	for len(p.buf) == 0 {
		if p.reader != nil && p.reader != t {
			panic("kern: pipe already has a blocked reader")
		}
		p.reader = t
		t.park(yieldReq{kind: yBlock, at: t.clock, block: blockIO})
	}
	p.reader = nil
	n := max
	if n > len(p.buf) {
		n = len(p.buf)
	}
	out := append([]byte(nil), p.buf[:n]...)
	p.buf = p.buf[n:]
	// Copy-out cost, 1 cycle per 8 bytes.
	e.advance(e.cycles(int64(n+7) / 8))
	return out
}

// PipeWrite appends data to p. If a reader is blocked, the IO completion
// wakes it after the device/softirq latency — running the full Scenario 2
// wakeup path against whatever is on the reader's CPU.
func (e *Env) PipeWrite(p *Pipe, data []byte) {
	e.advance(e.m.p.SyscallEntry)
	e.advance(e.cycles(int64(len(data)+7) / 8))
	p.buf = append(p.buf, data...)
	p.Writes += int64(len(data))
	if r := p.reader; r != nil {
		ev := e.m.newEvent(e.t.clock.Add(e.m.p.TimerIRQLat), evIOWake)
		ev.thread = r
		e.m.schedule(ev)
	}
}

// handleIOWake completes a blocking read: wake the reader if it is still
// blocked on IO (spurious wakes after the reader already continued are
// dropped).
func (m *Machine) handleIOWake(t *Thread) {
	if t.done || t.task.State != sched.StateBlocked || t.blockedIn != blockIO {
		return
	}
	m.wake(t)
}
