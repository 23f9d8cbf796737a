//go:build go1.23

package kern

import (
	"fmt"
	"iter"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/sched"
	"repro/internal/timebase"
)

// Func is a thread body. It runs on the simulated CPU through the Env and
// terminates the thread when it returns.
type Func func(*Env)

// yieldKind discriminates thread→kernel yields.
type yieldKind uint8

const (
	// yHorizon: the grant is exhausted; the thread remains on-CPU.
	yHorizon yieldKind = iota
	// yBlock: the thread enters the waitqueue (Scenario 3).
	yBlock
	// yExit: the thread body returned.
	yExit
)

// blockKind distinguishes why a thread blocked.
type blockKind uint8

const (
	blockNone  blockKind = iota
	blockSleep           // nanosleep: a wake timer is due
	blockPause           // pause: waiting for a signal
	blockIO              // blocking read: waiting for data (§2.1's IO wait)
)

// String names the block reason, for machine-state dumps.
func (b blockKind) String() string {
	switch b {
	case blockNone:
		return "-"
	case blockSleep:
		return "sleep"
	case blockPause:
		return "pause"
	case blockIO:
		return "io"
	}
	return fmt.Sprintf("block(%d)", uint8(b))
}

// yieldReq is the thread→kernel message relinquishing the CPU.
type yieldReq struct {
	kind yieldKind
	// at is the thread-local time of the yield.
	at timebase.Time
	// block describes a yBlock.
	block blockKind
	// sleep is the requested nanosleep duration for blockSleep.
	sleep timebase.Duration
}

// killSentinel is panicked through the thread body on machine shutdown.
type killSentinel struct{}

// Thread is one simulated kernel thread. Its body runs as an iter.Pull
// coroutine that the machine drives in strict lock-step: resuming it
// switches control from the kernel to the body and a yield switches it
// back, so at any instant exactly one of them executes, which keeps the
// simulation deterministic.
type Thread struct {
	id   int
	name string
	m    *Machine

	// task is the scheduler-visible state.
	task *sched.Task

	// prog is the thread body.
	prog Func

	// next and stop drive the body's coroutine; yield is its side of
	// the handoff.
	next  func() (yieldReq, bool)
	stop  func()
	yield func(yieldReq) bool

	// clock is the thread's local time while on-CPU. The kernel writes it
	// at switch-in; the body advances it while executing. Coroutine
	// switches order all accesses.
	clock timebase.Time
	// horizon is the current grant's limit: the simulated time the thread
	// may run until (exclusive for starting new work; an instruction
	// started before it retires).
	horizon timebase.Time
	// schedIn is when the thread was last switched in (before the
	// switch-in latency); its clock never falls behind it.
	schedIn timebase.Time

	// core is the runqueue the thread belongs to.
	core *Core
	// pinned is the core the thread is pinned to, or -1.
	pinned int

	// ctx is the thread's microarchitectural context.
	ctx cpu.Context
	// enclave marks SGX-enclave threads (AEX behaviour on sched-out).
	enclave bool

	// timerSlack is the nanosleep slack (prctl PR_SET_TIMERSLACK).
	timerSlack timebase.Duration

	// sleepStart records when the thread last blocked.
	sleepStart timebase.Time
	// blockedIn records what the thread is blocked in (sleep vs pause),
	// blockNone while runnable.
	blockedIn blockKind
	// wakeTime records when the thread last woke (timer fire time).
	wakeTime timebase.Time
	// wakePreempted records whether the last wakeup preempted the then-
	// current thread (Equation 2.2 returning true).
	wakePreempted bool
	// signalExtra is the one-shot extra latency applied at the next
	// switch-in (signal-delivery path of wake-up Method 2).
	signalExtra timebase.Duration

	// pendingSignals counts timer signals delivered while not paused.
	pendingSignals int
	// wakeEvent is the outstanding nanosleep wake event, if any.
	wakeEvent *event

	// specPeek, when non-nil, returns the upcoming (not yet executed)
	// instructions of the thread's current program, for the speculative
	// smear model applied at preemption.
	specPeek func(n int) []isa.Inst

	done bool
}

// ID returns the simulated PID.
func (t *Thread) ID() int { return t.id }

// Name returns the thread's label.
func (t *Thread) Name() string { return t.name }

// Task returns the scheduler-visible state (vruntime etc.).
func (t *Thread) Task() *sched.Task { return t.task }

// Retired returns the number of instructions the thread has retired.
func (t *Thread) Retired() int64 { return t.ctx.Retired }

// CoreID returns the index of the core whose runqueue holds the thread.
func (t *Thread) CoreID() int { return t.core.id }

// Pinned returns the core the thread is pinned to, or -1.
func (t *Thread) Pinned() int { return t.pinned }

// State returns the thread's scheduler state.
func (t *Thread) State() sched.State { return t.task.State }

// LastWakePreempted reports whether the thread's most recent wakeup
// immediately preempted the then-running thread.
func (t *Thread) LastWakePreempted() bool { return t.wakePreempted }

// Enclave reports whether the thread runs inside the SGX-enclave model.
func (t *Thread) Enclave() bool { return t.enclave }

// String identifies the thread in messages.
func (t *Thread) String() string { return fmt.Sprintf("%s(%d)", t.name, t.id) }

// start builds the thread body's coroutine, suspended until first
// scheduled. A body that returns ends the coroutine; one that panics marks
// the thread done and lets iter.Pull carry the panic to the kernel side.
func (t *Thread) start() {
	t.next, t.stop = iter.Pull(func(yield func(yieldReq) bool) {
		t.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killSentinel); ok {
					return // machine shutdown
				}
				t.done = true
				panic(r)
			}
		}()
		t.prog(&Env{t: t, m: t.m})
	})
}

// run resumes the thread until horizon and returns its yield, or yExit once
// the body has returned. A body panic surfaces here, on the kernel's
// goroutine, where the caller's containment (a recover around Machine.Run)
// sees it like an InvariantError.
func (t *Thread) run(horizon timebase.Time) yieldReq {
	t.horizon = horizon
	req, ok := t.next()
	if !ok {
		return yieldReq{kind: yExit, at: t.clock}
	}
	return req
}

// park is the thread side of the handoff: it hands req to the kernel and
// is suspended until the next grant. A stopped coroutine unwinds the body
// through killSentinel.
func (t *Thread) park(req yieldReq) {
	if !t.yield(req) {
		panic(killSentinel{})
	}
}

// kill unwinds a suspended, unfinished thread body; on a finished or
// never-run one it does nothing.
func (t *Thread) kill() { t.stop() }
