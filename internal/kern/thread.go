package kern

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/sched"
	"repro/internal/timebase"
)

// Func is a thread body. It runs on the simulated CPU through the Env and
// terminates the thread when it returns.
type Func func(*Env)

// grant is the kernel→thread message allowing execution up to a horizon.
type grant struct {
	// horizon is the simulated time the thread may run until (exclusive
	// for starting new work; an instruction started before it retires).
	horizon timebase.Time
	// kill asks the thread goroutine to unwind and exit (machine
	// shutdown).
	kill bool
}

// yieldKind discriminates thread→kernel yields.
type yieldKind uint8

const (
	// yHorizon: the grant is exhausted; the thread remains on-CPU.
	yHorizon yieldKind = iota
	// yBlock: the thread enters the waitqueue (Scenario 3).
	yBlock
	// yExit: the thread body returned.
	yExit
	// yPanic: the thread body panicked; the kernel re-raises it.
	yPanic
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
	// panicked is a yPanic's panic value.
	panicked any
}

// killSentinel is panicked through the thread body on machine shutdown.
type killSentinel struct{}

// Thread is one simulated kernel thread. Its body runs on a goroutine that
// the machine drives in strict lock-step: at any instant at most one
// goroutine in the whole simulation is runnable, which keeps the simulation
// deterministic.
type Thread struct {
	id   int
	name string
	m    *Machine

	// task is the scheduler-visible state.
	task *sched.Task

	// prog is the thread body.
	prog Func

	// resume and yield implement the lock-step handoff.
	resume chan grant
	yield  chan yieldReq

	// clock is the thread's local time while on-CPU. The kernel writes it
	// at switch-in; the goroutine advances it while executing. Channel
	// handoffs order all accesses.
	clock timebase.Time
	// horizon is the current grant's limit.
	horizon timebase.Time

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

	started bool
	done    bool
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

// start launches the thread body goroutine, parked until first scheduled.
func (t *Thread) start() {
	t.resume = make(chan grant)
	t.yield = make(chan yieldReq)
	go func() {
		g := <-t.resume
		if g.kill {
			return
		}
		t.horizon = g.horizon
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killSentinel); ok {
					return // machine shutdown
				}
				// Hand the panic to the kernel goroutine, where the
				// caller's containment (a recover around Machine.Run)
				// can see it; re-raising here would kill the process.
				t.yield <- yieldReq{kind: yPanic, panicked: r}
			}
		}()
		env := &Env{t: t, m: t.m}
		t.prog(env)
		t.yield <- yieldReq{kind: yExit, at: t.clock}
	}()
	t.started = true
}

// run resumes the thread until horizon and returns its yield. A body panic
// is re-raised here, on the kernel goroutine, like an InvariantError; the
// thread is done by then, so kill never waits on its exited goroutine.
func (t *Thread) run(horizon timebase.Time) yieldReq {
	t.resume <- grant{horizon: horizon}
	req := <-t.yield
	if req.kind == yPanic {
		t.done = true
		panic(req.panicked)
	}
	return req
}

// kill unwinds a parked, unfinished thread goroutine.
func (t *Thread) kill() {
	if !t.started || t.done {
		return
	}
	t.resume <- grant{kill: true}
	t.done = true
}
