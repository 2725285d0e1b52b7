package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"strings"

	"hermes/internal/units"
)

type procState uint8

const (
	stateNew procState = iota
	stateRunning
	stateParked
	stateDone
)

// Proc is a simulated process.
type Proc struct {
	eng   *Engine
	ID    int
	Name  string
	state procState
	fn    func(*Proc)

	// resume runs the process coroutine until its next park (ok) or
	// its end (!ok); yield, valid while the body runs, parks it.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool

	// The process's one pending wake, keyed (at, prio, seq) in the
	// engine's queue; slot is its queue index, -1 when none is pending.
	at   units.Time
	prio int8
	seq  uint64
	slot int
}

// before orders pending wakes: virtual time, then priority, then
// schedule order.
func (p *Proc) before(q *Proc) bool {
	if p.at != q.at {
		return p.at < q.at
	}
	if p.prio != q.prio {
		return p.prio < q.prio
	}
	return p.seq < q.seq
}

// Engine owns the virtual clock and the wake queue.
type Engine struct {
	now units.Time
	// queue is a 4-ary min-heap of the processes with a pending wake,
	// each holding its own index in Proc.slot. A process has at most
	// one wake, so rescheduling sifts it in place and cancelling
	// removes it: nothing stale is ever queued.
	queue   []*Proc
	seq     uint64
	procs   []*Proc
	alive   int
	current *Proc

	// trap records the first panic raised inside a process. Once set,
	// the engine stops event processing, unwinds every remaining
	// process (park resumes panic with abortSignal, so user defers
	// run), and re-raises the original panic from Run on the caller's
	// goroutine — where it can be recovered like any function panic
	// instead of crashing the process from a coroutine.
	trap    any
	trapped bool

	// tick, if set, runs at the top of every Run iteration, and idle
	// runs when the wake queue is empty with processes still alive
	// (idle returning true retries instead of declaring deadlock).
	// Both execute on Run's goroutine with no process current, so
	// they may call Inject to hand external stimuli (job arrivals,
	// shutdown) into the deterministic event order.
	tick func()
	idle func() bool
}

// abortSignal unwinds a parked process during trap cleanup.
type abortSignal struct{}

// TaskPanic is the value Engine.Run re-raises when a process
// panicked: the original panic value plus the stack of the faulting
// process, which would otherwise be lost in the trap/re-raise
// handoff.
type TaskPanic struct {
	Value any
	Stack []byte
}

func (t *TaskPanic) Error() string {
	return fmt.Sprintf("%v\n%s", t.Value, t.Stack)
}

// NewEngine returns an engine at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// SetTick installs fn to run at the top of every Run iteration, before
// the next event is dispatched. Use it to poll external (non-virtual)
// inputs without blocking event processing.
func (e *Engine) SetTick(fn func()) { e.tick = fn }

// SetIdle installs fn to run when the wake queue is empty while
// processes are still alive — the quiescent state a persistent
// simulation reaches between stimuli. fn returning true resumes the
// loop (it is expected to have scheduled new events, typically via
// Inject); false falls through to the deadlock panic.
func (e *Engine) SetIdle(fn func() bool) { e.idle = fn }

// Inject schedules an out-of-band wake for p at virtual time t (never
// before now), replacing any later pending wake. It may only be called
// when no process is running — from the tick/idle hooks or between
// runs. Injected wakes carry front priority: at equal virtual time
// they dispatch before ordinary events, so the order of the simulation
// cannot depend on *when* in wall-clock time the stimulus was handed
// in, only on its virtual timestamp.
func (e *Engine) Inject(p *Proc, t units.Time) {
	if e.current != nil {
		panic("sim: Inject while a process is running")
	}
	if p.state == stateDone {
		return
	}
	if t < e.now {
		t = e.now
	}
	if p.slot >= 0 && p.at <= t {
		return // already waking at or before t
	}
	e.schedule(p, t, -1)
}

// IsUnwind reports whether a recovered panic value is the engine's
// internal teardown signal. Recover blocks inside process bodies must
// re-raise it untouched so trap cleanup can finish unwinding.
func IsUnwind(v any) bool {
	_, ok := v.(abortSignal)
	return ok
}

// Now returns the current virtual time. Only the running process (or
// the caller of Run, between runs) may call it.
func (e *Engine) Now() units.Time { return e.now }

// Current returns the process executing right now, or nil between
// events (hooks, or the caller of Run). Engine-side plumbing that may
// run on several processes uses it to avoid illegal self-wakes.
func (e *Engine) Current() *Proc { return e.current }

// Go registers a new process whose body starts at the current virtual
// time, after already-scheduled events at that time. It may be called
// before Run or from a running process.
func (e *Engine) Go(name string, fn func(*Proc)) *Proc {
	p := &Proc{eng: e, ID: len(e.procs), Name: name, fn: fn, slot: -1}
	p.resume, _ = iter.Pull(p.body)
	e.procs = append(e.procs, p)
	e.alive++
	e.schedule(p, e.now, 0)
	return p
}

// body is the process coroutine. A panic in fn becomes the engine's
// trap, captured here so the stack is the faulting process's own.
func (p *Proc) body(yield func(struct{}) bool) {
	p.yield = yield
	e := p.eng
	defer func() {
		if r := recover(); r != nil {
			if _, unwinding := r.(abortSignal); !unwinding && !e.trapped {
				e.trapped = true
				e.trap = &TaskPanic{Value: r, Stack: debug.Stack()}
			}
		}
	}()
	if e.trapped {
		return // resumed only to unwind before ever starting
	}
	p.fn(p)
}

// schedule sets p's one wake to (t, prio, next seq), queueing it or
// sifting it in place if a wake was already pending.
func (e *Engine) schedule(p *Proc, t units.Time, prio int8) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (%v < %v)", t, e.now))
	}
	e.seq++
	p.at, p.prio, p.seq = t, prio, e.seq
	if p.slot < 0 {
		e.queue = append(e.queue, p)
		e.up(len(e.queue) - 1)
		return
	}
	e.fix(p.slot)
}

// cancel drops p's pending wake, if any.
func (e *Engine) cancel(p *Proc) {
	i := p.slot
	if i < 0 {
		return
	}
	p.slot = -1
	last := len(e.queue) - 1
	moved := e.queue[last]
	e.queue[last] = nil
	e.queue = e.queue[:last]
	if i < last {
		e.queue[i] = moved
		e.fix(i)
	}
}

func (e *Engine) fix(i int) {
	if !e.up(i) {
		e.down(i)
	}
}

// up sifts queue[i] toward the root, keeping Proc.slot current for
// every entry it moves, and reports whether queue[i] moved.
func (e *Engine) up(i int) bool {
	q := e.queue
	p := q[i]
	start := i
	for i > 0 {
		parent := (i - 1) / 4
		if !p.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].slot = i
		i = parent
	}
	q[i] = p
	p.slot = i
	return i != start
}

// down sifts queue[i] toward the leaves.
func (e *Engine) down(i int) {
	q := e.queue
	n := len(q)
	p := q[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		least := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if q[j].before(q[least]) {
				least = j
			}
		}
		if !q[least].before(p) {
			break
		}
		q[i] = q[least]
		q[i].slot = i
		i = least
	}
	q[i] = p
	p.slot = i
}

// Run executes events until every process has finished. It panics on
// deadlock: no runnable events while processes are still alive. A
// panic inside a process is re-raised here, on the caller's
// goroutine, after every other process has been unwound. A process
// that calls runtime.Goexit ends the caller's goroutine the same way.
func (e *Engine) Run() {
	for e.alive > 0 {
		var p *Proc
		if e.trapped {
			p = e.nextUnfinished()
			if p == nil {
				break
			}
			e.cancel(p)
		} else {
			if e.tick != nil {
				e.tick()
			}
			if len(e.queue) == 0 {
				if e.idle != nil && e.idle() {
					continue
				}
				panic("sim: deadlock — " + e.describeStall())
			}
			p = e.queue[0]
			e.cancel(p)
			if p.at < e.now {
				panic("sim: time went backwards")
			}
			e.now = p.at
		}
		p.state = stateRunning
		e.current = p
		_, parked := p.resume()
		e.current = nil
		if !parked {
			p.state = stateDone
			e.alive--
		}
	}
	if e.trapped {
		panic(e.trap)
	}
}

// nextUnfinished returns any process that has not completed, for trap
// unwinding. At the top of Run's loop no process is running, so every
// non-done process is parked (or never started) and safe to resume.
func (e *Engine) nextUnfinished() *Proc {
	for _, p := range e.procs {
		if p.state != stateDone {
			return p
		}
	}
	return nil
}

func (e *Engine) describeStall() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d processes alive at %v with empty event queue:", e.alive, e.now)
	for _, p := range e.procs {
		if p.state != stateDone {
			fmt.Fprintf(&b, " [%d %s state=%d]", p.ID, p.Name, p.state)
		}
	}
	return b.String()
}

// park hands control back to Run until the process is resumed. If
// another process panicked meanwhile, resume by unwinding (user
// defers on this process's stack still run).
func (p *Proc) park() {
	p.state = stateParked
	p.yield(struct{}{})
	if p.eng.trapped {
		panic(abortSignal{})
	}
}

// WaitUntil parks until virtual time t (or an early Wake). It returns
// the time at which the process resumed.
func (p *Proc) WaitUntil(t units.Time) units.Time {
	p.mustBeCurrent("WaitUntil")
	if t < p.eng.now {
		panic("sim: WaitUntil into the past")
	}
	p.eng.schedule(p, t, 0)
	p.park()
	return p.eng.now
}

// Sleep parks for span d (or until an early Wake) and returns the
// resume time.
func (p *Proc) Sleep(d units.Time) units.Time {
	if d < 0 {
		panic("sim: negative sleep")
	}
	return p.WaitUntil(p.eng.now + d)
}

// ParkUntilWake parks with no timer; only Wake resumes the process.
func (p *Proc) ParkUntilWake() units.Time {
	p.mustBeCurrent("ParkUntilWake")
	p.park()
	return p.eng.now
}

// Wake makes a parked process runnable at the current virtual time,
// replacing any pending timer. The caller must be the currently
// running process (or the engine owner between runs); a process cannot
// wake itself. Waking an already-runnable or finished process is a
// no-op, so completion broadcasts are safe.
func (p *Proc) Wake() {
	e := p.eng
	if e.current == p {
		panic("sim: process woke itself")
	}
	if p.state == stateDone {
		return
	}
	if p.slot >= 0 && p.at == e.now {
		return // already scheduled to run now
	}
	e.schedule(p, e.now, 0)
}

func (p *Proc) mustBeCurrent(op string) {
	if p.eng.current != nil && p.eng.current != p {
		panic("sim: " + op + " called by non-current process " + p.Name)
	}
}
