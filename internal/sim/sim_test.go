package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"hermes/internal/units"
)

func TestSingleProcSleep(t *testing.T) {
	e := NewEngine()
	var resumed units.Time
	e.Go("a", func(p *Proc) {
		resumed = p.Sleep(5 * units.Microsecond)
	})
	e.Run()
	if resumed != 5*units.Microsecond {
		t.Fatalf("resumed at %v, want 5µs", resumed)
	}
	if e.Now() != 5*units.Microsecond {
		t.Fatalf("engine now = %v", e.Now())
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() string {
		var log []string
		e := NewEngine()
		for i := 0; i < 3; i++ {
			i := i
			e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				for k := 0; k < 3; k++ {
					p.Sleep(units.Time(i+1) * units.Microsecond)
					log = append(log, fmt.Sprintf("p%d@%v", i, e.Now()))
				}
			})
		}
		e.Run()
		return strings.Join(log, " ")
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
	// Same-time events fire in schedule order: p0's 3µs wake (scheduled
	// 3rd overall among its own) vs p2's first — verify expected total
	// ordering by spot-checking the trace begins with p0@1µs.
	if !strings.HasPrefix(first, "p0@1.000µs") {
		t.Fatalf("unexpected trace start: %s", first)
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go("a", func(p *Proc) {
		p.Sleep(time1())
		order = append(order, "a")
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(time1())
		order = append(order, "b")
	})
	e.Run()
	if strings.Join(order, "") != "ab" {
		t.Fatalf("same-time order = %v, want a before b", order)
	}
}

func time1() units.Time { return 1 * units.Microsecond }

func TestParkAndWake(t *testing.T) {
	e := NewEngine()
	var parked *Proc
	var wokenAt units.Time
	parked = e.Go("sleeper", func(p *Proc) {
		wokenAt = p.ParkUntilWake()
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(7 * units.Microsecond)
		parked.Wake()
	})
	e.Run()
	if wokenAt != 7*units.Microsecond {
		t.Fatalf("woken at %v, want 7µs", wokenAt)
	}
}

func TestEarlyWakeCancelsTimer(t *testing.T) {
	e := NewEngine()
	var resumed units.Time
	var wakes int
	sleeper := e.Go("sleeper", func(p *Proc) {
		resumed = p.Sleep(100 * units.Microsecond)
		// Park again; if the stale timer still fired we'd resume at
		// 100µs instead of the partner's second wake at 20µs.
		resumed2 := p.ParkUntilWake()
		if resumed2 != 20*units.Microsecond {
			t.Errorf("second resume at %v, want 20µs", resumed2)
		}
		wakes++
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(10 * units.Microsecond)
		sleeper.Wake()
		p.Sleep(10 * units.Microsecond)
		sleeper.Wake()
	})
	e.Run()
	if resumed != 10*units.Microsecond {
		t.Fatalf("early wake at %v, want 10µs", resumed)
	}
	if wakes != 1 {
		t.Fatalf("sleeper body incomplete")
	}
}

func TestDoubleWakeSameInstant(t *testing.T) {
	e := NewEngine()
	count := 0
	sleeper := e.Go("sleeper", func(p *Proc) {
		p.ParkUntilWake()
		count++
	})
	e.Go("w1", func(p *Proc) {
		p.Sleep(time1())
		sleeper.Wake()
		sleeper.Wake() // duplicate at the same instant: no-op
	})
	e.Run()
	if count != 1 {
		t.Fatalf("sleeper ran %d times", count)
	}
}

func TestWakeFinishedProcIsNoop(t *testing.T) {
	e := NewEngine()
	done := e.Go("short", func(p *Proc) {})
	e.Go("late", func(p *Proc) {
		p.Sleep(time1())
		done.Wake() // must not panic or hang
	})
	e.Run()
}

func TestSpawnFromRunningProc(t *testing.T) {
	e := NewEngine()
	var childRan units.Time
	e.Go("parent", func(p *Proc) {
		p.Sleep(3 * units.Microsecond)
		e.Go("child", func(c *Proc) {
			c.Sleep(2 * units.Microsecond)
			childRan = e.Now()
		})
		p.Sleep(10 * units.Microsecond)
	})
	e.Run()
	if childRan != 5*units.Microsecond {
		t.Fatalf("child ran at %v, want 5µs", childRan)
	}
}

func TestDeadlockPanics(t *testing.T) {
	e := NewEngine()
	e.Go("stuck", func(p *Proc) {
		p.ParkUntilWake() // nobody will wake it
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		if !strings.Contains(fmt.Sprint(r), "deadlock") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	e.Run()
}

func TestNegativeSleepPanics(t *testing.T) {
	e := NewEngine()
	e.Go("bad", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on negative sleep")
			}
		}()
		p.Sleep(-1)
	})
	e.Run()
}

func TestManyProcsStress(t *testing.T) {
	e := NewEngine()
	const n = 100
	total := 0
	for i := 0; i < n; i++ {
		i := i
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			for k := 0; k < 50; k++ {
				p.Sleep(units.Time(1+(i*7+k*13)%23) * units.Microsecond)
			}
			total++
		})
	}
	e.Run()
	if total != n {
		t.Fatalf("%d procs finished, want %d", total, n)
	}
}

// TestWakeQueueOneEntryPerProc: repeated early Wakes and Injects
// replace a process's pending wake in place. The queue never holds
// more than one entry per live process, and a superseded wake never
// fires.
func TestWakeQueueOneEntryPerProc(t *testing.T) {
	e := NewEngine()
	maxQueued := 0
	check := func() {
		if len(e.queue) > e.alive {
			t.Errorf("%d queued wakes for %d live processes", len(e.queue), e.alive)
		}
		maxQueued = max(maxQueued, len(e.queue))
	}
	var resumes []units.Time
	sleeper := e.Go("sleeper", func(p *Proc) {
		for range 8 {
			resumes = append(resumes, p.Sleep(units.Millisecond))
		}
	})
	e.Go("waker", func(p *Proc) {
		for range 4 {
			p.Sleep(10 * units.Microsecond)
			sleeper.Wake()
			sleeper.Wake() // same instant: no second entry
			check()
		}
	})
	// A parked process that the tick hook injects again and again:
	// only the earliest wake may survive.
	var injected []units.Time
	parked, armed := false, false
	target := e.Go("target", func(p *Proc) {
		parked = true
		injected = append(injected, p.ParkUntilWake())
	})
	e.SetTick(func() {
		check()
		if parked && !armed {
			armed = true
			for _, at := range []units.Time{100, 50, 80, 30, 60} {
				e.Inject(target, at*units.Microsecond)
			}
			check()
		}
	})
	e.Run()

	want := []units.Time{10, 20, 30, 40, 1040, 2040, 3040, 4040}
	if len(resumes) != len(want) {
		t.Fatalf("sleeper resumed %d times (%v), want %d", len(resumes), resumes, len(want))
	}
	for i, at := range want {
		if resumes[i] != at*units.Microsecond {
			t.Fatalf("sleeper resumes %v; a superseded timer fired (want %vµs at step %d)", resumes, at, i)
		}
	}
	if len(injected) != 1 || injected[0] != 30*units.Microsecond {
		t.Fatalf("injected target resumed at %v, want once at 30µs", injected)
	}
	if maxQueued > 3 || len(e.queue) != 0 {
		t.Fatalf("queue peaked at %d entries for 3 processes, %d left after Run", maxQueued, len(e.queue))
	}
}

func explode() { panic("boom") }

// TestTaskPanicCarriesProcessStack: a panic inside a process surfaces
// from Run as *TaskPanic carrying the faulting process's stack, after
// the other processes have been unwound through their defers.
func TestTaskPanicCarriesProcessStack(t *testing.T) {
	e := NewEngine()
	unwound := false
	e.Go("bystander", func(p *Proc) {
		defer func() { unwound = true }()
		p.ParkUntilWake()
	})
	e.Go("faulty", func(p *Proc) {
		p.Sleep(time1())
		explode()
	})
	defer func() {
		tp, ok := recover().(*TaskPanic)
		if !ok {
			t.Fatal("Run did not re-raise a *TaskPanic")
		}
		if tp.Value != "boom" {
			t.Fatalf("panic value %v, want boom", tp.Value)
		}
		if !strings.Contains(string(tp.Stack), "sim.explode") {
			t.Fatalf("stack lacks the faulting frame:\n%s", tp.Stack)
		}
		if !unwound {
			t.Fatal("parked bystander was not unwound")
		}
	}()
	e.Run()
}

// TestGoexitDoesNotHangRun: a process that calls runtime.Goexit (as
// t.FailNow does) ends the goroutine that called Run instead of
// leaving it blocked forever.
func TestGoexitDoesNotHangRun(t *testing.T) {
	done := make(chan struct{})
	returned := false
	go func() {
		defer close(done)
		e := NewEngine()
		e.Go("bystander", func(p *Proc) { p.Sleep(time1()) })
		e.Go("quitter", func(p *Proc) {
			p.Sleep(time1())
			runtime.Goexit()
		})
		e.Run()
		returned = true
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung after a process called runtime.Goexit")
	}
	if returned {
		t.Fatal("Run returned normally after a process called runtime.Goexit")
	}
}

// TestSwitchAllocatesNothing: once warm, a Sleep loop and a park/wake
// ping-pong allocate nothing per switch.
func TestSwitchAllocatesNothing(t *testing.T) {
	e := NewEngine()
	var sleepAllocs, pingAllocs float64
	var ping, pong *Proc
	stop := false
	ping = e.Go("ping", func(p *Proc) {
		p.Sleep(time1()) // warm: pong is parked, the queue has grown
		sleepAllocs = testing.AllocsPerRun(100, func() { p.Sleep(units.Nanosecond) })
		pingAllocs = testing.AllocsPerRun(100, func() {
			pong.Wake()
			p.ParkUntilWake()
		})
		stop = true
		pong.Wake()
	})
	pong = e.Go("pong", func(p *Proc) {
		for {
			p.ParkUntilWake()
			if stop {
				return
			}
			ping.Wake()
		}
	})
	e.Run()
	if sleepAllocs != 0 || pingAllocs != 0 {
		t.Fatalf("allocs per switch: sleep %v, ping-pong %v; want 0", sleepAllocs, pingAllocs)
	}
}

// TestIdleHookFeedsQuiescentEngine: a parked process plus an empty
// event queue triggers the idle hook instead of the deadlock panic;
// the hook injects a future wake and the simulation proceeds at that
// virtual time.
func TestIdleHookFeedsQuiescentEngine(t *testing.T) {
	e := NewEngine()
	var woke units.Time
	p := e.Go("sleeper", func(p *Proc) {
		woke = p.ParkUntilWake()
	})
	fed := false
	e.SetIdle(func() bool {
		if fed {
			return false // second quiescence: let the engine drain
		}
		fed = true
		e.Inject(p, 3*units.Millisecond)
		return true
	})
	e.Run()
	if woke != 3*units.Millisecond {
		t.Fatalf("woke at %v, want 3ms", woke)
	}
}

// TestInjectFrontPriority: an injected wake at a virtual time where an
// ordinary event is already scheduled dispatches first, regardless of
// how late (in wall-clock terms) it was injected — the determinism
// property external arrivals rely on.
func TestInjectFrontPriority(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go("timer", func(p *Proc) {
		p.Sleep(units.Millisecond)
		order = append(order, "timer")
	})
	parked := false
	target := e.Go("injected", func(p *Proc) {
		parked = true
		p.ParkUntilWake()
		order = append(order, "injected")
	})
	armed := false
	e.SetTick(func() {
		if parked && !armed {
			armed = true
			e.Inject(target, units.Millisecond) // same instant as the timer, injected later
		}
	})
	e.Run()
	if strings.Join(order, ",") != "injected,timer" {
		t.Fatalf("order = %v, want injected before timer at the same instant", order)
	}
}

// TestInjectKeepsEarlierWake: injecting a later wake than the one
// already pending must not postpone the process.
func TestInjectKeepsEarlierWake(t *testing.T) {
	e := NewEngine()
	var woke units.Time
	p := e.Go("sleeper", func(p *Proc) {
		woke = p.Sleep(units.Microsecond)
	})
	armed := false
	e.SetTick(func() {
		if !armed {
			armed = true
			e.Inject(p, units.Millisecond) // later than the pending 1µs timer
		}
	})
	e.Run()
	if woke != units.Microsecond {
		t.Fatalf("woke at %v; a later Inject displaced an earlier wake", woke)
	}
}

// TestIsUnwind distinguishes the teardown signal from user panics.
func TestIsUnwind(t *testing.T) {
	if !IsUnwind(abortSignal{}) {
		t.Fatal("abortSignal not recognized")
	}
	if IsUnwind("boom") || IsUnwind(nil) {
		t.Fatal("user values misclassified as unwind")
	}
}
