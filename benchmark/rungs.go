package main

import (
	"sync/atomic"
	"time"

	"hermes/internal/deque"
	"hermes/internal/sim"
	"hermes/internal/units"
)

// Deque rungs drive internal/deque through its public API, for both
// implementations: Chase–Lev (the Native default) and THE (the paper's
// protocol). Owner push+pop on a deep deque is the common case in a
// fork-join run; on an empty deque every pop takes the last-item path,
// the rare case. These should move forkjoin tasks_per_s and leave
// forkjoin jobs_per_s and sim unchanged.
const (
	dequeDepth  = 1024
	dequeOps    = 1 << 20
	dequeTrials = 5
	stealRun    = 200 * time.Millisecond
)

func dequeRungs(b *bench) {
	impls := []struct {
		name string
		mk   func() deque.Queue[*int]
	}{
		{"chaselev", func() deque.Queue[*int] { return deque.NewChaseLev[int](dequeDepth * 2) }},
		{"the", func() deque.Queue[*int] { return deque.New[*int](dequeDepth * 2) }},
	}
	for _, impl := range impls {
		p := "deque." + impl.name + "."
		b.layer.set(p+"push_pop_deep_ns", "ns", pushPopNs(impl.mk(), dequeDepth))
		b.layer.set(p+"push_pop_last_ns", "ns", pushPopNs(impl.mk(), 0))
		stealNs, failRatio := stealRung(impl.mk(), max(1, b.nproc-1))
		b.layer.set(p+"steal_ns", "ns", stealNs)
		b.layer.set(p+"steal_fail_ratio", "ratio", failRatio)
	}
}

// pushPopNs is the median over trials of the owner's push+pop cost
// with depth items below the working end.
func pushPopNs(d deque.Queue[*int], depth int) float64 {
	v := 1
	for range depth {
		d.Push(&v)
	}
	var xs []float64
	for range dequeTrials {
		t0 := time.Now()
		for range dequeOps {
			d.Push(&v)
			d.Pop()
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/dequeOps)
	}
	return median(xs)
}

// stealRung runs an owner that pushes a batch and pops it back while
// thieves steal from the head, and returns the thieves' time per steal
// attempt and the share of attempts that failed. With thieves =
// nproc−1 it uses no more than nproc goroutines.
func stealRung(d deque.Queue[*int], thieves int) (float64, float64) {
	var stop atomic.Bool
	var attempts atomic.Int64
	var busy atomic.Int64
	v := 1
	parallel(thieves+1, func(c int) {
		if c == 0 {
			deadline := time.Now().Add(stealRun)
			for time.Now().Before(deadline) {
				for range 64 {
					d.Push(&v)
				}
				for {
					if _, ok := d.Pop(); !ok {
						break
					}
				}
			}
			stop.Store(true)
			return
		}
		t0 := time.Now()
		var n int64
		for !stop.Load() {
			d.Steal()
			n++
		}
		attempts.Add(n)
		busy.Add(time.Since(t0).Nanoseconds())
	})
	_, _, steals, failed := d.Stats()
	return ratio(float64(busy.Load()), float64(attempts.Load())), ratio(float64(failed), float64(steals+failed))
}

// simRung measures the engine's process switch through the public
// internal/sim API: a park/wake ping-pong between two processes
// (Proc.ParkUntilWake / Proc.Wake), and a process that sleeps in a
// loop (Proc.Sleep, one timer event per switch). Plans to replace the
// goroutine handoff behind Proc rest on this cost; it should move sim
// tasks_per_s and leave forkjoin and serve unchanged.
const simSwitches = 200_000

func simRung(b *bench) {
	// ping runs first and parks; pong wakes it and parks; from then on
	// each wakes the other, two switches per round.
	e := sim.NewEngine()
	var ping, pong *sim.Proc
	var done bool
	ping = e.Go("ping", func(p *sim.Proc) {
		for i := range simSwitches / 2 {
			p.ParkUntilWake()
			done = i == simSwitches/2-1
			pong.Wake()
		}
	})
	pong = e.Go("pong", func(p *sim.Proc) {
		for !done {
			ping.Wake()
			p.ParkUntilWake()
		}
	})
	mem0 := markMem()
	t0 := time.Now()
	e.Run()
	b.layer.set("sim.switch_ns", "ns", float64(time.Since(t0).Nanoseconds())/simSwitches)
	b.layer.set("sim.switch_alloc_bytes", "B", mem0.since().bytes/simSwitches)

	e = sim.NewEngine()
	e.Go("sleeper", func(p *sim.Proc) {
		for range simSwitches {
			p.Sleep(units.Nanosecond)
		}
	})
	t0 = time.Now()
	e.Run()
	b.layer.set("sim.sleep_ns", "ns", float64(time.Since(t0).Nanoseconds())/simSwitches)
}
