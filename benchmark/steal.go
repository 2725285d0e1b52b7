package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// The benchmark runs on virtual machines that share their host: the
// hypervisor takes CPU time away from this machine whenever another
// guest runs ("steal"), in episodes of seconds to minutes that make
// whole runs 20–40% slower. A wall-clock metric then measures the
// neighbours. The benchmark therefore logs the machine's stolen CPU
// time as it runs and reports each time-based end-to-end metric over
// the time the machine actually ran: an interval of wall time w in
// which a share s of the machine's CPU time (over all its CPUs) was
// stolen counts as w·(1−s).
//
//   - A rate is taken per window of its timed phase as work ÷ the
//     window's unstolen time, and reported as the mean of the middle
//     half of the windows (midMean).
//   - Joules per job, which the energy model accrues with wall time,
//     is scaled the same way per window: (joules ÷ jobs)·(1−s).
//   - A latency has the stolen CPU time per CPU during it taken off
//     (which is the same w·(1−s)) before percentiles are taken.
//
// On a machine nothing is stolen from (or without /proc/stat) these
// are the plain wall-clock figures.

// stealPeriod is how often the steal log samples /proc/stat; the
// kernel reports stolen time in 10 ms ticks.
const stealPeriod = 10 * time.Millisecond

// userHz is the unit of /proc/stat: clock ticks per second.
const userHz = 100

// stealLog samples the machine's cumulative stolen CPU time (summed
// over its CPUs) every stealPeriod until it is closed.
type stealLog struct {
	start time.Time
	cpus  float64
	stop  chan struct{}
	done  chan struct{}

	mu     sync.Mutex
	at     []time.Duration // sample times since start
	stolen []float64       // stolen CPU seconds since start
}

func startStealLog(cpus int) *stealLog {
	l := &stealLog{start: time.Now(), cpus: float64(cpus), stop: make(chan struct{}), done: make(chan struct{})}
	_, s0 := cpuTicks()
	l.sample(s0)
	go func() {
		defer close(l.done)
		tick := time.NewTicker(stealPeriod)
		defer tick.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-tick.C:
				l.sample(s0)
			}
		}
	}()
	return l
}

func (l *stealLog) sample(s0 float64) {
	_, s := cpuTicks()
	now := time.Since(l.start)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.at = append(l.at, now)
	l.stolen = append(l.stolen, (s-s0)/userHz)
}

// close stops the sampler and waits for it to exit.
func (l *stealLog) close() {
	close(l.stop)
	<-l.done
}

// cum is the stolen CPU seconds logged up to t.
func (l *stealLog) cum(t time.Time) float64 {
	d := t.Sub(l.start)
	l.mu.Lock()
	defer l.mu.Unlock()
	i := sort.Search(len(l.at), func(i int) bool { return l.at[i] > d }) - 1
	if i < 0 {
		return 0
	}
	return l.stolen[i]
}

// share is the share of the machine's CPU time stolen between t0 and
// t1, at most 1.
func (l *stealLog) share(t0, t1 time.Time) float64 {
	return min(1, ratio(l.cum(t1)-l.cum(t0), l.cpus*t1.Sub(t0).Seconds()))
}

// unstolenMS is the part of the wallMS milliseconds that ended at end
// during which the machine was not stolen from.
func (l *stealLog) unstolenMS(end time.Time, wallMS float64) float64 {
	return wallMS * (1 - l.share(end.Add(-time.Duration(wallMS*float64(time.Millisecond))), end))
}

// maxShare is the stolen share above which a window is left out: its
// unstolen time is too short to rate.
const maxShare = 0.9

// windows sums completed work into fixed windows of a timed phase, so
// a rate is the mean over the middle half of the windows of each
// window's work per unstolen second.
type windows struct {
	start time.Time
	width time.Duration
	mu    sync.Mutex
	sums  [][]float64 // per window, per quantity
}

// newWindows splits a phase of length d into windows of width w, each
// summing n quantities.
func newWindows(d, w time.Duration, n int) *windows {
	s := make([][]float64, max(1, int(d/w)))
	for i := range s {
		s[i] = make([]float64, n)
	}
	return &windows{start: time.Now(), width: w, sums: s}
}

// add counts vs as completed now; work completing after the phase's
// last window is not counted.
func (r *windows) add(vs ...float64) {
	i := r.index()
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < len(r.sums) {
		for q, v := range vs {
			r.sums[i][q] += v
		}
	}
}

// addAt adds v to quantity q of window i.
func (r *windows) addAt(i, q int, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i >= 0 && i < len(r.sums) {
		r.sums[i][q] += v
	}
}

// index is the window now falls in.
func (r *windows) index() int { return int(time.Since(r.start) / r.width) }

// each returns f(sums, unstolen share) of every window the machine
// mostly ran in.
func (r *windows) each(l *stealLog, f func(s []float64, run float64) float64) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var xs []float64
	for i, s := range r.sums {
		t0 := r.start.Add(time.Duration(i) * r.width)
		if sh := l.share(t0, t0.Add(r.width)); sh <= maxShare {
			if v := f(s, 1-sh); !math.IsNaN(v) {
				xs = append(xs, v)
			}
		}
	}
	return xs
}

// rate is the midMean over windows of quantity q per unstolen second.
func (r *windows) rate(l *stealLog, q int) float64 {
	return midMean(r.each(l, func(s []float64, run float64) float64 {
		return s[q] / (r.width.Seconds() * run)
	}))
}

// per is the midMean over windows of quantity q per unit of quantity u,
// scaled by the window's unstolen share (q accrues with wall time);
// windows without q or u are left out.
func (r *windows) per(l *stealLog, q, u int) float64 {
	return midMean(r.each(l, func(s []float64, run float64) float64 {
		if s[q] == 0 || s[u] == 0 {
			return math.NaN()
		}
		return s[q] / s[u] * run
	}))
}
