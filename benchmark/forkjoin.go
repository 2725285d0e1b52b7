package main

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"hermes"
	"hermes/internal/metrics"
	"hermes/internal/obs"
	"hermes/internal/workload"
)

// pbbsKernels are the five PBBS catalog kernels, run at the catalog's
// service sizes.
var pbbsKernels = []string{"knn", "ray", "sort", "compare", "hull"}

// instancesPerKernel is how many seeded inputs each kernel cycles
// through, so a run sees several instances without rebuilding a new
// one per job.
const instancesPerKernel = 4

// inputSeed derives the input seed of instance i of kernel k from the
// run seed (never 0, which would select the catalog default).
func inputSeed(runSeed int64, k, i int) int64 {
	return runSeed*7919 + int64(k)*104729 + int64(i)*1299709 + 1
}

// jobTotals accumulates the counters of completed job Reports.
type jobTotals struct {
	mu                                    sync.Mutex
	jobs                                  int
	tasks, steals, failedSteals, parks    int64
	tempoSwitches, dvfsCommits            int64
	busy, slowBusy, spin, idle            float64 // seconds
	energyJ                               float64
	latencyMS, queueUS, submitUS, buildMS []float64
	ends                                  []time.Time // when each job's Wait returned
}

func (t *jobTotals) add(rep hermes.Report, latency, submit, build time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jobs++
	t.tasks += rep.Tasks
	t.steals += rep.Steals
	t.failedSteals += rep.FailedSteals
	t.parks += rep.Parks
	t.tempoSwitches += rep.TempoSwitches
	t.dvfsCommits += rep.DVFSCommits
	t.busy += rep.BusyTime.Seconds()
	t.slowBusy += rep.SlowBusyTime.Seconds()
	t.spin += rep.SpinTime.Seconds()
	t.idle += rep.IdleTime.Seconds()
	t.energyJ += rep.EnergyJ
	t.latencyMS = append(t.latencyMS, ms(latency))
	t.ends = append(t.ends, time.Now())
	t.queueUS = append(t.queueUS, (rep.Sojourn-rep.Span).Seconds()*1e6)
	t.submitUS = append(t.submitUS, float64(submit.Nanoseconds())/1e3)
	t.buildMS = append(t.buildMS, ms(build))
}

// unstolenMS is every job's latency over the time the machine was
// not stolen from (see steal.go).
func (t *jobTotals) unstolenMS(l *stealLog) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	xs := make([]float64, len(t.latencyMS))
	for i, lat := range t.latencyMS {
		xs[i] = l.unstolenMS(t.ends[i], lat)
	}
	return xs
}

// parallel runs body on n goroutines and waits for all of them.
func parallel(n int, body func(caller int)) {
	var wg sync.WaitGroup
	for c := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(c)
		}()
	}
	wg.Wait()
}

// rateWindow is the window width of the fine and serve phases' rates.
const rateWindow = 500 * time.Millisecond

// closedLoop runs body on n callers, each issuing its next call only
// after the previous one returned, until d has passed. It returns the
// wall time from start until the last call finished.
func closedLoop(n int, d time.Duration, body func(caller, i int)) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	parallel(n, func(c int) {
		for i := 0; time.Now().Before(deadline); i++ {
			body(c, i)
		}
	})
	return time.Since(start)
}

// native is a Native Unified Runtime with the same observer pipeline
// hermes-serve runs: an async sink into a metrics registry, with the
// delivered events counted.
type native struct {
	rt     *hermes.Runtime
	reg    *metrics.Registry
	events atomic.Int64
}

func newNative() (*native, error) {
	n := &native{reg: metrics.New()}
	count := obs.Func(func(e obs.Event) {
		n.events.Add(1)
		n.reg.Observe(e)
	})
	rt, err := hermes.New(hermes.WithBackend(hermes.Native), hermes.WithMode(hermes.Unified),
		hermes.WithAsyncObserver(count, 1<<16))
	if err != nil {
		return nil, err
	}
	n.rt = rt
	return n, nil
}

// job builds spec, submits it and waits for it, recording spans under
// one request id. It returns the report, the Submit→Wait latency, the
// Submit call's own time and the build time.
func (n *native) job(tr *tracer, req int64, spec workload.Spec, class hermes.Class) (hermes.Report, time.Duration, time.Duration, time.Duration, error) {
	root := tr.begin("bench.job", -1, req)
	defer tr.end(root)
	t0 := time.Now()
	sp := tr.begin("workload.build", root, req)
	task, _, err := spec.Task()
	tr.end(sp)
	build := time.Since(t0)
	if err != nil {
		return hermes.Report{}, 0, 0, build, err
	}
	t1 := time.Now()
	sp = tr.begin("rt.submit", root, req)
	j, err := n.rt.Submit(context.Background(), task, hermes.WithClass(class))
	tr.end(sp)
	submit := time.Since(t1)
	if err != nil {
		return hermes.Report{}, 0, submit, build, err
	}
	sp = tr.begin("rt.wait", root, req)
	rep, err := j.Wait()
	tr.end(sp)
	return rep, time.Since(t1), submit, build, err
}

// warmSpec is the one job that completes a Runtime's set-up.
var warmSpec = workload.Spec{Kind: "spawnjoin", N: 256}

// runForkjoin is the forkjoin workload (see the package comment).
func runForkjoin(b *bench) error {
	// The first few dozen Runtimes of a fresh process set up several
	// times slower than later ones, so the median of this many measures
	// the Runtime's steady set-up, not the process's warm-up.
	setups := 101
	if b.probe {
		setups = 1
	}
	var n *native
	var setupS []float64
	for i := range setups {
		t0 := time.Now()
		cur, err := newNative()
		if err != nil {
			return err
		}
		_, _, _, _, err = cur.job(nil, 0, warmSpec, hermes.Class{})
		setupS = append(setupS, time.Since(t0).Seconds())
		if err != nil {
			cur.rt.Close()
			return fmt.Errorf("warm job: %w", err)
		}
		if i < setups-1 {
			cur.rt.Close()
		} else {
			n = cur
		}
	}
	b.e2e.set("setup_s", "s", median(setupS))
	var req atomic.Int64

	// Fine phase: the scheduler hot path, one sub-phase per job kind so
	// every caller runs the same kind at once. spawnjoin and fibtree
	// check their own results; a wrong fib fails its job.
	var fine jobTotals
	mem0 := markMem()
	var fineRates []float64
	var fineWall time.Duration
	for _, kind := range []string{"spawnjoin", "fibtree"} {
		spec := workload.Spec{Kind: kind}
		r := newWindows(b.dur/4, rateWindow, 1)
		fineWall += closedLoop(b.nproc, b.dur/4, func(c, i int) {
			rep, lat, sub, build, err := n.job(b.tr, req.Add(1), spec, hermes.Class{})
			if b.check(err) {
				fine.add(rep, lat, sub, build)
				r.add(float64(rep.Tasks))
			}
		})
		fineRates = append(fineRates, r.rate(b.steal, 0))
	}
	fineMem := mem0.since()

	// PBBS phase: real computation at service sizes, each output
	// verified inside its job. Its windows are longer: a window must
	// hold many jobs of tens of milliseconds. They sum jobs and joules.
	var pbbs jobTotals
	pbbsWin := newWindows(b.dur/2, b.dur/30, 2)
	pbbsWall := closedLoop(b.nproc, b.dur/2, func(c, i int) {
		k := (c + i) % len(pbbsKernels)
		spec := workload.Spec{Kind: pbbsKernels[k], Seed: inputSeed(b.seed, k, (i/len(pbbsKernels))%instancesPerKernel)}
		rep, lat, sub, build, err := n.job(b.tr, req.Add(1), spec, hermes.Class{})
		if b.check(err) {
			pbbs.add(rep, lat, sub, build)
			pbbsWin.add(1, rep.EnergyJ)
		}
	})
	scrape := scrapeMS(b.tr, n.reg)
	dropped := n.rt.EventsDropped()
	if err := n.rt.Close(); err != nil {
		return err
	}
	if fine.jobs == 0 || pbbs.jobs == 0 {
		return fmt.Errorf("no job completed (fine %d, pbbs %d)", fine.jobs, pbbs.jobs)
	}

	b.e2e.set("tasks_per_s", "1/s", mean(fineRates))
	b.e2e.set("jobs_per_s", "1/s", pbbsWin.rate(b.steal, 0))
	// Latency is that of the pbbs jobs. About 1% of spawnjoin jobs take
	// 4–5 ms instead of ~1 ms, and that share drifts around 1% with the
	// host, so a fine-phase p99 jumps between the two from run to run.
	lat := pbbs.unstolenMS(b.steal)
	b.e2e.set("latency_p50_ms", "ms", quantile(lat, 0.5))
	b.e2e.set("latency_p99_ms", "ms", quantile(lat, 0.99))
	// Each window holds jobs of all five kernels in turn, so its
	// joules per job is the mix's.
	b.e2e.set("joules_per_job", "J", pbbsWin.per(b.steal, 1, 0))
	fmt.Printf("forkjoin: fine %d jobs %d tasks in %v (spawnjoin %.4g, fibtree %.4g tasks/s); pbbs %d jobs in %v (latency samples %d)\n",
		fine.jobs, fine.tasks, fineWall.Round(time.Millisecond), fineRates[0], fineRates[1], pbbs.jobs, pbbsWall.Round(time.Millisecond), len(pbbs.latencyMS))

	// Layer metrics. rt: the hot path, from the fine phase, whose
	// per-task costs should move forkjoin tasks_per_s and nothing on
	// sim. tempo: from the pbbs phase, where residency and DVFS
	// decide joules_per_job and jobs_per_s together. workload: input
	// generation, inside every pbbs job's time. obs/metrics: the
	// observer pipeline every task boundary feeds.
	setRT(b.layer, append(fine.submitUS, pbbs.submitUS...), append(fine.queueUS, pbbs.queueUS...), &fine, fineMem)
	setTempo(b.layer, &pbbs)
	b.layer.set("workload.build_ms", "ms", mean(pbbs.buildMS))
	b.layer.set("obs.events_per_job", "count", float64(n.events.Load())/float64(fine.jobs+pbbs.jobs))
	b.layer.set("obs.dropped_events", "count", float64(dropped))
	b.layer.set("metrics.scrape_ms", "ms", scrape)

	// Read before the model pass, whose simulations would otherwise set
	// the high-water mark.
	b.e2e.set("peak_rss_mb", "MB", peakRSSMB("self"))
	if !b.model {
		return nil
	}
	return simModel(b)
}

// setRT sets the rt layer's metrics: submit and queue wait from every
// job of the run, the per-task costs from the hot-path jobs and the
// allocation during them.
func setRT(m values, submitUS, queueUS []float64, hot *jobTotals, mem memDelta) {
	m.set("rt.submit_us", "us", median(submitUS))
	m.set("rt.queue_wait_us", "us", median(queueUS))
	m.set("rt.ns_per_task", "ns", ratio(hot.busy*1e9, float64(hot.tasks)))
	m.set("rt.steals_per_ktask", "count", ratio(1000*float64(hot.steals), float64(hot.tasks)))
	m.set("rt.steal_success_ratio", "ratio", ratio(float64(hot.steals), float64(hot.steals+hot.failedSteals)))
	m.set("rt.parks_per_job", "count", ratio(float64(hot.parks), float64(hot.jobs)))
	m.set("rt.spin_share", "ratio", ratio(hot.spin, hot.busy+hot.spin+hot.idle))
	m.set("rt.allocs_per_task", "count", ratio(mem.mallocs, float64(hot.tasks)))
	m.set("rt.bytes_per_task", "B", ratio(mem.bytes, float64(hot.tasks)))
	m.set("rt.gc_cycles", "count", mem.gcs)
}

// setTempo sets the tempo layer's metrics from a run's job totals.
func setTempo(m values, t *jobTotals) {
	m.set("tempo.switches_per_job", "count", ratio(float64(t.tempoSwitches), float64(t.jobs)))
	m.set("tempo.dvfs_commits_per_job", "count", ratio(float64(t.dvfsCommits), float64(t.jobs)))
	m.set("tempo.slow_busy_share", "ratio", ratio(t.slowBusy, t.busy))
}

// scrapeMS is the median time to render the registry as /metrics
// text, over a few scrapes.
func scrapeMS(tr *tracer, reg *metrics.Registry) float64 {
	var xs []float64
	for range 15 {
		t0 := time.Now()
		sp := tr.begin("metrics.scrape", -1, 0)
		err := reg.WritePrometheus(io.Discard)
		tr.end(sp)
		if err != nil {
			return 0
		}
		xs = append(xs, ms(time.Since(t0)))
	}
	return median(xs)
}
