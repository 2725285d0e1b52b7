package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"hermes"
	"hermes/internal/sim"
	"hermes/internal/trace"
	"hermes/internal/workload"
)

// Paper phase: Figure 6's fixed configuration, at the catalog's
// service sizes and at the worker counts Figure 6 sweeps on System A,
// less the largest to keep a repetition short. Like the figure harness
// (input seed 42, scheduler seed 42·7919+1 on its first trial) it does
// not depend on the run seed, so its outputs are bit-identical across
// every run and a behaviour change shows as a changed metric, not as
// seed-to-seed noise: one scheduler seed moves the saving by ±1 point.
var paperWorkers = []int{2, 4, 8}

const (
	paperInputSeed = 42
	paperSchedSeed = paperInputSeed*7919 + 1
)

// Fleet phase: one Poisson ticks trace onto a p2c fleet, open loop in
// virtual time. Unlike the paper phase, it takes its trace and its
// cluster's scheduler seed from the run seed, as every other input of
// the benchmark does: its virtual outputs are bit-identical for the
// same seed (each run checks its repetitions against each other) but
// not across seeds, where virtual_p99_ms and virtual_joules_per_job
// move by about 1%. The paper phase is fixed because one seed moves its
// saving by a sixth; the fleet has no such spread to remove.
const (
	fleetMachines = 16
	fleetWorkers  = 4
	fleetRPS      = 12000
	fleetWindow   = 500 * time.Millisecond
)

var fleetSpec = workload.Spec{Kind: "ticks", N: 64, Grain: 16, Work: 100_000}

// paperCell is one single-shot comparison: spec on workers simulated
// System A cores, baseline against unified.
type paperCell struct {
	spec    workload.Spec
	workers int
}

// paperOut is what a set of single-shot cells produced.
type paperOut struct {
	savingPct, lossPct float64     // Figure 6: mean over cells
	hostMS, buildMS    []float64   // host and input-build time of every single-shot run
	hostEnd            []time.Time // when each single-shot run ended
	hostTotal          time.Duration
	tasks              int64
	uni                *jobTotals // unified runs' counters
	fingerprint        string     // every virtual output, for the determinism check
}

// singleShot builds spec and runs it alone on the simulator, turning
// a failed self-check (a panic inside the task) into an error.
func singleShot(b *bench, req int64, spec workload.Spec, workers int, mode hermes.Mode) (rep hermes.Report, build, host time.Duration, err error) {
	root := b.tr.begin("core.run", -1, req)
	defer b.tr.end(root)
	t0 := time.Now()
	sp := b.tr.begin("workload.build", root, req)
	task, _, err := spec.Task()
	b.tr.end(sp)
	build = time.Since(t0)
	if err != nil {
		return rep, build, 0, err
	}
	defer func() {
		if r := recover(); r != nil {
			if tp, ok := r.(*sim.TaskPanic); ok {
				r = tp.Value
			}
			err = fmt.Errorf("%s on %d workers (%v): %v", spec.Kind, workers, mode, r)
		}
	}()
	t1 := time.Now()
	rep = hermes.Run(hermes.Config{Workers: workers, Mode: mode, Seed: paperSchedSeed}, task)
	return rep, build, time.Since(t1), nil
}

// paperCells runs every cell in baseline and unified mode and folds
// the results as Figure 6 defines them: energy saving 1 − E_u/E_b and
// time loss T_u/T_b − 1, averaged over cells.
func paperCells(b *bench, cells []paperCell) (paperOut, error) {
	out := paperOut{uni: &jobTotals{}}
	var fp strings.Builder
	var done int
cells:
	for i, c := range cells {
		var reps [2]hermes.Report
		for m, mode := range []hermes.Mode{hermes.Baseline, hermes.Unified} {
			rep, build, host, err := singleShot(b, int64(i), c.spec, c.workers, mode)
			if !b.check(err) {
				continue cells // a failed self-check: counted, and the cell left out
			}
			reps[m] = rep
			out.buildMS = append(out.buildMS, ms(build))
			out.hostMS = append(out.hostMS, ms(host))
			out.hostEnd = append(out.hostEnd, time.Now())
			out.hostTotal += host
			out.tasks += rep.Tasks
			fmt.Fprintf(&fp, "%s/%d/%v span=%d energy=%x tasks=%d steals=%d switches=%d commits=%d slow=%d\n",
				c.spec.Kind, c.workers, mode, rep.Span, math.Float64bits(rep.EnergyJ), rep.Tasks,
				rep.Steals, rep.TempoSwitches, rep.DVFSCommits, rep.SlowBusyTime)
		}
		base, uni := reps[0], reps[1]
		out.savingPct += 100 * (1 - uni.EnergyJ/base.EnergyJ)
		out.lossPct += 100 * (uni.Span.Seconds()/base.Span.Seconds() - 1)
		out.uni.add(uni, 0, 0, 0)
		done++
	}
	if done == 0 {
		return out, errors.New("no paper cell completed")
	}
	out.savingPct /= float64(done)
	out.lossPct /= float64(done)
	out.fingerprint = fp.String()
	return out, nil
}

// fleetTrace generates the fleet phase's arrivals.
func fleetTrace(b *bench, window time.Duration) ([]hermes.Arrival, error) {
	proc, err := trace.Resolve("poisson")
	if err != nil {
		return nil, err
	}
	sp := b.tr.begin("trace.arrivals", -1, 0)
	defer b.tr.end(sp)
	return proc.Arrivals(fleetSpec.SizedTask, b.seed, fleetRPS, window)
}

func newCluster(b *bench) (*hermes.Cluster, error) {
	sp := b.tr.begin("cluster.new", -1, 0)
	defer b.tr.end(sp)
	return hermes.NewCluster(hermes.WithMachines(fleetMachines),
		hermes.WithPlacement(hermes.PlacementPowerOfChoices(2)),
		hermes.WithWorkers(fleetWorkers), hermes.WithMode(hermes.Unified), hermes.WithSeed(b.seed))
}

// paperGrid is the paper phase's cells: every PBBS kernel on Figure
// 6's fixed input, at each worker count.
func paperGrid(workers []int) []paperCell {
	var cells []paperCell
	for _, name := range pbbsKernels {
		for _, w := range workers {
			cells = append(cells, paperCell{spec: workload.Spec{Kind: name, Seed: paperInputSeed}, workers: w})
		}
	}
	return cells
}

// setModel sets the four model metrics: Figure 6's saving and loss
// from the paper phase, the fleet's virtual p99 and joules per job.
func setModel(m values, p paperOut, fl fleetOut) {
	m.set("energy_saving_pct", "%", p.savingPct)
	m.set("time_loss_pct", "%", p.lossPct)
	m.set("virtual_p99_ms", "ms", fl.p99MS)
	m.set("virtual_joules_per_job", "J", fl.joulesPerJob)
}

// simModel gives forkjoin and serve the four model metrics from one
// repetition of sim's paper and fleet phases, unchanged, so they equal
// sim's values for the same seed. They describe the simulated machine,
// not the workload that reports them (see the package comment).
func simModel(b *bench) error {
	// Built first, so the cluster is quiescent when the trace arrives
	// (see runSim).
	cl, err := newCluster(b)
	if err != nil {
		return err
	}
	p, err := paperCells(b, paperGrid(paperWorkers))
	if err != nil {
		cl.Close()
		return err
	}
	arrivals, err := fleetTrace(b, fleetWindow)
	if err != nil {
		cl.Close()
		return err
	}
	fl, err := runFleet(b, arrivals, cl)
	if err != nil {
		return err
	}
	setModel(b.e2e, p, fl)
	fmt.Printf("model metrics: sim's paper phase (%d single-shot cells) and fleet phase (%d jobs, seed %d), not a property of this workload\n",
		len(p.hostMS)/2, len(arrivals), b.seed)
	return nil
}

// runSim is the sim workload (see the package comment).
func runSim(b *bench) error {
	setups, window := 31, fleetWindow
	if b.probe {
		setups, window = 1, fleetWindow/5
	}
	var arrivals []hermes.Arrival
	var cl *hermes.Cluster
	var setupS, genMS []float64
	for i := range setups {
		t0 := time.Now()
		a, err := fleetTrace(b, window)
		if err != nil {
			return err
		}
		genMS = append(genMS, ms(time.Since(t0)))
		c, err := newCluster(b)
		if err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < setups-1 {
			c.Close()
		} else {
			arrivals, cl = a, c
		}
	}
	b.e2e.set("setup_s", "s", median(setupS))

	// Paper phase, repeated until half the run has passed (at least
	// twice): every repetition must reproduce the first one's virtual
	// outputs bit for bit.
	workers := paperWorkers
	if b.probe {
		workers = workers[:1]
	}
	cells := paperGrid(workers)
	start := time.Now()
	var first paperOut
	var reps []paperOut
	for rep := 0; rep < 2 || time.Since(start) < b.dur/2; rep++ {
		p, err := paperCells(b, cells)
		if err != nil {
			return err
		}
		if rep == 0 {
			first = p
		} else if p.fingerprint != first.fingerprint {
			b.problem(fmt.Sprintf("paper phase repetition %d differs from the first: the simulator is not deterministic", rep))
		}
		reps = append(reps, p)
	}

	// Fleet phase: the same trace onto a fresh cluster, repeated until
	// the run's time is up (at least twice); every repetition must
	// reproduce the first one's virtual outputs bit for bit. The host
	// rates are the simulator engine's speed. SubmitTrace replays
	// deterministically only into a quiescent cluster, and a new
	// cluster's start-up events race a submission made at once, so each
	// repetition's cluster is built one repetition ahead (the first in
	// set-up).
	mem0 := markMem()
	var fl fleetOut
	type replay struct {
		start, end time.Time
		tasks      int64
	}
	var replays []replay
	var hostTotal time.Duration
	var tasks int64
	for rep := 0; ; rep++ {
		next, err := newCluster(b)
		if err != nil {
			cl.Close()
			return err
		}
		t0 := time.Now()
		cur, err := runFleet(b, arrivals, cl)
		if err != nil {
			next.Close()
			return err
		}
		replays = append(replays, replay{t0, t0.Add(cur.host), cur.tasks})
		if rep == 0 {
			fl = cur
		} else if cur.fingerprint != fl.fingerprint {
			b.problem(fmt.Sprintf("fleet repetition %d differs from the first: the simulator is not deterministic", rep))
		}
		hostTotal += cur.host
		tasks += cur.tasks
		cl = next
		if rep >= 1 && time.Since(start) >= b.dur {
			cl.Close()
			break
		}
	}
	mem := mem0.since()

	// Rates per replay over the time the machine was not stolen from
	// (see steal.go), as their median over replays.
	var taskRates, jobRates []float64
	for _, r := range replays {
		run := r.end.Sub(r.start).Seconds() * (1 - b.steal.share(r.start, r.end))
		taskRates = append(taskRates, float64(r.tasks)/run)
		jobRates = append(jobRates, float64(len(arrivals))/run)
	}
	b.e2e.set("tasks_per_s", "1/s", median(taskRates))
	b.e2e.set("jobs_per_s", "1/s", median(jobRates))
	// Latency: each single-shot run's unstolen host time, as its median
	// over the repetitions, then the percentiles across runs.
	hostMS := make([]float64, len(first.hostMS))
	for i := range hostMS {
		var xs []float64
		for _, p := range reps {
			if i < len(p.hostMS) {
				xs = append(xs, b.steal.unstolenMS(p.hostEnd[i], p.hostMS[i]))
			}
		}
		hostMS[i] = median(xs)
	}
	b.e2e.set("latency_p50_ms", "ms", quantile(hostMS, 0.5))
	b.e2e.set("latency_p99_ms", "ms", quantile(hostMS, 0.99))
	b.e2e.set("joules_per_job", "J", ratio(first.uni.energyJ, float64(first.uni.jobs)))
	setModel(b.e2e, first, fl)
	b.e2e.set("peak_rss_mb", "MB", peakRSSMB("self"))
	fmt.Printf("sim: %d single-shot runs × %d repetitions (latency samples %d), fleet of %d jobs × %d repetitions\n",
		len(hostMS), len(reps), len(hostMS), len(arrivals), len(replays))

	// Layer metrics. sim: engine cost per simulated fleet task, which
	// should move sim tasks_per_s and peak_rss_mb. core: per-job
	// scheduling counters of the paper runs, which decide
	// energy_saving_pct and time_loss_pct. cluster: placement balance,
	// which decides the fleet's virtual_p99_ms and
	// virtual_joules_per_job.
	b.layer.set("sim.wall_ns_per_task", "ns", ratio(float64(hostTotal.Nanoseconds()), float64(tasks)))
	b.layer.set("sim.alloc_bytes_per_task", "B", ratio(mem.bytes, float64(tasks)))
	b.layer.set("sim.gc_cycles", "count", mem.gcs)
	b.layer.set("core.run_ms", "ms", median(hostMS))
	b.layer.set("core.steals_per_job", "count", ratio(float64(first.uni.steals), float64(first.uni.jobs)))
	b.layer.set("core.tempo_switches_per_job", "count", ratio(float64(first.uni.tempoSwitches), float64(first.uni.jobs)))
	b.layer.set("core.slow_busy_share", "ratio", ratio(first.uni.slowBusy, first.uni.busy))
	setTempo(b.layer, first.uni)
	b.layer.set("workload.build_ms", "ms", mean(first.buildMS))
	b.layer.set("core.queue_p99_ms", "ms", fl.queueP99MS)
	b.layer.set("cluster.placement_imbalance", "ratio", fl.imbalance)
	b.layer.set("cluster.idle_machines", "count", fl.idle)
	b.layer.set("cluster.attributed_energy_share", "ratio", fl.attributed)
	b.layer.set("trace.gen_ms", "ms", median(genMS))
	return nil
}

// fleetOut is what the fleet phase produced.
type fleetOut struct {
	host              time.Duration
	tasks             int64
	p99MS, queueP99MS float64
	joulesPerJob      float64
	imbalance, idle   float64
	// attributed is Σ per-job joules ÷ fleet joules: below 1 by the
	// draw no job is charged for (idle machines and idle gaps).
	attributed  float64
	fingerprint string // the virtual outputs, for the determinism check
}

// runFleet replays f's trace onto its cluster and checks the fleet's
// conservation laws: arrivals = completed + lost + errored, and the
// per-job joules sum to no more than the fleet joules (the rest is
// draw no job is charged for).
func runFleet(b *bench, arrivals []hermes.Arrival, cl *hermes.Cluster) (fleetOut, error) {
	var out fleetOut
	t0 := time.Now()
	sp := b.tr.begin("cluster.submit_trace", -1, 0)
	jobs, err := cl.SubmitTrace(context.Background(), arrivals)
	b.tr.end(sp)
	if err != nil {
		cl.Close()
		return out, err
	}
	var sojourn, queue []float64
	var completed, lost, errored int64
	var jobJ float64
	sp = b.tr.begin("cluster.wait", -1, 0)
	for _, j := range jobs {
		rep, err := j.Wait()
		switch {
		case err == nil:
			completed++
		case errors.Is(err, hermes.ErrJobLost):
			lost++
		default:
			errored++
		}
		b.check(err)
		out.tasks += rep.Tasks
		jobJ += rep.EnergyJ
		sojourn = append(sojourn, rep.Sojourn.Seconds()*1e3)
		queue = append(queue, (rep.Sojourn-rep.Span).Seconds()*1e3)
	}
	b.tr.end(sp)
	sp = b.tr.begin("cluster.close", -1, 0)
	err = cl.Close()
	b.tr.end(sp)
	out.host = time.Since(t0)
	if err != nil {
		return out, err
	}
	st := cl.ClusterStats()
	if n := int64(len(arrivals)); completed+lost+errored != n || st.Completed+st.Lost != n {
		b.problem(fmt.Sprintf("fleet job ledger: %d arrivals, %d completed + %d lost + %d errored, cluster says %d completed + %d lost",
			n, completed, lost, errored, st.Completed, st.Lost))
	}
	if jobJ > st.EnergyJ*(1+1e-9) || jobJ <= 0 {
		b.problem(fmt.Sprintf("fleet energy: per-job joules sum to %.9g, fleet total is %.9g", jobJ, st.EnergyJ))
	}
	out.attributed = ratio(jobJ, st.EnergyJ)
	out.p99MS = quantile(sojourn, 0.99)
	out.queueP99MS = quantile(queue, 0.99)
	out.joulesPerJob = st.EnergyJ / float64(max(1, completed))
	out.fingerprint = fmt.Sprintf("energy=%x jobJ=%x p99=%x queue=%x placed=%v completed=%d",
		math.Float64bits(st.EnergyJ), math.Float64bits(jobJ), math.Float64bits(out.p99MS),
		math.Float64bits(out.queueP99MS), st.Placed, st.Completed)
	var maxPlaced, sum int64
	for _, p := range st.Placed {
		maxPlaced = max(maxPlaced, p)
		sum += p
		if p == 0 {
			out.idle++
		}
	}
	out.imbalance = ratio(float64(maxPlaced), float64(sum)/float64(len(st.Placed)))
	return out, nil
}
