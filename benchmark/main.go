// Command hermes-benchmark is the repository's benchmark: one command
// that runs one of three workloads against hermes, checks every
// output, and prints the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run) as the last line of its output:
//
//	bash benchmark/run.sh --workload forkjoin|serve|sim --seed N --seconds S --trace 0|1
//
// All load comes from this one process, with at most nproc client
// goroutines or connections. The seed derives every generated input;
// hermes receives only those inputs.
//
// Workloads, and why each was chosen:
//
//   - forkjoin: nproc callers in a closed loop of Runtime.Submit →
//     Job.Wait on the Native backend, Unified mode. Its fine phase
//     (spawnjoin and fibtree jobs) is the only load where the Native
//     scheduler's hot path (internal/deque, internal/rt, the
//     internal/tempo thresholds) does most of the work; its pbbs phase
//     (the five PBBS kernels at service sizes) is dominated by real
//     computation and tempo/DVFS residency with few tasks per job. A
//     hot-path change should move the fine phase and leave pbbs flat.
//   - serve: hermes-serve -backend native as a child process on
//     loopback, driven by nproc clients in a closed loop, each with one
//     keep-alive connection doing POST /jobs and a long-poll GET
//     /jobs/{id}?wait=. Sizes and classes come from the seeded mix
//     trace of ticks. Requests are coarse with few tasks, so decoding,
//     admission, intake, long-poll wake-up and encoding are a large
//     share of each one and the deque is not. It is a closed loop
//     because a long-poll holds its connection for the whole job.
//   - sim: virtual-time runs driven by one goroutine. The paper phase
//     reproduces Figure 6 (PBBS kernels on the simulated System A,
//     single-shot, baseline vs unified, at several worker counts); its
//     host time per run is the latency. The fleet phase replays one
//     seeded Poisson ticks trace onto a 16-machine p2c Cluster; its
//     simulated tasks and jobs per host second are the engine's speed.
//     Host time is spent almost entirely in internal/sim and
//     internal/core (and the kernels' own computation), which the
//     timed parts of the other workloads do not touch, and the virtual
//     outputs are byte-deterministic per seed, so a behaviour change
//     shows as a changed metric, not as noise.
//
// Left out on purpose: internal/control (with nproc connections it can
// never shed), internal/fault (its plans lose jobs by design, which
// would blur the failure count), internal/sweep and internal/harness
// (wrappers over layers the benchmark calls directly).
//
// Every workload reports every end-to-end metric. The four model
// metrics (energy_saving_pct, time_loss_pct, virtual_p99_ms,
// virtual_joules_per_job) describe the simulated machine, not a
// host-timed run, so they belong to sim alone; forkjoin and serve
// carry them from one pass of sim's paper and fleet phases after their
// timed phases (untraced runs only), where they equal sim's values for
// the same seed and guard the model like sim does. They are not a
// property of forkjoin or serve.
//
// Time-based end-to-end metrics count only the time the hypervisor did
// not steal from the machine, logged from /proc/stat as the run goes
// (steal.go says how and why). Numbers are comparable only between
// runs on the same host; the host and seed are printed with every
// result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// endToEnd lists the end-to-end metrics every untraced run prints.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"tasks_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"joules_per_job", "J"},
	{"energy_saving_pct", "%"},
	{"time_loss_pct", "%"},
	{"virtual_p99_ms", "ms"},
	{"virtual_joules_per_job", "J"},
	{"peak_rss_mb", "MB"},
}

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"forkjoin": runForkjoin,
	"serve":    runServe,
	"sim":      runSim,
}

// bench is one run's configuration, operation counts and results.
type bench struct {
	seed     int64
	dur      time.Duration
	nproc    int
	serveBin string
	// probe shrinks a workload to a short pass: a traced run uses it
	// to measure the layers its own workload does not exercise.
	probe bool
	// tr records spans around every call into a layer; nil when
	// untraced.
	tr *tracer
	// steal logs the CPU time the hypervisor takes from the machine
	// during the run (see steal.go).
	steal *stealLog
	// model has forkjoin and serve run the simulator's model pass for
	// the four model metrics; they are end-to-end metrics only, so only
	// the untraced run needs it.
	model bool

	*ledger
	e2e   values
	layer values
}

// ledger counts a run's operations and keeps its failed checks; the
// passes of a traced run share one.
type ledger struct {
	attempted, failed atomic.Int64

	mu       sync.Mutex
	problems []string
}

// check counts one operation and whether its output was correct. The
// first few failures are kept for the report.
func (l *ledger) check(err error) bool {
	l.attempted.Add(1)
	if err == nil {
		return true
	}
	l.failed.Add(1)
	l.problem(err.Error())
	return false
}

// problem records a failed output check that is not itself an
// operation (a determinism or conservation law).
func (l *ledger) problem(msg string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(msg) > 300 {
		msg = msg[:300] + "…"
	}
	if len(l.problems) < 10 {
		l.problems = append(l.problems, msg)
	}
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: forkjoin, serve or sim")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Int("seconds", 10, "seconds of measured load")
		trace    = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		serveBin = flag.String("serve-bin", "", "hermes-serve binary the serve workload starts")
		out      = flag.String("out", ".bench_build", "directory for span files")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "hermes-benchmark: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	b := &bench{
		seed:     *seed,
		dur:      time.Duration(*seconds) * time.Second,
		nproc:    runtime.NumCPU(),
		serveBin: *serveBin,
		model:    *trace == 0,
		ledger:   &ledger{},
		e2e:      values{},
		layer:    values{},
	}
	host := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"nproc": b.nproc, "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": cpuModel(),
	}
	hj, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hj)

	total0, steal0 := cpuTicks()
	b.steal = startStealLog(b.nproc)
	var err error
	var res values
	if *trace == 0 {
		err = run(b)
		res = b.e2e
		if err == nil {
			err = complete(res, endToEnd)
		}
	} else {
		res, err = tracedRun(b, *name, filepath.Join(*out, fmt.Sprintf("spans-%s-%d.json", *name, *seed)))
	}
	b.steal.close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "hermes-benchmark: %s: %v\n", *name, err)
		os.Exit(1)
	}

	total1, steal1 := cpuTicks()
	fmt.Printf("host cpu time stolen by the hypervisor during the run: %.1f%% (time-based end-to-end metrics count only the time not stolen)\n", 100*ratio(steal1-steal0, total1-total0))
	names := make([]string, 0, len(res))
	for n := range res {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.6g %s\n", n, res[n].Value, res[n].Unit)
	}
	b.mu.Lock()
	problems := b.problems
	b.mu.Unlock()
	for _, p := range problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	fmt.Printf("attempted %d, failed %d\n", b.attempted.Load(), b.failed.Load())
	correct := len(problems) == 0 && b.failed.Load() == 0 && b.attempted.Load() > 0
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": b.attempted.Load(),
		"failed":    b.failed.Load(),
		"metrics":   res,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hermes-benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// complete reports an error naming any listed metric the run did not
// produce.
func complete(m values, want []struct{ name, unit string }) error {
	for _, w := range want {
		got, ok := m[w.name]
		if !ok {
			return fmt.Errorf("metric %s missing", w.name)
		}
		if got.Unit != w.unit {
			return fmt.Errorf("metric %s has unit %s, want %s", w.name, got.Unit, w.unit)
		}
	}
	return nil
}
