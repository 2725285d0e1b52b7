package main

import (
	"fmt"
	"sort"
	"time"
)

// perLayer lists the per-layer metrics every traced run prints, each
// with the end-to-end metric it is predicted to move and where it is
// predicted to move nothing:
//
//	deque.*     forkjoin tasks_per_s            | forkjoin jobs_per_s, sim
//	rt.*        forkjoin tasks_per_s; serve latency_p99_ms (queue wait) | sim
//	tempo.*     forkjoin pbbs joules_per_job and jobs_per_s, both down;
//	            sim energy_saving_pct, time_loss_pct | serve latency_p50_ms
//	workload.*  forkjoin jobs_per_s             | forkjoin tasks_per_s
//	obs.*, metrics.* forkjoin tasks_per_s; serve latency_p50_ms | sim virtual_*
//	serve.*     serve latency_p50_ms, jobs_per_s | forkjoin
//	sim.*       sim tasks_per_s, peak_rss_mb    | forkjoin, serve
//	core.*      sim energy_saving_pct, time_loss_pct, virtual_p99_ms | forkjoin
//	cluster.*   sim virtual_p99_ms, virtual_joules_per_job | the paper phase
//	trace.*     setup_s on serve and sim        | forkjoin
//	self.*      each layer's share of the traced calls' self time
//	bench.*     the tracing itself
var perLayer = []struct{ name, unit string }{
	{"deque.chaselev.push_pop_deep_ns", "ns"},
	{"deque.chaselev.push_pop_last_ns", "ns"},
	{"deque.chaselev.steal_ns", "ns"},
	{"deque.chaselev.steal_fail_ratio", "ratio"},
	{"deque.the.push_pop_deep_ns", "ns"},
	{"deque.the.push_pop_last_ns", "ns"},
	{"deque.the.steal_ns", "ns"},
	{"deque.the.steal_fail_ratio", "ratio"},
	{"rt.submit_us", "us"},
	{"rt.queue_wait_us", "us"},
	{"rt.ns_per_task", "ns"},
	{"rt.steals_per_ktask", "count"},
	{"rt.steal_success_ratio", "ratio"},
	{"rt.parks_per_job", "count"},
	{"rt.spin_share", "ratio"},
	{"rt.allocs_per_task", "count"},
	{"rt.bytes_per_task", "B"},
	{"rt.gc_cycles", "count"},
	{"tempo.switches_per_job", "count"},
	{"tempo.dvfs_commits_per_job", "count"},
	{"tempo.slow_busy_share", "ratio"},
	{"workload.build_ms", "ms"},
	{"obs.events_per_job", "count"},
	{"obs.dropped_events", "count"},
	{"metrics.scrape_ms", "ms"},
	{"serve.post_ms", "ms"},
	{"serve.server_sojourn_p50_ms", "ms"},
	{"serve.server_sojourn_p99_ms", "ms"},
	{"serve.poll_tail_ms", "ms"},
	{"serve.http_overhead_ms", "ms"},
	{"serve.new_conns", "count"},
	{"serve.rejected", "count"},
	{"sim.switch_ns", "ns"},
	{"sim.switch_alloc_bytes", "B"},
	{"sim.sleep_ns", "ns"},
	{"sim.wall_ns_per_task", "ns"},
	{"sim.alloc_bytes_per_task", "B"},
	{"sim.gc_cycles", "count"},
	{"core.run_ms", "ms"},
	{"core.steals_per_job", "count"},
	{"core.tempo_switches_per_job", "count"},
	{"core.slow_busy_share", "ratio"},
	{"core.queue_p99_ms", "ms"},
	{"cluster.placement_imbalance", "ratio"},
	{"cluster.idle_machines", "count"},
	{"cluster.attributed_energy_share", "ratio"},
	{"trace.gen_ms", "ms"},
	{"self.bench_share", "ratio"},
	{"self.workload_share", "ratio"},
	{"self.rt_share", "ratio"},
	{"self.serve_share", "ratio"},
	{"self.metrics_share", "ratio"},
	{"self.core_share", "ratio"},
	{"self.cluster_share", "ratio"},
	{"self.trace_share", "ratio"},
	{"bench.tracing_overhead_pct", "%"},
	{"bench.spans", "count"},
}

// primary is each workload's headline rate, the one the tracing
// overhead is measured on.
var primary = map[string]string{"forkjoin": "tasks_per_s", "serve": "jobs_per_s", "sim": "tasks_per_s"}

// sub returns a run of the same configuration over d that shares b's
// operation counts.
func (b *bench) sub(d time.Duration, traced, probe bool) *bench {
	s := &bench{seed: b.seed, dur: d, nproc: b.nproc, serveBin: b.serveBin, probe: probe,
		steal: b.steal, ledger: b.ledger, e2e: values{}, layer: values{}}
	if traced {
		s.tr = &tracer{t0: time.Now()}
	}
	return s
}

// tracedRun is the traced run of workload name: an untraced pass and
// a traced pass of equal length (their primary rates give the tracing
// overhead), then short traced probes of the other workloads for the
// layers this one does not exercise, then the deque and simulator
// rungs. Per-layer metrics come from the traced pass where it
// measures them; self-time shares come from its spans only.
func tracedRun(b *bench, name, spansPath string) (values, error) {
	run := workloads[name]
	pass := b.dur * 2 / 5
	u := b.sub(pass, false, false)
	if err := run(u); err != nil {
		return nil, err
	}
	t := b.sub(pass, true, false)
	if err := run(t); err != nil {
		return nil, err
	}
	res := t.layer

	others := make([]string, 0, len(workloads))
	for w := range workloads {
		if w != name {
			others = append(others, w)
		}
	}
	sort.Strings(others)
	for _, w := range others {
		p := b.sub(time.Second, true, true)
		if err := workloads[w](p); err != nil {
			return nil, fmt.Errorf("%s probe: %w", w, err)
		}
		for k, v := range p.layer {
			if _, ok := res[k]; !ok {
				res[k] = v
			}
		}
	}
	r := b.sub(0, false, false)
	dequeRungs(r)
	simRung(r)
	for k, v := range r.layer {
		res[k] = v
	}
	// serve.http_overhead_ms exists only where a serve pass ran traced.
	if _, ok := res["serve.http_overhead_ms"]; !ok {
		return nil, fmt.Errorf("no serve pass measured serve.http_overhead_ms")
	}

	self := t.tr.selfTimes()
	var total time.Duration
	for _, d := range self {
		total += d
	}
	for _, l := range []string{"bench", "workload", "rt", "serve", "metrics", "core", "cluster", "trace"} {
		res.set("self."+l+"_share", "ratio", ratio(float64(self[l]), float64(total)))
	}
	k := primary[name]
	res.set("bench.tracing_overhead_pct", "%", 100*(u.e2e[k].Value/t.e2e[k].Value-1))
	res.set("bench.spans", "count", float64(t.tr.count()))
	if err := t.tr.write(spansPath); err != nil {
		return nil, err
	}
	fmt.Printf("spans written to %s\n", spansPath)
	return res, complete(res, perLayer)
}
