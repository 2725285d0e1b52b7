package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hermes"
	"hermes/internal/metrics"
	"hermes/internal/trace"
	"hermes/internal/workload"
)

// Requests are ticks jobs sized by the seeded mix trace: small enough
// that the HTTP path is a large share of each one. serveRPS only sets
// how densely the trace is sampled; the HTTP load is a closed loop and
// the trace's arrival times are not used.
var serveSpec = workload.Spec{Kind: "ticks", N: 32, Grain: 16, Work: 20_000}

const (
	serveRPS      = 16000
	serveWarmup   = 20 // requests per client before the timed window
	longPollWait  = "30s"
	serverTimeout = 30 * time.Second
)

// request is one generated request: its spec, class and JSON body.
type request struct {
	spec  workload.Spec
	class hermes.Class
	body  []byte
}

// serveRequests draws the request sequence from the mix trace.
func serveRequests(tr *tracer, seed int64, n int) ([]request, float64, error) {
	proc, err := trace.Resolve("mix")
	if err != nil {
		return nil, 0, err
	}
	window := time.Duration(float64(n)/serveRPS*float64(time.Second)) + time.Second
	t0 := time.Now()
	sp := tr.begin("trace.points", -1, 0)
	pts, err := proc.Points(seed, serveRPS, window)
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	genMS := ms(time.Since(t0))
	reqs := make([]request, len(pts))
	for i, pt := range pts {
		spec := serveSpec.Sized(pt.Size)
		body, err := json.Marshal(struct {
			workload.Spec
			Tenant   string `json:"tenant,omitempty"`
			Priority int    `json:"priority,omitempty"`
		}{spec, pt.Class.Tenant, pt.Class.Priority})
		if err != nil {
			return nil, 0, err
		}
		reqs[i] = request{spec: spec, class: pt.Class, body: body}
	}
	return reqs, genMS, nil
}

// child is a running hermes-serve process.
type child struct {
	cmd  *exec.Cmd
	base string
}

var listenRE = regexp.MustCompile(`listening on (\S+) `)

// addrWriter takes the child's log output and hands over the address
// from its "listening on" line; later output is discarded.
type addrWriter struct {
	addr  chan string
	mu    sync.Mutex
	buf   []byte
	found bool
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.found && len(w.buf) < 1<<16 {
		w.buf = append(w.buf, p...)
		if m := listenRE.FindSubmatch(w.buf); m != nil {
			w.found = true
			w.addr <- string(m[1])
		}
	}
	return len(p), nil
}

// startServer execs hermes-serve on a loopback port and returns once
// /healthz answers 200.
func startServer(bin string) (*child, error) {
	if bin == "" {
		return nil, errors.New("no hermes-serve binary given (-serve-bin)")
	}
	w := &addrWriter{addr: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-backend", "native", "-mode", "unified", "-shutdown-grace", "5s")
	cmd.Stdout = io.Discard
	cmd.Stderr = w
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd}
	select {
	case addr := <-w.addr:
		c.base = "http://" + addr
	case <-time.After(serverTimeout):
		c.stop()
		return nil, errors.New("hermes-serve did not report its address")
	}
	deadline := time.Now().Add(serverTimeout)
	for {
		resp, err := http.Get(c.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("hermes-serve /healthz not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the child to exit, and kills it if it
// has not exited within the server timeout.
func (c *child) stop() error {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(serverTimeout):
		_ = c.cmd.Process.Kill()
		return <-done
	}
	// A SIGTERM that lands before hermes-serve installs its signal
	// handler ends it by the signal itself; that is a clean stop too.
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	return err
}

// httpClient is the benchmark's own client: exactly nproc keep-alive
// connections (the default transport keeps only two idle per host),
// and a count of every connection dialled.
type httpClient struct {
	hc    *http.Client
	base  string
	dials atomic.Int64
}

func newHTTPClient(base string, conns int) *httpClient {
	c := &httpClient{base: base}
	d := &net.Dialer{Timeout: serverTimeout, KeepAlive: 30 * time.Second}
	c.hc = &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
	return c
}

// do sends one request and reads its whole body.
func (c *httpClient) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// scrape reads /metrics as name → value.
func (c *httpClient) scrape() (map[string]float64, float64, error) {
	t0 := time.Now()
	code, data, err := c.do("GET", "/metrics", nil)
	if err != nil {
		return nil, 0, err
	}
	if code != http.StatusOK {
		return nil, 0, fmt.Errorf("GET /metrics: HTTP %d", code)
	}
	return metrics.ParseText(string(data)), ms(time.Since(t0)), nil
}

// status is the part of GET /jobs/{id} the benchmark reads.
type status struct {
	Status    string  `json:"status"`
	Error     string  `json:"error"`
	SojournMS float64 `json:"sojourn_ms"`
	Report    *struct {
		Tasks int64 `json:"tasks"`
	} `json:"report"`
}

// outcome is one request's measurements.
type outcome struct {
	latency, post time.Duration
	st            status
	rejected      bool
}

// submit runs one request end to end: POST /jobs, then long-poll GET
// /jobs/{id}?wait= until the job is done. Latency is timed from when
// the POST is sent to when the client has read the "done" answer.
func (c *httpClient) submit(tr *tracer, req int64, r request) (outcome, error) {
	var o outcome
	root := tr.begin("bench.request", -1, req)
	defer tr.end(root)
	t0 := time.Now()
	sp := tr.begin("serve.post", root, req)
	code, data, err := c.do("POST", "/jobs", r.body)
	tr.end(sp)
	o.post = time.Since(t0)
	if err != nil {
		return o, err
	}
	if code == http.StatusTooManyRequests {
		o.rejected = true
		return o, errors.New("POST /jobs: 429 rejected")
	}
	var acc struct {
		ID int64 `json:"id"`
	}
	if code != http.StatusAccepted || json.Unmarshal(data, &acc) != nil {
		return o, fmt.Errorf("POST /jobs: HTTP %d: %s", code, bytes.TrimSpace(data))
	}
	path := "/jobs/" + strconv.FormatInt(acc.ID, 10) + "?wait=" + longPollWait
	for {
		sp := tr.begin("serve.poll", root, req)
		code, data, err := c.do("GET", path, nil)
		tr.end(sp)
		if err != nil {
			return o, err
		}
		if code != http.StatusOK || json.Unmarshal(data, &o.st) != nil {
			return o, fmt.Errorf("GET /jobs/%d: HTTP %d: %s", acc.ID, code, bytes.TrimSpace(data))
		}
		switch o.st.Status {
		case "running":
			continue
		case "done":
			o.latency = time.Since(t0)
			if o.st.Report == nil {
				return o, fmt.Errorf("job %d: done without a report", acc.ID)
			}
			return o, nil
		default:
			return o, fmt.Errorf("job %d: status %q: %s", acc.ID, o.st.Status, o.st.Error)
		}
	}
}

// runServe is the serve workload (see the package comment).
func runServe(b *bench) error {
	setups := 31
	if b.probe {
		setups = 1
	}
	// Enough requests for the closed loop at well above its rate; the
	// loop wraps around if it ever runs out.
	reqs, genMS, err := serveRequests(b.tr, b.seed, int(4000*b.dur.Seconds())+serveWarmup*b.nproc)
	if err != nil {
		return err
	}
	var srv *child
	var setupS []float64
	for i := range setups {
		t0 := time.Now()
		cur, err := startServer(b.serveBin)
		if err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < setups-1 {
			if err := cur.stop(); err != nil {
				return fmt.Errorf("stopping hermes-serve: %w", err)
			}
		} else {
			srv = cur
		}
	}
	defer srv.stop()
	b.e2e.set("setup_s", "s", median(setupS))

	cl := newHTTPClient(srv.base, b.nproc)
	var next atomic.Int64
	nextReq := func() (int64, request) {
		i := next.Add(1) - 1
		return i, reqs[int(i)%len(reqs)]
	}
	// Warm-up: opens the nproc connections; not timed.
	parallel(b.nproc, func(int) {
		for range serveWarmup {
			id, r := nextReq()
			_, err := cl.submit(nil, id, r)
			b.check(err)
		}
	})
	warmDials := cl.dials.Load()
	first := next.Load()
	before, _, err := cl.scrape()
	if err != nil {
		return err
	}

	// Windows sum jobs, tasks and joules. Caller 0 reads the energy
	// counter between its requests whenever a window has ended, so each
	// window's joules are the /metrics delta over it.
	var mu sync.Mutex
	var latMS, postMS, sojMS, tailMS []float64
	var ends []time.Time
	var rejected int64
	win := newWindows(b.dur, rateWindow, 3)
	mark, lastJ := 0, before["hermes_energy_joules"]
	wall := closedLoop(b.nproc, b.dur, func(c, i int) {
		id, r := nextReq()
		o, err := cl.submit(b.tr, id, r)
		end := time.Now()
		if c == 0 {
			if k := win.index(); k > mark {
				if m, _, err := cl.scrape(); b.check(err) {
					win.addAt(k-1, 2, m["hermes_energy_joules"]-lastJ)
					lastJ = m["hermes_energy_joules"]
				}
				mark = k
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if o.rejected {
			rejected++
		}
		if !b.check(err) {
			return
		}
		latMS = append(latMS, ms(o.latency))
		ends = append(ends, end)
		postMS = append(postMS, ms(o.post))
		sojMS = append(sojMS, o.st.SojournMS)
		tailMS = append(tailMS, ms(o.latency)-o.st.SojournMS)
		win.add(1, float64(o.st.Report.Tasks))
	})
	timed := next.Load() - first
	after, _, err := cl.scrape()
	if err != nil {
		return err
	}
	var scrapes []float64
	for range 15 {
		sp := b.tr.begin("metrics.scrape", -1, 0)
		_, d, err := cl.scrape()
		b.tr.end(sp)
		if err != nil {
			return err
		}
		scrapes = append(scrapes, d)
	}
	rss := peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid))
	if err := srv.stop(); err != nil {
		return fmt.Errorf("stopping hermes-serve: %w", err)
	}
	done := len(latMS)
	if done == 0 {
		return errors.New("no request completed")
	}

	b.e2e.set("tasks_per_s", "1/s", win.rate(b.steal, 1))
	b.e2e.set("jobs_per_s", "1/s", win.rate(b.steal, 0))
	lat := make([]float64, done)
	for i, end := range ends {
		lat[i] = b.steal.unstolenMS(end, latMS[i])
	}
	b.e2e.set("latency_p50_ms", "ms", quantile(lat, 0.5))
	b.e2e.set("latency_p99_ms", "ms", quantile(lat, 0.99))
	b.e2e.set("joules_per_job", "J", win.per(b.steal, 2, 0))
	b.e2e.set("peak_rss_mb", "MB", rss)
	fmt.Printf("serve: %d requests done in %v at %d clients (latency samples %d), %d connections dialled\n",
		done, wall.Round(time.Millisecond), b.nproc, len(latMS), cl.dials.Load())

	// Layer metrics. serve: where an HTTP request's time goes outside
	// the runtime; these should move serve latency_p50_ms and
	// jobs_per_s and nothing on forkjoin.
	b.layer.set("serve.post_ms", "ms", median(postMS))
	b.layer.set("serve.server_sojourn_p50_ms", "ms", quantile(sojMS, 0.5))
	b.layer.set("serve.server_sojourn_p99_ms", "ms", quantile(sojMS, 0.99))
	b.layer.set("serve.poll_tail_ms", "ms", median(tailMS))
	b.layer.set("serve.new_conns", "count", float64(cl.dials.Load()-warmDials))
	b.layer.set("serve.rejected", "count", float64(rejected))
	b.layer.set("metrics.scrape_ms", "ms", median(scrapes))
	b.layer.set("obs.dropped_events", "count", after["hermes_observer_dropped_events_total"])
	b.layer.set("trace.gen_ms", "ms", genMS)

	if b.tr != nil {
		// The same request sequence, in-process: the difference is
		// what the HTTP path adds. It is indexed as nextReq indexes it,
		// so a loop that wrapped around replays the same wrap.
		seq := make([]request, timed)
		for i := range seq {
			seq[i] = reqs[int(first+int64(i))%len(reqs)]
		}
		inproc, err := serveInproc(b, seq)
		if err != nil {
			return err
		}
		b.layer.set("serve.http_overhead_ms", "ms", quantile(latMS, 0.5)-inproc)
	}
	if !b.model {
		return nil
	}
	return simModel(b)
}

// serveInproc replays reqs through an in-process Native runtime with
// the same closed loop of nproc callers, and returns the median
// Submit→Wait latency. Its job counters give the rt and tempo layer
// metrics of this request mix.
func serveInproc(b *bench, reqs []request) (float64, error) {
	n, err := newNative()
	if err != nil {
		return 0, err
	}
	var next atomic.Int64
	var t jobTotals
	mem0 := markMem()
	parallel(b.nproc, func(int) {
		for {
			k := next.Add(1) - 1
			if k >= int64(len(reqs)) {
				return
			}
			rep, lat, sub, build, err := n.job(b.tr, -k-1, reqs[k].spec, reqs[k].class)
			if b.check(err) {
				t.add(rep, lat, sub, build)
			}
		}
	})
	mem := mem0.since()
	if err := n.rt.Close(); err != nil {
		return 0, err
	}
	setRT(b.layer, t.submitUS, t.queueUS, &t, mem)
	setTempo(b.layer, &t)
	b.layer.set("workload.build_ms", "ms", mean(t.buildMS))
	b.layer.set("obs.events_per_job", "count", ratio(float64(n.events.Load()), float64(t.jobs)))
	return quantile(t.latencyMS, 0.5), nil
}
