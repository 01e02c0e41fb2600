package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

const (
	// timedReps is how often the traced run times each call into a layer
	// that runs once per call rather than per arrival: one untimed
	// warm-up, then the median of the timed ones.
	timedReps = 5
	// An open-loop run is invalid when the generator sends later than
	// this at p99 (GOMAXPROCS is nproc and the servers share those
	// processors, so a seal can hold the generator off for a scheduler
	// time slice or two), or when the backlog grows by more than lateBacklog
	// seconds of arrivals between the first and last third of the phase.
	lateLimitUs = 100000
	lateBacklog = 0.25
	// leadIn is the start of an open loop left out of its latency figures:
	// the connections sat idle through the closed loop.
	leadIn = int64(500 * time.Millisecond)
	// snapEvery is the quiesced snapshot reads' cadence; snapShare of
	// --seconds goes to them.
	snapEvery = 10 * time.Millisecond
	snapShare = 0.1
)

// clients are a run's client connections: the control connection used
// for creates, snapshots and checkpoints, and the load-driving ones.
type clients struct {
	ctl  *httpConn
	tcp  []*tcpClient
	http []*httpConn
}

// close ends every stream and checks each result frame.
func (c *clients) close() error {
	var first error
	for _, t := range c.tcp {
		if err := t.close(); err != nil && first == nil {
			first = err
		}
	}
	for _, h := range append(c.http, c.ctl) {
		if h != nil {
			h.close()
		}
	}
	c.tcp, c.http, c.ctl = nil, nil, nil
	return first
}

func parallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sleepUntil sleeps until ns (since t0).
func sleepUntil(t0 time.Time, ns int64) {
	if wait := ns - time.Since(t0).Nanoseconds(); wait > 0 {
		time.Sleep(time.Duration(wait))
	}
}

// settle starts a timed window from a quiet process and disk: it collects,
// and commits every file written so far, so that neither a collection nor
// the write-back of earlier phases' files is charged to the window.
func settle() {
	runtime.GC()
	syscall.Sync()
}

// setup stands up the deployment, creates every tenant through the front
// end in a fixed order (so leastload placement repeats), and warms every
// client connection: WINDOW, BIND and one served arrival per tenant on the
// TCP ones, a request on each of the httpConns HTTP ones.
func setup(topo topology, httpConns int, dir string, in *inputs, creates [][]byte, setupFrames []*frames, t0 time.Time) (*deployment, *clients, error) {
	d, err := deploy(dir, topo)
	if err != nil {
		return nil, nil, err
	}
	cl := &clients{ctl: newHTTPConn(d.frontHTTP())}
	fail := func(err error) (*deployment, *clients, error) {
		cl.close() //nolint:errcheck // already failing
		d.shutdown()
		return nil, nil, err
	}
	for i, b := range creates {
		if _, err := cl.ctl.do("POST", "/v1/tenants/"+in.names[i], b, http.StatusCreated); err != nil {
			return fail(err)
		}
	}
	for _, f := range setupFrames {
		c, err := dialTCP(d.frontTCP(), t0)
		if err != nil {
			return fail(err)
		}
		cl.tcp = append(cl.tcp, c)
		if err := c.sendAll(f); err != nil {
			return fail(err)
		}
	}
	for i := 0; i < httpConns; i++ {
		h := newHTTPConn(d.frontHTTP())
		cl.http = append(cl.http, h)
		if _, err := h.do("GET", "/healthz", nil, http.StatusOK); err != nil {
			return fail(err)
		}
	}
	if len(setupFrames) > 0 {
		if err := d.waitServedTotal(int64(d.copies()*len(in.names)), time.Minute); err != nil {
			return fail(err)
		}
	}
	return d, cl, nil
}

// openResult is an open-loop phase's outcome.
type openResult struct {
	lats    []float64 // µs, due → ack, after the lead-in
	lateP99 float64   // µs
	growth  float64   // backlog growth, arrivals
}

func runE2E(w *workload, seed int64, seconds float64, runDir string, rep *report) error {
	t0 := time.Now()
	closedN, openN := int(w.closedPerS*seconds), int(w.openRate*w.openShare*seconds)
	in := w.inputs(seed, closedN, openN)
	creates := make([][]byte, len(in.tenants))
	for i, t := range in.tenants {
		creates[i] = createBody(t)
	}
	in.tenants = nil
	sent := in.sentPerTenant()

	var setupFrames []*frames
	for c := 0; c < w.conns; c++ {
		setupFrames = append(setupFrames, renderSetup(in.s, in.names, c, w.conns, server.MaxAckWindow))
	}
	closed := renderBatches(in.s, in.warmEnd, in.warmEnd+in.closedN, len(in.names), w.conns, w.batch)

	clk := &hostClock{}
	ph := time.Now()
	// Set-up, the closed loop, a quiesced checkpoint, shutdown and a
	// restore, on w.reps fresh deployments: each serves the same arrivals
	// from the same state, so its figures repeat within the run, and the
	// samples of every metric spread over the whole run, so that a change in
	// the host's speed part way through moves all their medians alike. The
	// first checkpoint and the first restore in the process run slow and are
	// repeated, the first left untimed. The last deployment stays up for
	// the rest and is restored only for the correctness gate.
	var setups, rates, allocs, cks, restores, snapMs []float64
	snapN := int(snapShare*seconds*float64(time.Second)/float64(snapEvery)) / w.reps
	var d *deployment
	var cl *clients
	defer func() {
		if cl != nil {
			cl.close() //nolint:errcheck // error path
		}
		if d != nil {
			d.shutdown()
		}
	}()
	for r := 0; r < w.reps; r++ {
		dir := filepath.Join(runDir, fmt.Sprintf("rep%d", r))
		if err := clk.tick(); err != nil {
			return fmt.Errorf("host clock: %w", err)
		}
		settle()
		start := time.Now()
		var err error
		d, cl, err = setup(w.topo, 0, dir, in, creates, setupFrames, t0)
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		rep.attempt(int64(len(in.names)))
		el, alloc, err := w.closedLoop(d, cl, closed, in.closedN)
		if err != nil {
			return fmt.Errorf("closed loop: %w", err)
		}
		rep.attempt(int64(in.closedN))
		rates = append(rates, float64(in.closedN)/el.Seconds())
		allocs = append(allocs, float64(alloc)/1024/float64(in.closedN))
		// POST /v1/checkpoint on the front end; the first one in the
		// process, which runs slow, is left untimed.
		for k := 0; k < 2 && (k == 0 || r == 0); k++ {
			settle()
			start := time.Now()
			_, err := cl.ctl.do("POST", "/v1/checkpoint", nil, http.StatusOK)
			el := time.Since(start).Seconds()
			rep.attempt(1)
			if err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
			if r > 0 || k > 0 {
				cks = append(cks, el)
			}
		}
		ms, err := w.snapshots(cl.ctl, in.names, snapN, r*snapN, t0)
		rep.attempt(int64(len(ms)))
		if err != nil {
			return err
		}
		snapMs = append(snapMs, ms...)
		if r == w.reps-1 {
			break
		}
		dd := d
		err = release(dd, cl)
		d, cl = nil, nil
		if err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		for k := 0; k < 2 && (k == 0 || r == 0); k++ {
			el, err := restore(dd, runDir, clk, nil)
			rep.attempt(1)
			if err != nil {
				return err
			}
			if r > 0 || k > 0 {
				restores = append(restores, el)
			}
		}
		os.RemoveAll(dir)
	}
	rep.setMedian("alloc_kb_per_arrival", "KB", allocs)
	ckBytes, err := d.checkpointBytes()
	if err != nil {
		return err
	}
	rep.set("checkpoint_mb", "MB", float64(ckBytes)/(1<<20), 1)
	creates, setupFrames, closed = nil, nil, nil

	rep.phase("deployments", ph)
	ph = time.Now()
	// Open loop at the workload's fixed rate.
	or, err := w.openLoop(d, cl, in, t0, rep)
	if err != nil {
		return fmt.Errorf("open loop: %w", err)
	}
	if err := d.waitServedTenants(in.names, sent, time.Minute); err != nil {
		return err
	}
	// Not among the bounded metrics: behind the router their spread between
	// runs exceeded any bound (see BENCHMARK.json).
	rep.note("ack latency us, acked by the %s, %d samples after the lead-in: p50 %.4g, p99 %.4g; generator late p99 %.0f us; backlog growth %.0f arrivals",
		ackedBy(w), len(or.lats), percentile(or.lats, 0.5), percentile(or.lats, 0.99), or.lateP99, or.growth)
	rep.note("ack latency us: p90 %.0f p99.9 %.0f max %.0f", percentile(or.lats, 0.9), percentile(or.lats, 0.999), percentile(or.lats, 1))
	if or.lateP99 > lateLimitUs || or.growth > lateBacklog*w.openRate {
		rep.fail(int64(in.openN), "open loop invalid: generator late or backlog grew")
	}

	rep.phase("open", ph)
	ph = time.Now()
	// Live heap at the end of the load, the generator's buffers released.
	in.s, or = nil, nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.set("heap_mb", "MB", float64(ms.HeapAlloc)/(1<<20), 1)

	rep.phase("heap", ph)
	ph = time.Now()
	// Correctness of the live deployment.
	want, err := replaySample(w.inputs(seed, closedN, openN), w.sample)
	if err != nil {
		return err
	}
	if tamperReplay != nil {
		tamperReplay(want)
	}
	cost, dual, err := checkLive(d, cl.ctl, in.names, sent, w.sample, want, rep)
	if err != nil {
		return err
	}
	rep.set("cost_over_dual", "ratio", cost/dual, len(in.names))

	// The restored copies must match too.
	dd := d
	if err := release(dd, cl); err != nil {
		rep.mismatch("client stream or shutdown: %v", err)
	}
	d, cl = nil, nil
	_, err = restore(dd, runDir, clk, func(srvs []*server.Server) error {
		return checkCopies("restored", enginesOf(srvs), dd.copies(), in.names, w.sample, want, rep)
	})
	rep.attempt(1)
	if err != nil {
		return err
	}
	rep.phase("check", ph)

	// Every timing at the reference speed (calibrate.go).
	k := clk.scale()
	rep.note("host clock: kernel median %.4g s over %d ticks %.4g; timings scaled by %.4g",
		median(clk.samples), len(clk.samples), clk.samples, k)
	rep.setScaled("setup_s", "s", setups, k)
	rep.setScaled("arrivals_per_s", "1/s", rates, 1/k)
	rep.setScaled("snapshot_p50_ms", "ms", snapMs, k)
	rep.setScaled("checkpoint_s", "s", cks, k)
	rep.setScaled("restore_s", "s", restores, k)
	return nil
}

// snapshots reads n compact snapshots of the sample tenants through the
// front end at a fixed cadence, the k-th due at start + k·snapEvery, and
// returns each one's time from its due time in ms. The deployment is
// quiesced: while it is loaded, every client connection the workload may
// use is busy. from is where this call starts in the sample.
func (w *workload) snapshots(ctl *httpConn, names []string, n, from int, t0 time.Time) ([]float64, error) {
	var out []float64
	base := time.Since(t0).Nanoseconds() + int64(time.Millisecond)
	for k := 0; k < n; k++ {
		due := base + int64(k)*int64(snapEvery)
		sleepUntil(t0, due)
		name := names[w.sample[(from+k)%len(w.sample)]]
		if _, err := ctl.do("GET", "/v1/tenants/"+name+"/snapshot?compact=1", nil, http.StatusOK); err != nil {
			return out, err
		}
		out = append(out, float64(time.Since(t0).Nanoseconds()-due)/1e6)
	}
	return out, nil
}

// closedLoop drives the pre-rendered BATCH frames closed-loop and returns
// the time until the workers served them all and the bytes the process
// allocated meanwhile.
func (w *workload) closedLoop(d *deployment, cl *clients, fr []*frames, n int) (time.Duration, uint64, error) {
	base := d.servedTotal()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := parallel(w.conns, func(i int) error {
		_, err := cl.tcp[i].sendClosed(fr[i], w.window)
		return err
	})
	if err == nil {
		err = d.waitServedTotal(base+int64(d.copies()*n), time.Minute)
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	return el, m1.TotalAlloc - m0.TotalAlloc, err
}

func ackedBy(w *workload) string {
	if w.topo.router {
		return "router once routed"
	}
	return "worker after serving"
}

// openLoop drives ARRIVE frames at the workload's fixed rate and samples
// the backlog.
func (w *workload) openLoop(d *deployment, cl *clients, in *inputs, t0 time.Time, rep *report) (*openResult, error) {
	fr := renderArrives(in.s, in.openAt, in.openAt+in.openN, w.conns, w.openRate)
	sendAt := make([][]int64, w.conns)
	badBefore := int64(0)
	for i := 0; i < w.conns; i++ {
		cl.tcp[i].armOpen(fr[i].len())
		sendAt[i] = make([]int64, fr[i].len())
		badBefore += cl.tcp[i].badCount()
	}
	runtime.GC()
	start := time.Since(t0).Nanoseconds() + int64(2*time.Millisecond)
	end := start + int64(float64(in.openN)/w.openRate*1e9)
	res := &openResult{}

	var wg sync.WaitGroup
	var sideErr error
	var sideMu sync.Mutex
	side := func(f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f(); err != nil {
				sideMu.Lock()
				sideErr = err
				sideMu.Unlock()
			}
		}()
	}
	var backlog []float64
	side(func() error {
		for at := start; at < end; at += int64(20 * time.Millisecond) {
			sleepUntil(t0, at)
			var b int64
			for i := 0; i < w.conns; i++ {
				c := cl.tcp[i]
				c.mu.Lock()
				b += c.sent - c.acked
				c.mu.Unlock()
			}
			if w.topo.router {
				for _, s := range d.workers {
					b += int64(s.Engine().Metrics().QueueDepth)
				}
			}
			backlog = append(backlog, float64(b))
		}
		return nil
	})
	err := parallel(w.conns, func(i int) error { return cl.tcp[i].sendOpen(fr[i], start, sendAt[i]) })
	wg.Wait()
	if err == nil {
		err = sideErr
	}
	if err != nil {
		return nil, err
	}
	rep.attempt(int64(in.openN))

	var late []float64
	var bad int64
	for i := 0; i < w.conns; i++ {
		at, err := cl.tcp[i].ackTimes()
		if err != nil {
			return nil, err
		}
		bad += cl.tcp[i].badCount()
		f := fr[i]
		for j := range at {
			due := start + f.due[j]
			late = append(late, float64(sendAt[i][j]-due)/1e3)
			if f.due[j] < leadIn {
				continue
			}
			res.lats = append(res.lats, float64(at[j]-due)/1e3)
		}
	}
	// A failed arrival misses every latency limit.
	for k := badBefore; k < bad; k++ {
		res.lats = append(res.lats, 1e12)
	}
	if bad > badBefore {
		rep.fail(bad-badBefore, "arrivals acked with an error code")
	}
	res.lateP99 = percentile(late, 0.99)
	if n := len(backlog) / 3; n > 0 {
		first, last := 0.0, 0.0
		for i := 0; i < n; i++ {
			first += backlog[i]
			last += backlog[len(backlog)-1-i]
		}
		res.growth = (last - first) / float64(n)
	}
	return res, nil
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	// Synced, so that no write-back of the copy lands in the timed window
	// that reads it.
	if _, err := io.Copy(out, in); err == nil {
		err = out.Sync()
	}
	if err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// copyDir copies the regular files of src into dst.
func copyDir(dst, src string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.Type().IsRegular() {
			if err := copyFile(filepath.Join(dst, e.Name()), filepath.Join(src, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// release closes the clients, checking each stream's result, and shuts the
// deployment down; each worker writes a final checkpoint on the way. d
// keeps its dirs and nodes for a restore.
func release(d *deployment, cl *clients) error {
	err := cl.close()
	d.nodes = d.nodes[:0]
	for _, s := range d.workers {
		d.nodes = append(d.nodes, s.HTTPAddr())
	}
	if serr := d.shutdown(); err == nil {
		err = serr
	}
	return err
}

// restore restarts every worker of the released deployment d from a fresh,
// synced copy of its checkpoint dir (server.New reads, restores and
// drains), one after another, plus the router on a copy of its state dir,
// and returns the wall time of that. check, when set, runs on the restored
// workers before they close. The host clock ticks first.
func restore(d *deployment, runDir string, clk *hostClock, check func([]*server.Server) error) (float64, error) {
	dir := filepath.Join(runDir, "restore")
	defer os.RemoveAll(dir)
	var wdirs []string
	for i, src := range d.workerDirs {
		wd := filepath.Join(dir, fmt.Sprintf("w%d", i))
		if err := copyDir(wd, src); err != nil {
			return 0, err
		}
		wdirs = append(wdirs, wd)
	}
	rcfg := cluster.Config{HTTPAddr: "127.0.0.1:0", Nodes: d.nodes, Placement: "leastload", Replicate: d.topo.replicate}
	if d.topo.routerState {
		rcfg.StateDir = filepath.Join(dir, "router")
		if err := copyDir(rcfg.StateDir, d.routerDir); err != nil {
			return 0, err
		}
	}
	if err := clk.tick(); err != nil {
		return 0, fmt.Errorf("host clock: %w", err)
	}
	settle()
	start := time.Now()
	// Workers restart one after another: their restores would only contend
	// for the same processors side by side.
	var srvs []*server.Server
	var err error
	for _, wd := range wdirs {
		var s *server.Server
		if s, err = server.New(workerConfig(wd, d.topo, "127.0.0.1:0")); err != nil {
			break
		}
		srvs = append(srvs, s)
	}
	var rt *cluster.Router
	if err == nil && d.topo.router {
		rt, err = cluster.New(rcfg)
	}
	el := time.Since(start).Seconds()
	if err == nil && check != nil {
		err = check(srvs)
	}
	for _, s := range srvs {
		s.Engine().Close()
	}
	if rt != nil {
		rt.Shutdown(time.Second) //nolint:errcheck // never started; closes the route log copy
	}
	if err != nil {
		return 0, fmt.Errorf("restore: %w", err)
	}
	return el, nil
}
