package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/commodity"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/instance"
	"repro/internal/metric"
	"repro/internal/server"
)

// The traced run replays one seeded arrival set entering at each layer in
// turn: core (PDOMFLP.Serve), engine (ServeBatch + Drain, with and without
// arrival recording), one worker over binary TCP and over HTTP, a router
// over two workers, and a router replicating every tenant. CPU per arrival
// comes from getrusage over each pass, so rows add across layers however
// many processors a pass keeps busy; the gap between adjacent rows is a
// layer's cost. Spans are recorded by the benchmark around each call into a
// layer, kept in memory and written once at the end.

// traceSpan is one call into a layer.
type traceSpan struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a pass
	Req    int64  `json:"req"`    // request id: first arrival index, batch or connection
}

type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []traceSpan
}

func (l *spanLog) begin(name string, parent int, req int64) int {
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, traceSpan{Name: name, Start: now, End: now, Parent: parent, Req: req})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[i].End = now
	l.mu.Unlock()
}

// selfShares returns, for each pass span, the share of its duration not
// covered by any child span: the benchmark's own time between layer calls.
func (l *spanLog) selfShares() map[string]float64 {
	kids := map[int][][2]int64{}
	for _, s := range l.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for i, s := range l.spans {
		if s.Parent >= 0 || s.End <= s.Start {
			continue
		}
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curS, curE int64
		curS, curE = -1, -1
		for _, x := range iv {
			if x[0] > curE {
				covered += curE - curS
				curS, curE = x[0], x[1]
			} else if x[1] > curE {
				curE = x[1]
			}
		}
		covered += curE - curS
		out[s.Name] = float64(s.End-s.Start-covered) / float64(s.End-s.Start)
	}
	return out
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// passCost is what one pass spent per arrival.
type passCost struct {
	cpuNs, wallNs, allocs float64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tracedRun holds one traced run's shared state.
type tracedRun struct {
	w       *workload
	in      *inputs
	creates [][]byte
	log     *spanLog
	rep     *report
	dir     string
	t0      time.Time
	n       int               // arrivals per pass, warm-up included
	want    []int64           // per-tenant served count after a pass
	ref     map[string][]byte // sample snapshots every pass must reproduce
	passes  map[string]passCost
}

// pass runs f as one measured pass of n arrivals under a root span.
func (x *tracedRun) pass(name string, f func(span int) error) error {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	sp := x.log.begin(name, -1, 0)
	start := time.Now()
	err := f(sp)
	wall := time.Since(start)
	x.log.end(sp)
	cpu := cpuTime() - c0
	runtime.ReadMemStats(&m1)
	x.rep.attempt(int64(x.n))
	if err != nil {
		return fmt.Errorf("%s pass: %w", name, err)
	}
	n := float64(x.n)
	x.passes[name] = passCost{cpuNs: float64(cpu.Nanoseconds()) / n, wallNs: float64(wall.Nanoseconds()) / n,
		allocs: float64(m1.Mallocs-m0.Mallocs) / n}
	return nil
}

// medianMs times f once untimed and timedReps times, returning the median
// in ms.
func medianMs(f func() error) (float64, error) {
	var ms []float64
	for r := 0; r <= timedReps; r++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if r > 0 {
			ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
		}
	}
	return median(ms), nil
}

func runTrace(w *workload, seed int64, seconds float64, runDir string, rep *report) error {
	x := &tracedRun{w: w, rep: rep, dir: runDir, t0: time.Now(), passes: map[string]passCost{}}
	x.log = &spanLog{t0: x.t0}
	// One warm-up arrival per tenant, tracePerS per second of --seconds
	// through every pass, then one second of open-loop arrivals.
	x.in = w.inputs(seed, int(w.tracePerS*seconds), int(w.openRate))
	x.n = x.in.openAt
	x.want = make([]int64, len(x.in.names))
	for _, t := range x.in.s.tenant[:x.n] {
		x.want[t]++
	}
	for _, t := range x.in.tenants {
		x.creates = append(x.creates, createBody(t))
	}
	var err error
	if x.ref, err = replaySample(&inputs{tenants: x.in.tenants, names: x.in.names, s: prefix(x.in.s, x.n)}, w.sample); err != nil {
		return err
	}
	steps := []func() error{x.corePass, x.enginePasses, x.codecPass, x.serverPasses, x.routerPasses}
	for _, f := range steps {
		if err := f(); err != nil {
			return err
		}
	}
	x.ledger()
	for name, share := range x.log.selfShares() {
		rep.note("pass %s: %.1f%% of its wall time outside layer calls", name, 100*share)
	}
	path := filepath.Join(filepath.Dir(filepath.Dir(runDir)), "trace", fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
	if err := x.log.write(path); err != nil {
		return err
	}
	rep.note("%d spans written to %s", len(x.log.spans), path)
	// The benchmark runs from the repository root; its tests run from
	// perfbench/.
	root := "."
	if _, err := os.Stat("internal"); err != nil {
		root = ".."
	}
	for _, pkg := range []string{"core", "engine", "server", "cluster", "obs"} {
		n, err := locOf(filepath.Join(root, "internal", pkg))
		if err != nil {
			return err
		}
		rep.layer(pkg+".loc", "lines", float64(n))
	}
	return nil
}

// prefix is the stream's first n arrivals.
func prefix(s *stream, n int) *stream {
	return &stream{tenant: s.tenant[:n], point: s.point[:n], off: s.off[:n+1], dem: s.dem}
}

func (x *tracedRun) requests() []instance.Request {
	reqs := make([]instance.Request, x.n)
	var buf []int
	for i := range reqs {
		it := x.in.s.item(i, buf)
		buf = it.Demands
		reqs[i] = instance.Request{Point: it.Point, Demands: commodity.New(it.Demands...)}
	}
	return reqs
}

func (x *tracedRun) newPD(t int) (*core.PDOMFLP, error) {
	ts := x.in.tenants[t]
	table, err := cost.NewTable(ts.CostBySize)
	if err != nil {
		return nil, err
	}
	return core.NewPDOMFLP(metric.NewMatrix(ts.Distances), table, core.Options{}), nil
}

// corePass serves every arrival on one PDOMFLP per tenant, one goroutine,
// in the engine's per-tenant batch order, then times the state codec on the
// deepest tenant.
func (x *tracedRun) corePass() error {
	tenants, items := x.batches()
	algs := make([]*core.PDOMFLP, len(x.in.names))
	for t := range algs {
		var err error
		if algs[t], err = x.newPD(t); err != nil {
			return err
		}
	}
	err := x.pass("core", func(sp int) error {
		for i, batch := range items {
			c := x.log.begin("core.Serve", sp, int64(i))
			alg := algs[tenants[i]]
			for _, it := range batch {
				alg.Serve(it.Req)
			}
			x.log.end(c)
		}
		return nil
	})
	if err != nil {
		return err
	}
	deepest := 0
	for t := range x.want {
		if x.want[t] > x.want[deepest] {
			deepest = t
		}
	}
	var state []byte
	marshal, err := medianMs(func() (err error) { state, err = algs[deepest].MarshalState(); return err })
	if err != nil {
		return err
	}
	unmarshal, err := medianMs(func() error {
		pd, err := x.newPD(deepest)
		if err != nil {
			return err
		}
		return pd.UnmarshalState(state)
	})
	if err != nil {
		return err
	}
	x.rep.layer("core.state_kb", "KB", float64(len(state))/1024)
	x.rep.layer("core.marshal_ms", "ms", marshal)
	x.rep.layer("core.unmarshal_ms", "ms", unmarshal)
	x.rep.layer("core.allocs_per_arrival", "count", x.passes["core"].allocs)
	return nil
}

// batches renders the pass's arrivals as the engine's per-tenant batches.
func (x *tracedRun) batches() (tenants []int, items [][]engine.BatchItem) {
	reqs := x.requests()
	pending := make([][]engine.BatchItem, len(x.in.names))
	emit := func(t int) {
		tenants = append(tenants, t)
		items = append(items, pending[t])
		pending[t] = nil
	}
	for i := 0; i < x.n; i++ {
		t := int(x.in.s.tenant[i])
		pending[t] = append(pending[t], engine.BatchItem{Req: reqs[i]})
		if len(pending[t]) == x.w.batch {
			emit(t)
		}
	}
	for t := range pending {
		if len(pending[t]) > 0 {
			emit(t)
		}
	}
	return tenants, items
}

func (x *tracedRun) newEngine(record bool) (*engine.Engine, error) {
	eng, err := engine.NewChecked(engine.Config{Shards: x.w.topo.shards, ShardPolicy: x.w.topo.policy,
		Seed: engineSeed, RecordArrivals: record})
	if err != nil {
		return nil, err
	}
	for _, ts := range x.in.tenants {
		if err := eng.Apply(engine.Op{Op: "create", Tenant: ts.ID, Universe: ts.Universe,
			Distances: ts.Distances, CostBySize: ts.CostBySize}); err != nil {
			eng.Close()
			return nil, err
		}
	}
	return eng, nil
}

// enginePasses runs ServeBatch + Drain with the deployment's config
// (recording on) and again with recording off, then times the engine's
// checkpoint, restore and transfer calls on the recorded state.
func (x *tracedRun) enginePasses() error {
	for _, record := range []bool{false, true} {
		eng, err := x.newEngine(record)
		if err != nil {
			return err
		}
		tenants, items := x.batches()
		name := "engine.norecord"
		if record {
			name = "engine"
		}
		err = x.pass(name, func(sp int) error {
			for i, it := range items {
				c := x.log.begin("engine.ServeBatch", sp, int64(i))
				_, err := eng.ServeBatch(x.in.names[tenants[i]], it, false, nil)
				x.log.end(c)
				if err != nil {
					return err
				}
			}
			c := x.log.begin("engine.Drain", sp, 0)
			eng.Drain()
			x.log.end(c)
			return nil
		})
		if err == nil {
			err = checkCopies(name, []*engine.Engine{eng}, 1, x.in.names, x.w.sample, x.ref, x.rep)
		}
		if err == nil && record {
			err = x.engineCalls(eng)
		}
		eng.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

func (x *tracedRun) engineCalls(eng *engine.Engine) error {
	path := filepath.Join(x.dir, "engine", server.CheckpointFile)
	var ck *engine.Checkpoint
	capture, err := medianMs(func() (err error) { ck, err = eng.Checkpoint(); return err })
	if err != nil {
		return err
	}
	write, err := medianMs(func() error { _, err := ck.WriteFile(path); return err })
	if err != nil {
		return err
	}
	read, err := medianMs(func() (err error) { ck, err = engine.ReadCheckpointFile(path); return err })
	if err != nil {
		return err
	}
	var stats engine.RestoreStats
	var ms []float64
	for r := 0; r <= timedReps; r++ {
		ck, err := engine.ReadCheckpointFile(path)
		if err != nil {
			return err
		}
		fresh, err := engine.NewChecked(engine.Config{Shards: x.w.topo.shards, ShardPolicy: x.w.topo.policy,
			Seed: engineSeed, RecordArrivals: true})
		if err != nil {
			return err
		}
		start := time.Now()
		stats, err = fresh.Restore(ck)
		fresh.Drain()
		if r > 0 {
			ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
		}
		if err == nil && r == timedReps {
			err = checkCopies("engine restore", []*engine.Engine{fresh}, 1, x.in.names, x.w.sample, x.ref, x.rep)
		}
		fresh.Close()
		if err != nil {
			return err
		}
	}
	name := x.in.names[x.w.sample[0]]
	var tr *engine.TenantTransfer
	export, err := medianMs(func() (err error) { tr, err = eng.ExportTenant(name); return err })
	if err != nil {
		return err
	}
	var injected []float64
	for r := 0; r <= timedReps; r++ {
		fresh, err := engine.NewChecked(engine.Config{Shards: 1, Seed: engineSeed, RecordArrivals: true})
		if err != nil {
			return err
		}
		start := time.Now()
		err = fresh.InjectTenant(tr)
		fresh.Drain()
		if r > 0 {
			injected = append(injected, float64(time.Since(start).Nanoseconds())/1e6)
		}
		fresh.Close()
		if err != nil {
			return err
		}
	}
	snapshot, err := medianMs(func() error { _, err := eng.SnapshotCompact(name); return err })
	if err != nil {
		return err
	}
	x.rep.layer("engine.capture_ms", "ms", capture)
	x.rep.layer("engine.write_ms", "ms", write)
	x.rep.layer("engine.read_ms", "ms", read)
	x.rep.layer("engine.restore_ms", "ms", median(ms))
	x.rep.layer("engine.replayed_share", "ratio", float64(stats.Replayed)/float64(max(stats.Arrivals, 1)))
	x.rep.layer("engine.export_ms", "ms", export)
	x.rep.layer("engine.inject_ms", "ms", median(injected))
	x.rep.layer("engine.snapshot_ms", "ms", snapshot)
	return nil
}

// codecPass times the binary wire codec over the workload's BATCH frames.
func (x *tracedRun) codecPass() error {
	var items [][]server.WireItem
	var refs []uint64
	var buf []int
	pending := make([][]server.WireItem, len(x.in.names))
	for i := 0; i < x.n; i++ {
		t := int(x.in.s.tenant[i])
		it := x.in.s.item(i, buf)
		it.Demands = append([]int(nil), it.Demands...)
		pending[t] = append(pending[t], it)
		if len(pending[t]) == x.w.batch {
			items, refs = append(items, pending[t]), append(refs, uint64(t))
			pending[t] = nil
		}
	}
	for t, p := range pending {
		if len(p) > 0 {
			items, refs = append(items, p), append(refs, uint64(t))
		}
	}
	frames := make([][]byte, len(items))
	runtime.GC()
	start := time.Now()
	for i := range items {
		frames[i] = server.AppendWireBatch(frames[i][:0], refs[i], items[i])
	}
	encode := time.Since(start)
	ids := make([]int, 0, 64)
	decoded := 0
	start = time.Now()
	for _, f := range frames {
		_, body, err := server.WireFrameKind(f)
		if err != nil {
			return err
		}
		_, count, rest, err := server.DecodeWireBatchHeader(body)
		if err != nil {
			return err
		}
		for k := 0; k < count; k++ {
			if _, ids, rest, err = server.DecodeWireBatchItem(rest, ids[:0]); err != nil {
				return err
			}
			decoded++
		}
	}
	decode := time.Since(start)
	if decoded != x.n {
		x.rep.mismatch("wire codec decoded %d of %d arrivals", decoded, x.n)
	}
	x.rep.layer("server.encode_ns", "ns", float64(encode.Nanoseconds())/float64(x.n))
	x.rep.layer("server.decode_ns", "ns", float64(decode.Nanoseconds())/float64(x.n))
	return nil
}

// netPass stands up topo, drives the pass's arrivals closed-loop over TCP
// (BATCH frames) or HTTP (batch POSTs), waits until the workers served them
// all, checks the sample, and hands the still-running deployment to after.
func (x *tracedRun) netPass(name string, topo topology, wire string, started func(*deployment), after func(d *deployment, cl *clients, blocked time.Duration, written int64) error) error {
	conns := 2
	var setupFrames []*frames
	httpConns := 0
	if wire == "tcp" {
		for c := 0; c < conns; c++ {
			setupFrames = append(setupFrames, renderSetup(x.in.s, x.in.names, c, conns, server.MaxAckWindow))
		}
	} else {
		httpConns = conns
	}
	dir := filepath.Join(x.dir, strings.ReplaceAll(name, ".", "-"))
	d, cl, err := setup(topo, httpConns, dir, x.in, x.creates, setupFrames, x.t0)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", name, err)
	}
	defer func() {
		if cl != nil {
			cl.close() //nolint:errcheck // error path
		}
		d.shutdown()
		os.RemoveAll(dir)
	}()
	if started != nil {
		started(d)
	}
	var mv *mover
	if wire == "http" && topo.router {
		var nodes []string
		for _, s := range d.workers {
			nodes = append(nodes, s.HTTPAddr())
		}
		if mv, err = newMover(d.router, cl.ctl, x.in.names, nodes); err != nil {
			return err
		}
	}
	var fr []*frames
	var bodies [][]httpBatch
	total := 0
	if wire == "tcp" {
		fr = renderBatches(x.in.s, x.in.warmEnd, x.n, len(x.in.names), conns, x.w.batch)
	} else {
		// Without a TCP warm-up, the HTTP passes carry the warm-up arrivals.
		bodies = renderHTTP(x.in.s, 0, x.n, len(x.in.names), conns, x.w.batch)
		for _, b := range bodies {
			total += len(b)
		}
	}
	var blocked time.Duration
	var written int64
	var posted atomic.Int64
	var mu sync.Mutex
	err = x.pass(name, func(sp int) error {
		if wire == "tcp" {
			base := d.servedTotal()
			err := parallel(conns, func(i int) error {
				c := x.log.begin(name+".send", sp, int64(i))
				w0 := cl.tcp[i].written
				b, err := cl.tcp[i].sendClosed(fr[i], x.w.window)
				x.log.end(c)
				mu.Lock()
				blocked += b
				written += cl.tcp[i].written - w0
				mu.Unlock()
				return err
			})
			if err != nil {
				return err
			}
			c := x.log.begin(name+".served", sp, 0)
			defer x.log.end(c)
			return d.waitServedTotal(base+int64(d.copies()*(x.n-x.in.warmEnd)), time.Minute)
		}
		moved := make(chan error, 1)
		go func() {
			if mv == nil {
				moved <- nil
				return
			}
			// One live migration halfway through the pass.
			for posted.Load() < int64(total/2) {
				time.Sleep(200 * time.Microsecond)
			}
			c := x.log.begin("cluster.Migrate", sp, 0)
			err := mv.moveNext()
			x.log.end(c)
			moved <- err
		}()
		err := parallel(conns, func(i int) error {
			for k, b := range bodies[i] {
				c := x.log.begin(name+".post", sp, int64(k))
				_, err := cl.http[i].do("POST", "/v1/tenants/"+x.in.names[b.tenant]+"/arrive", b.body, http.StatusOK)
				x.log.end(c)
				posted.Add(1)
				if err != nil {
					posted.Store(int64(total)) // release the mover
					return err
				}
			}
			return nil
		})
		if merr := <-moved; err == nil {
			err = merr
		}
		if err != nil {
			return err
		}
		c := x.log.begin(name+".served", sp, 0)
		defer x.log.end(c)
		return d.waitServedTenants(x.in.names, x.want, time.Minute)
	})
	if err != nil {
		return err
	}
	if mv != nil {
		x.rep.layer("cluster.migrate_replayed", "count", float64(mv.replay))
	}
	if err := checkCopies(name, enginesOf(d.workers), d.copies(), x.in.names, x.w.sample, x.ref, x.rep); err != nil {
		return err
	}
	if after != nil {
		if err := after(d, cl, blocked, written); err != nil {
			return err
		}
	}
	cerr := cl.close()
	cl = nil
	return cerr
}

func (x *tracedRun) direct() topology {
	t := x.w.topo
	t.workers, t.router, t.replicate, t.routerState = 1, false, false, false
	return t
}

func (x *tracedRun) routed(replicate bool) topology {
	t := x.w.topo
	t.workers, t.router, t.replicate, t.routerState = 2, true, replicate, false
	return t
}

// serverPasses drive one worker directly: binary TCP (untraced and traced,
// the difference being the tracing overhead) and HTTP batches.
func (x *tracedRun) serverPasses() error {
	var depths []float64
	err := x.netPass("server.tcp", x.direct(), "tcp", nil, func(d *deployment, cl *clients, blocked time.Duration, written int64) error {
		pc := x.passes["server.tcp"]
		x.rep.layer("server.window_wait_share", "ratio", blocked.Seconds()/(2*pc.wallNs*float64(x.n)/1e9))
		x.rep.layer("server.bytes_per_arrival", "B", float64(written)/float64(x.n-x.in.warmEnd))
		ms, err := medianMs(d.workers[0].Checkpoint)
		x.rep.layer("server.checkpoint_ms", "ms", ms)
		return err
	})
	if err != nil {
		return err
	}
	// The traced pass samples the queue depth while it runs, then drives one
	// second of open-loop arrivals to see how late the generator sends.
	traced := x.direct()
	traced.traceSample = 64
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	var current *deployment
	var curMu sync.Mutex
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			curMu.Lock()
			if d := current; d != nil && len(d.workers) > 0 {
				depths = append(depths, float64(d.workers[0].Engine().Metrics().QueueDepth))
			}
			curMu.Unlock()
		}
	}()
	err = x.netPass("server.tcp.traced", traced, "tcp", func(d *deployment) {
		curMu.Lock()
		current = d
		curMu.Unlock()
	}, func(d *deployment, cl *clients, _ time.Duration, _ int64) error {
		curMu.Lock()
		current = nil
		curMu.Unlock()
		m := d.workers[0].Engine().Metrics()
		if m.Stages == nil {
			return fmt.Errorf("traced worker reported no stages")
		}
		x.rep.layer("obs.stage_decode_us", "us", m.Stages.Decode.P50Micros)
		x.rep.layer("obs.stage_enqueue_us", "us", m.Stages.Enqueue.P50Micros)
		x.rep.layer("obs.stage_dequeue_us", "us", m.Stages.Dequeue.P50Micros)
		x.rep.layer("obs.stage_serve_us", "us", m.Stages.Serve.P50Micros)
		x.rep.layer("obs.stage_ack_us", "us", m.Stages.Ack.P50Micros)
		fr := renderArrives(x.in.s, x.in.openAt, x.in.openAt+x.in.openN, len(cl.tcp), x.w.openRate)
		sendAt := make([][]int64, len(fr))
		for i, f := range fr {
			sendAt[i] = make([]int64, f.len())
			cl.tcp[i].armOpen(f.len())
		}
		start := time.Since(x.t0).Nanoseconds() + int64(2*time.Millisecond)
		if err := parallel(len(fr), func(i int) error { return cl.tcp[i].sendOpen(fr[i], start, sendAt[i]) }); err != nil {
			return err
		}
		var late []float64
		for i, f := range fr {
			if _, err := cl.tcp[i].ackTimes(); err != nil {
				return err
			}
			for j := range sendAt[i] {
				late = append(late, float64(sendAt[i][j]-start-f.due[j])/1e3)
			}
		}
		x.rep.layer("client.late_p99_us", "us", percentile(late, 0.99))
		return nil
	})
	close(stop)
	sampler.Wait()
	if err != nil {
		return err
	}
	x.rep.layer("engine.queue_depth_p99", "count", percentile(depths, 0.99))
	x.rep.layer("obs.overhead_pct", "%", 100*(x.passes["server.tcp.traced"].wallNs/x.passes["server.tcp"].wallNs-1))
	return x.netPass("server.http", x.direct(), "http", nil, nil)
}

// routerPasses drive a router over two workers: TCP, TCP with every
// tenant replicated, and HTTP with one live migration.
func (x *tracedRun) routerPasses() error {
	var retries, degrades int64
	count := func(d *deployment, _ *clients, _ time.Duration, _ int64) error {
		m := d.router.Metrics()
		retries += m.Retries
		degrades += m.ReplicationDegrades
		return nil
	}
	if err := x.netPass("cluster.tcp", x.routed(false), "tcp", nil, count); err != nil {
		return err
	}
	if err := x.netPass("cluster.replica", x.routed(true), "tcp", nil, count); err != nil {
		return err
	}
	if err := x.netPass("cluster.http", x.routed(false), "http", nil, count); err != nil {
		return err
	}
	x.rep.layer("cluster.retries", "count", float64(retries))
	x.rep.layer("cluster.degrades", "count", float64(degrades))
	return nil
}

// ledger reports each pass's CPU and wall time per arrival, the gaps
// between adjacent rows, and the shares of the workload's own path.
func (x *tracedRun) ledger() {
	rows := []struct{ pass, metric string }{
		{"core", "core.serve"}, {"engine", "engine.serve"}, {"engine.norecord", "engine.norecord"},
		{"server.tcp", "server.tcp"}, {"server.http", "server.http"},
		{"cluster.tcp", "cluster.tcp"}, {"cluster.replica", "cluster.replica"}, {"cluster.http", "cluster.http"},
	}
	ns := map[string]float64{}
	for _, r := range rows {
		pc := x.passes[r.pass]
		ns[r.metric] = pc.cpuNs
		x.rep.layer(r.metric+"_ns", "ns", pc.cpuNs)
		x.rep.layer(r.metric+"_wall_ns", "ns", pc.wallNs)
	}
	x.rep.layer("ledger.engine_ns", "ns", ns["engine.serve"]-ns["core.serve"])
	x.rep.layer("ledger.wire_ns", "ns", ns["server.tcp"]-ns["engine.serve"])
	x.rep.layer("ledger.router_ns", "ns", ns["cluster.tcp"]-ns["server.tcp"])
	x.rep.layer("ledger.replica_ns", "ns", ns["cluster.replica"]-ns["cluster.tcp"])
	x.rep.layer("ledger.http_plane_ns", "ns", ns["cluster.http"]-ns["server.http"])
	top := ns[x.w.path]
	x.rep.layer("share.core", "ratio", ns["core.serve"]/top)
	x.rep.layer("share.seals", "ratio", (ns["engine.serve"]-ns["engine.norecord"])/top)
	x.rep.layer("share.above_engine", "ratio", (top-ns["engine.serve"])/top)
}

// locOf counts the lines of a package's non-test Go files.
func locOf(dir string) (int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return 0, err
		}
		n += bytes.Count(b, []byte("\n"))
	}
	return n, nil
}

// mover migrates tenants live through the router.
type mover struct {
	r      *cluster.Router
	names  []string
	owner  []string // tenant → owning worker's address
	nodes  []string
	next   int
	replay int64
}

func newMover(r *cluster.Router, ctl *httpConn, names, nodes []string) (*mover, error) {
	body, err := ctl.do("GET", "/v1/routes", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var routes map[string]cluster.RouteInfo
	if err := json.Unmarshal(body, &routes); err != nil {
		return nil, err
	}
	m := &mover{r: r, names: names, nodes: nodes}
	for _, n := range names {
		m.owner = append(m.owner, routes[n].Node)
	}
	return m, nil
}

// moveNext migrates the next tenant of a fixed sequence to its other node.
func (m *mover) moveNext() error {
	t := (m.next*37 + 11) % len(m.names)
	m.next++
	target := ""
	for _, n := range m.nodes {
		if n != m.owner[t] {
			target = n
			break
		}
	}
	res, err := m.r.Migrate(m.names[t], target)
	if err != nil {
		return fmt.Errorf("migrating %s to %s: %w", m.names[t], target, err)
	}
	m.replay += int64(res.Replayed)
	m.owner[t] = res.To
	return nil
}
