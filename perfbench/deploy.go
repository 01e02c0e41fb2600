package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/server"
)

// engineSeed is every worker's engine seed: nodes must agree on it for
// tenants to move between them.
const engineSeed = 1

// topology is a deployment's shape: workers behind an optional router.
type topology struct {
	workers     int
	shards      int // per worker
	policy      string
	ckpt        bool // workers checkpoint (and so record arrivals)
	router      bool
	replicate   bool
	routerState bool // the router keeps a durable route log
	traceSample int
}

// deployment is one in-process cluster stood up through the public
// constructors.
type deployment struct {
	topo       topology
	workers    []*server.Server
	workerDirs []string
	nodes      []string // the workers' HTTP addresses, kept by release for a restore
	router     *cluster.Router
	routerDir  string
}

func workerConfig(dir string, topo topology, httpAddr string) server.Config {
	cfg := server.Config{
		HTTPAddr: httpAddr,
		TCPAddr:  "127.0.0.1:0",
		Engine: engine.Config{
			Shards:      topo.shards,
			ShardPolicy: topo.policy,
			Seed:        engineSeed,
			TraceSample: topo.traceSample,
		},
	}
	if topo.ckpt {
		// Longer than any run, so no background checkpoint lands inside
		// a timed window.
		cfg.CheckpointDir, cfg.CheckpointEvery = dir, time.Hour
	}
	return cfg
}

func startWorker(dir string, topo topology, httpAddr string) (*server.Server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s, err := server.New(workerConfig(dir, topo, httpAddr))
	if err != nil {
		return nil, err
	}
	if err := s.Start(); err != nil {
		s.Shutdown(context.Background()) //nolint:errcheck // already failing
		return nil, err
	}
	return s, nil
}

func routerConfig(d *deployment, nodes []string) cluster.Config {
	cfg := cluster.Config{
		HTTPAddr:  "127.0.0.1:0",
		TCPAddr:   "127.0.0.1:0",
		Nodes:     nodes,
		Placement: "leastload",
		Replicate: d.topo.replicate,
	}
	if d.topo.routerState {
		cfg.StateDir = d.routerDir
	}
	return cfg
}

// deploy stands up the workers and the router (rebalancing off).
func deploy(dir string, topo topology) (*deployment, error) {
	d := &deployment{topo: topo, routerDir: filepath.Join(dir, "router")}
	for i := 0; i < topo.workers; i++ {
		wd := filepath.Join(dir, fmt.Sprintf("w%d", i))
		s, err := startWorker(wd, topo, "127.0.0.1:0")
		if err != nil {
			d.shutdown()
			return nil, err
		}
		d.workers = append(d.workers, s)
		d.workerDirs = append(d.workerDirs, wd)
	}
	if !topo.router {
		return d, nil
	}
	var nodes []string
	for _, w := range d.workers {
		nodes = append(nodes, w.HTTPAddr())
	}
	r, err := cluster.New(routerConfig(d, nodes))
	if err == nil {
		err = r.Start()
	}
	if err != nil {
		d.shutdown()
		return nil, err
	}
	d.router = r
	return d, nil
}

func (d *deployment) frontHTTP() string {
	if d.router != nil {
		return d.router.HTTPAddr()
	}
	return d.workers[0].HTTPAddr()
}

func (d *deployment) frontTCP() string {
	if d.router != nil {
		return d.router.TCPAddr()
	}
	return d.workers[0].TCPAddr()
}

// servedTotal sums the workers' served counters. Valid only while no
// tenant has moved: an injected tenant's replayed tail counts again.
func (d *deployment) servedTotal() int64 {
	var n int64
	for _, w := range d.workers {
		n += w.Engine().ServedTotal()
	}
	return n
}

// copies is how many workers hold each tenant.
func (d *deployment) copies() int {
	if d.topo.replicate {
		return 2
	}
	return 1
}

// waitServedTenants blocks until every tenant's copies report exactly
// want[t] served. ServedCount settles each tenant's queued arrivals first,
// so this is exact even while tenants move between workers.
func (d *deployment) waitServedTenants(names []string, want []int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for t, name := range names {
		for {
			copies, ok := 0, true
			for _, w := range d.workers {
				n, err := w.Engine().ServedCount(name)
				if err != nil {
					continue
				}
				copies++
				ok = ok && int64(n) == want[t]
			}
			if ok && copies == d.copies() {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("tenant %s: served count never reached %d on %d workers", name, want[t], d.copies())
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return nil
}

// waitServedTotal polls the workers' served counters until they reach want.
func (d *deployment) waitServedTotal(want int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for d.servedTotal() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("workers served %d of %d arrivals", d.servedTotal(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// shutdown stops the router and the workers; each worker writes a final
// checkpoint on the way down.
func (d *deployment) shutdown() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if d.router != nil {
		keep(d.router.Shutdown(10 * time.Second))
		d.router = nil
	}
	for _, w := range d.workers {
		keep(shutdownWorker(w))
	}
	d.workers = nil
	return first
}

// checkpointBytes sums the checkpoint files the workers last wrote.
func (d *deployment) checkpointBytes() (int64, error) {
	var n int64
	for _, dir := range d.workerDirs {
		st, err := os.Stat(filepath.Join(dir, server.CheckpointFile))
		if err != nil {
			return 0, err
		}
		n += st.Size()
	}
	return n, nil
}

func shutdownWorker(s *server.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}
