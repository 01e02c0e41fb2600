package server

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// CheckpointFile is the checkpoint's file name inside Config.CheckpointDir:
// the engine's binary checkpoint document (engine.ReadCheckpointFile).
const CheckpointFile = "engine.ckpt"

// legacyCheckpointFile is where builds before the binary document kept
// their JSON checkpoint. New refuses a directory that holds only that file
// rather than start empty over tenants it cannot read.
const legacyCheckpointFile = "engine.ckpt.json"

// Config configures a Server.
type Config struct {
	// HTTPAddr is the HTTP listen address (e.g. "127.0.0.1:8080" or ":0");
	// empty disables the HTTP listener.
	HTTPAddr string
	// TCPAddr is the framed-op TCP listen address; empty disables it.
	TCPAddr string
	// CheckpointDir enables checkpointing: snapshots of engine state land
	// in <dir>/engine.ckpt (CheckpointFile, a binary document) and are
	// restored from there on New. A directory holding only a JSON-era
	// engine.ckpt.json makes New fail: this build cannot read it.
	CheckpointDir string
	// CheckpointEvery is the checkpoint interval; <= 0 means 15s. Only
	// meaningful with CheckpointDir set.
	CheckpointEvery time.Duration
	// Engine configures the shared engine. RecordArrivals is forced on
	// when CheckpointDir is set.
	Engine engine.Config
	// Logger receives structured lifecycle events (checkpoint capture,
	// restore, drain, TCP stream failures). nil means discard. It is also
	// handed to the engine unless Engine.Logger is set explicitly.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the HTTP
	// listener — opt-in, since profiling endpoints on a serving port are a
	// deliberate choice.
	EnablePprof bool
}

// Server multiplexes HTTP and TCP front ends onto one engine. Create with
// New (which restores any existing checkpoint), bind with Start, stop with
// Shutdown.
type Server struct {
	cfg    Config
	eng    *engine.Engine
	logger *slog.Logger

	httpLn  net.Listener
	httpSrv *http.Server
	tcpLn   net.Listener

	stop     chan struct{}  // closed by Shutdown: background loops exit
	loops    sync.WaitGroup // checkpoint loop + TCP accept loop
	tcpConns sync.WaitGroup // in-flight TCP connections

	// In-flight HTTP requests. http.Server.Shutdown returns on context
	// expiry with active handlers still running; a handler blocked in
	// engine.Serve on mailbox backpressure must still finish before the
	// engine closes (shards keep serving until Close, so such handlers
	// always unblock). draining rejects new requests once Shutdown begins.
	reqMu    sync.Mutex
	httpReqs sync.WaitGroup
	draining bool

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// Checkpoint bookkeeping: ckptMu serializes checkpoint writes and
	// guards the capture-side metrics; the restore-side fields are written
	// once in New, before any concurrency.
	ckptMu    sync.Mutex
	ckptCount int64
	ckptLast  ckptRecord
	restored  engine.RestoreStats // what New's restore did
	restoreMs float64             // wall time of that restore (read + restore, tails served)

	shutdownOnce sync.Once
	shutdownErr  error
}

// ckptRecord captures one checkpoint write for the metrics report.
type ckptRecord struct {
	bytes    int
	ms       float64
	unix     int64
	arrivals int
	tail     int
}

// New creates the engine and, when checkpointing is configured and a
// checkpoint file exists, restores it. Listeners are not bound until Start.
func New(cfg Config) (*Server, error) {
	if cfg.CheckpointDir != "" {
		cfg.Engine.RecordArrivals = true
		if cfg.CheckpointEvery <= 0 {
			cfg.CheckpointEvery = 15 * time.Second
		}
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.Discard()
	}
	if cfg.Engine.Logger == nil {
		cfg.Engine.Logger = logger
	}
	eng, err := engine.NewChecked(cfg.Engine)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		eng:    eng,
		logger: logger,
		stop:   make(chan struct{}),
		conns:  map[net.Conn]struct{}{},
	}
	if cfg.CheckpointDir != "" {
		if err := s.restore(); err != nil {
			eng.Close()
			return nil, err
		}
	}
	return s, nil
}

// restore restores the checkpoint in the configured directory, if there is
// one. The reported duration covers reading the file and restoring it,
// replayed tails included.
func (s *Server) restore() error {
	path := s.checkpointPath()
	if _, err := os.Stat(path); os.IsNotExist(err) {
		legacy := filepath.Join(s.cfg.CheckpointDir, legacyCheckpointFile)
		if _, err := os.Stat(legacy); err == nil {
			return fmt.Errorf("server: %s holds only %s, a JSON checkpoint document of an earlier build; this build reads only the binary %s and will not start empty over it",
				s.cfg.CheckpointDir, legacyCheckpointFile, CheckpointFile)
		}
		return nil
	} else if err != nil {
		return err
	}
	start := time.Now()
	ck, err := engine.ReadCheckpointFile(path)
	if err != nil {
		return err
	}
	stats, err := s.eng.Restore(ck)
	if err != nil {
		return fmt.Errorf("server: restoring %s: %v", path, err)
	}
	// Restore returns with every live tenant's tail served and every
	// passive one's kept, so the time below covers the replay.
	s.restored = stats
	s.restoreMs = float64(time.Since(start).Microseconds()) / 1e3
	s.logger.Info("checkpoint restored",
		"path", path, "arrivals", stats.Arrivals, "replayed", stats.Replayed,
		"state_bytes", stats.StateBytes, "ms", s.restoreMs)
	return nil
}

// Engine exposes the shared engine (for in-process callers and tests).
func (s *Server) Engine() *engine.Engine { return s.eng }

// NodeInfo identifies one serving node to a cluster router: where to reach
// it (both listeners, as bound), what it runs (algorithm + seed — tenants
// may only move between nodes that agree on both, or their decisions would
// silently diverge), whether it can make migrations durable (checkpointing
// configured), and its current tenant/served counts for placement.
type NodeInfo struct {
	HTTPAddr     string `json:"http_addr"`
	TCPAddr      string `json:"tcp_addr,omitempty"`
	Algorithm    string `json:"algorithm"`
	Seed         int64  `json:"seed"`
	Checkpointed bool   `json:"checkpointed"`
	Tenants      int    `json:"tenants"`
	Served       int64  `json:"served"`
}

// NodeInfo reports this server's cluster identity (see the NodeInfo type).
func (s *Server) NodeInfo() NodeInfo {
	alg := s.cfg.Engine.Algorithm
	if alg == "" {
		alg = "pd"
	}
	return NodeInfo{
		HTTPAddr:     s.HTTPAddr(),
		TCPAddr:      s.TCPAddr(),
		Algorithm:    alg,
		Seed:         s.cfg.Engine.Seed,
		Checkpointed: s.cfg.CheckpointDir != "",
		Tenants:      s.eng.TenantCount(),
		Served:       s.eng.ServedTotal(),
	}
}

// Restored reports how many arrivals the checkpoint restored during New
// represents — base-state arrivals plus replayed tail (0 when no checkpoint
// was found).
func (s *Server) Restored() int { return s.restored.Arrivals }

// RestoreStats reports what New's checkpoint restore did (zero value when
// no checkpoint was found).
func (s *Server) RestoreStats() engine.RestoreStats { return s.restored }

func (s *Server) checkpointPath() string {
	return filepath.Join(s.cfg.CheckpointDir, CheckpointFile)
}

// Start binds the configured listeners and starts the serving and
// checkpoint loops. At least one listener must be configured.
func (s *Server) Start() error {
	if s.cfg.HTTPAddr == "" && s.cfg.TCPAddr == "" {
		return fmt.Errorf("server: no listeners configured (need HTTPAddr and/or TCPAddr)")
	}
	if s.cfg.HTTPAddr != "" {
		ln, err := net.Listen("tcp", s.cfg.HTTPAddr)
		if err != nil {
			return err
		}
		s.httpLn = ln
		s.httpSrv = NewHTTPServer(s.trackRequests(s.handler()))
		go s.httpSrv.Serve(ln) // returns ErrServerClosed on Shutdown
	}
	if s.cfg.TCPAddr != "" {
		ln, err := net.Listen("tcp", s.cfg.TCPAddr)
		if err != nil {
			if s.httpLn != nil {
				s.httpLn.Close()
			}
			return err
		}
		s.tcpLn = ln
		s.loops.Add(1)
		go s.acceptLoop(ln)
	}
	if s.cfg.CheckpointDir != "" {
		s.loops.Add(1)
		go s.checkpointLoop()
	}
	return nil
}

// HTTPAddr returns the bound HTTP address ("" when disabled) — useful with
// ":0" listen addresses.
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// TCPAddr returns the bound TCP framing address ("" when disabled).
func (s *Server) TCPAddr() string {
	if s.tcpLn == nil {
		return ""
	}
	return s.tcpLn.Addr().String()
}

// Checkpoint captures and atomically persists a checkpoint now (format v2:
// per-tenant base states + tail segments, written as the binary document).
// Errors when checkpointing is not configured.
func (s *Server) Checkpoint() error {
	if s.cfg.CheckpointDir == "" {
		return fmt.Errorf("server: checkpointing not configured")
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	start := time.Now()
	ck, err := s.eng.Checkpoint()
	if err != nil {
		return err
	}
	n, err := ck.WriteFile(s.checkpointPath())
	if err != nil {
		return err
	}
	s.ckptCount++
	s.ckptLast = ckptRecord{
		bytes:    n,
		ms:       float64(time.Since(start).Microseconds()) / 1e3,
		unix:     time.Now().Unix(),
		arrivals: ck.Arrivals(),
		tail:     ck.TailArrivals(),
	}
	s.logger.Info("checkpoint written",
		"bytes", n, "ms", s.ckptLast.ms, "arrivals", s.ckptLast.arrivals,
		"tail_arrivals", s.ckptLast.tail, "count", s.ckptCount)
	return nil
}

// Metrics is the server's health report: the engine metrics plus the
// checkpoint/restore observability the durability pipeline needs — how big
// and how slow checkpoints are, and how much of the last restore was served
// from serialized state versus replayed.
type Metrics struct {
	engine.Metrics
	Checkpoint CheckpointMetrics `json:"checkpoint"`
	// Runtime is the node's Go runtime health (goroutines, heap, GC). Never
	// merged across nodes — the router reports it per node.
	Runtime obs.RuntimeStats `json:"runtime"`
}

// CheckpointMetrics reports the durability pipeline's health.
type CheckpointMetrics struct {
	// Configured is false when the server runs without a checkpoint dir
	// (every other field is then zero).
	Configured bool `json:"configured"`
	// Count is the number of checkpoints written since start.
	Count int64 `json:"count"`
	// LastBytes / LastDurationMs / LastUnix describe the latest write.
	LastBytes      int     `json:"last_bytes,omitempty"`
	LastDurationMs float64 `json:"last_duration_ms,omitempty"`
	LastUnix       int64   `json:"last_unix,omitempty"`
	// LastArrivals is the arrival count the latest checkpoint represents;
	// LastTailArrivals how many of those sit in tails (the rest load as
	// serialized base state): a restore replays the live records' tails
	// and keeps the passive ones'.
	LastArrivals     int `json:"last_arrivals,omitempty"`
	LastTailArrivals int `json:"last_tail_arrivals,omitempty"`
	// Restore describes the checkpoint restore at startup, if any.
	RestoreDurationMs  float64 `json:"restore_duration_ms,omitempty"`
	RestoredArrivals   int     `json:"restored_arrivals,omitempty"`
	RestoredReplayed   int     `json:"restored_replayed,omitempty"`
	RestoredStateBytes int64   `json:"restored_state_bytes,omitempty"`
}

// Metrics returns the server health report.
func (s *Server) Metrics() Metrics {
	m := Metrics{Metrics: s.eng.Metrics(), Runtime: obs.ReadRuntime()}
	if s.cfg.CheckpointDir == "" {
		return m
	}
	s.ckptMu.Lock()
	count, last := s.ckptCount, s.ckptLast
	s.ckptMu.Unlock()
	m.Checkpoint = CheckpointMetrics{
		Configured:         true,
		Count:              count,
		LastBytes:          last.bytes,
		LastDurationMs:     last.ms,
		LastUnix:           last.unix,
		LastArrivals:       last.arrivals,
		LastTailArrivals:   last.tail,
		RestoreDurationMs:  s.restoreMs,
		RestoredArrivals:   s.restored.Arrivals,
		RestoredReplayed:   s.restored.Replayed,
		RestoredStateBytes: s.restored.StateBytes,
	}
	return m
}

func (s *Server) checkpointLoop() {
	defer s.loops.Done()
	tick := time.NewTicker(s.cfg.CheckpointEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			// Best-effort: a failed periodic checkpoint (e.g. disk full)
			// must not kill the serving loops; the next tick retries.
			s.Checkpoint() //nolint:errcheck
		case <-s.stop:
			return
		}
	}
}

// Shutdown gracefully stops the server: listeners close (no new work), the
// HTTP server waits for in-flight requests, open TCP connections finish
// their streams (force-closed when ctx expires), mailboxes drain, a final
// checkpoint is written, and the engine stops. Safe to call once; repeated
// calls return the first result.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() {
		s.reqMu.Lock()
		s.draining = true
		s.reqMu.Unlock()
		s.logger.Info("drain started", "tenants", s.eng.TenantCount(), "served", s.eng.ServedTotal())
		close(s.stop)
		var firstErr error
		keep := func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if s.tcpLn != nil {
			keep(s.tcpLn.Close())
		}
		if s.httpSrv != nil {
			keep(s.httpSrv.Shutdown(ctx))
		}
		// Wait for in-flight TCP streams, force-closing at ctx expiry.
		done := make(chan struct{})
		go func() {
			s.tcpConns.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			s.connMu.Lock()
			for c := range s.conns {
				c.Close()
			}
			s.connMu.Unlock()
			<-done
			keep(ctx.Err())
		}
		// HTTP handlers that outlived ctx (e.g. blocked on mailbox
		// backpressure) must finish before the engine closes: Close is
		// not safe concurrently with Serve. Progress is guaranteed —
		// shards keep draining mailboxes until Close.
		s.httpReqs.Wait()
		s.loops.Wait()
		s.eng.Drain()
		if s.cfg.CheckpointDir != "" {
			keep(s.Checkpoint())
		}
		s.eng.Close()
		s.logger.Info("shutdown complete", "err", errString(firstErr))
		s.shutdownErr = firstErr
	})
	return s.shutdownErr
}

// errString renders an error for a log attribute ("" when nil).
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
