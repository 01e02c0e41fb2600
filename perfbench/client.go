package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/server"
)

// tcpClient is one binary-wire client connection. A reader goroutine folds
// ACK frames into the acked count (and, during an open-loop phase, stamps
// each arrival's ack time); the caller's goroutine writes.
type tcpClient struct {
	conn net.Conn
	bw   *bufio.Writer
	t0   time.Time // clock base for ack stamps

	mu      sync.Mutex
	cond    *sync.Cond
	sent    int64 // arrivals written (the stream's next seq)
	acked   int64
	bad     int64 // acks with a non-OK result code
	err     error
	result  *server.TCPResult
	ackBase int64   // seq of ackAt[0]
	ackAt   []int64 // open loop: ack time (ns since t0) per seq
	done    chan struct{}
	written int64 // bytes written
}

func dialTCP(addr string, t0 time.Time) (*tcpClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &tcpClient{conn: conn, bw: bufio.NewWriterSize(conn, 1<<16), t0: t0, done: make(chan struct{})}
	c.cond = sync.NewCond(&c.mu)
	go c.read()
	return c, nil
}

func (c *tcpClient) read() {
	defer close(c.done)
	br := bufio.NewReaderSize(c.conn, 1<<16)
	buf := make([]byte, 0, 4096)
	fail := func(err error) {
		c.mu.Lock()
		c.err = err
		c.cond.Broadcast()
		c.mu.Unlock()
	}
	for {
		frame, err := server.ReadFrame(br, buf)
		if err != nil {
			fail(err)
			return
		}
		if !server.IsBinaryFrame(frame) {
			var res server.TCPResult
			if err := json.Unmarshal(frame, &res); err != nil {
				fail(err)
				return
			}
			c.mu.Lock()
			c.result = &res
			c.cond.Broadcast()
			c.mu.Unlock()
			return
		}
		op, body, err := server.WireFrameKind(frame)
		if err == nil && op != server.WireAck {
			err = fmt.Errorf("unexpected binary op 0x%02x", op)
		}
		var ack server.WireAckFrame
		if err == nil {
			ack, err = server.DecodeWireAck(body)
		}
		if err != nil {
			fail(err)
			return
		}
		now := time.Since(c.t0).Nanoseconds()
		c.mu.Lock()
		for i, code := range ack.Codes {
			if code != server.WireAckOK {
				c.bad++
			}
			if j := int64(ack.FirstSeq) + int64(i) - c.ackBase; j >= 0 && j < int64(len(c.ackAt)) {
				c.ackAt[j] = now
			}
		}
		c.acked += int64(len(ack.Codes))
		c.cond.Broadcast()
		c.mu.Unlock()
		buf = frame[:0]
	}
}

func (c *tcpClient) write(fr []byte, arrivals int) error {
	if _, err := c.bw.Write(fr); err != nil {
		return err
	}
	c.written += int64(len(fr))
	c.mu.Lock()
	c.sent += int64(arrivals)
	c.mu.Unlock()
	return nil
}

func (c *tcpClient) badCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bad
}

// waitAcked blocks until at most window arrivals are unacknowledged.
func (c *tcpClient) waitAcked(window int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.err == nil && c.sent-c.acked > window {
		c.cond.Wait()
	}
	return c.err
}

// sendAll writes every frame and waits until all are acknowledged.
func (c *tcpClient) sendAll(f *frames) error {
	for i := 0; i < f.len(); i++ {
		if err := c.write(f.frame(i), int(f.count[i])); err != nil {
			return err
		}
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	return c.waitAcked(0)
}

// sendClosed is the closed loop: a frame goes out only while fewer than
// window arrivals are unacknowledged. It returns the time spent blocked on
// a full window.
func (c *tcpClient) sendClosed(f *frames, window int64) (time.Duration, error) {
	var blocked time.Duration
	for i := 0; i < f.len(); i++ {
		n := int64(f.count[i])
		c.mu.Lock()
		full := c.sent+n-c.acked > window
		c.mu.Unlock()
		if full {
			if err := c.bw.Flush(); err != nil {
				return blocked, err
			}
			t := time.Now()
			if err := c.waitAcked(window - n); err != nil {
				return blocked, err
			}
			blocked += time.Since(t)
		}
		if err := c.write(f.frame(i), int(n)); err != nil {
			return blocked, err
		}
	}
	if err := c.bw.Flush(); err != nil {
		return blocked, err
	}
	return blocked, c.waitAcked(0)
}

// armOpen prepares ack stamping for the next n arrivals.
func (c *tcpClient) armOpen(n int) {
	c.mu.Lock()
	c.ackBase = c.sent
	c.ackAt = make([]int64, n)
	c.mu.Unlock()
}

// sendOpen is the open loop: frame i goes out at start+due[i] or, when the
// generator runs behind, as soon as it can; sendAt records when (ns since
// t0). Due times are fixed before the phase and never slip.
func (c *tcpClient) sendOpen(f *frames, start int64, sendAt []int64) error {
	for i := 0; i < f.len(); {
		now := time.Since(c.t0).Nanoseconds()
		if wait := start + f.due[i] - now; wait > 0 {
			time.Sleep(time.Duration(wait))
			now = time.Since(c.t0).Nanoseconds()
		}
		for ; i < f.len() && start+f.due[i] <= now; i++ {
			sendAt[i] = now
			if err := c.write(f.frame(i), int(f.count[i])); err != nil {
				return err
			}
		}
		if err := c.bw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// ackTimes returns the open-loop ack stamps once every arrival is acked.
func (c *tcpClient) ackTimes() ([]int64, error) {
	if err := c.waitAcked(0); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	at := c.ackAt
	c.ackAt = nil
	return at, nil
}

// close half-closes the stream and checks the server's result frame: the
// stream's truth on how many arrivals were served or routed.
func (c *tcpClient) close() error {
	defer c.conn.Close()
	if err := c.bw.Flush(); err != nil {
		return err
	}
	if err := c.conn.(*net.TCPConn).CloseWrite(); err != nil {
		return err
	}
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.result == nil:
		return fmt.Errorf("stream ended without a result: %v", c.err)
	case !c.result.OK:
		return fmt.Errorf("stream failed: %s", c.result.Error)
	case int64(c.result.Arrivals) != c.sent:
		return fmt.Errorf("stream result counts %d of %d arrivals", c.result.Arrivals, c.sent)
	case c.bad > 0:
		return fmt.Errorf("%d arrivals acked with an error code", c.bad)
	}
	return nil
}

// httpConn is one HTTP client pinned to a single keep-alive connection.
type httpConn struct {
	base string
	hc   *http.Client
}

func newHTTPConn(addr string) *httpConn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpConn{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (h *httpConn) do(method, path string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

func (h *httpConn) close() { h.hc.CloseIdleConnections() }
