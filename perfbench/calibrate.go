package main

import (
	"io"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The host's speed moves under the benchmark. On a shared machine with a
// few cores the same deterministic work has taken up to two and a half
// times as long at one time as at another, and repeating it within a run
// does not remove the slow changes. Each end-to-end run therefore also times a
// fixed kernel of the benchmark's own, which calls no program code, at
// points where no deployment is up (before each set-up and each restore),
// and reports every timing scaled by refKernel over the run's median kernel
// time: what the run would have read on a host that runs the kernel in
// refKernel. The raw figures and the kernel times are printed as notes.

// refKernel is the kernel time the timings are scaled to.
const refKernel = 100 * time.Millisecond

const (
	kernelRounds = 60
	kernelFloats = 1 << 15 // 256 KiB
	kernelTable  = 1 << 20 // 4 MiB of uint32
	kernelReads  = 1 << 17
	kernelKeys   = 1 << 13
	// kernelTrips round trips of a 64-byte message over loopback TCP.
	kernelTrips = 2000
)

// kernelSink keeps the kernel's results live, so that its work is not
// optimised away.
var kernelSink atomic.Uint64

// kernel times a fixed amount of work in two parts that mirror what the
// serving path spends its time on: compute and memory on every processor,
// then messages between goroutines over loopback TCP. It returns the sum
// of the two wall times.
func kernel() (time.Duration, error) {
	compute := computeKernel()
	trips, err := pingPong()
	return compute + trips, err
}

// computeKernel runs a fixed amount of work on nproc goroutines and returns
// the wall time until it is done. The work is kernelRounds × nproc rounds,
// which the goroutines take from a shared counter, so that the time reads
// the processors' combined speed, as a closed loop that keeps them all busy
// does. A round runs a dependent float recurrence over a 256 KiB array,
// reads a 4 MiB table at pseudo-random offsets, and sorts 8k keys. The
// buffers are allocated and touched before the clock starts, and nothing is
// allocated while it runs.
func computeKernel() time.Duration {
	procs := runtime.GOMAXPROCS(0)
	type bufs struct {
		fl    []float64
		table []uint32
		keys  []int
	}
	work := make([]bufs, procs)
	for g := range work {
		b := bufs{fl: make([]float64, kernelFloats), table: make([]uint32, kernelTable), keys: make([]int, kernelKeys)}
		for i := range b.fl {
			b.fl[i] = float64(i%1000) / 1000
		}
		for i := range b.table {
			b.table[i] = uint32(i) * 2654435761
		}
		work[g] = b
	}
	var next atomic.Int64
	rounds := int64(kernelRounds * procs)
	var wg sync.WaitGroup
	start := time.Now()
	for g := range work {
		wg.Add(1)
		go func(b bufs) {
			defer wg.Done()
			var h uint32 = 2166136261
			x := 1.0
			for r := next.Add(1) - 1; r < rounds; r = next.Add(1) - 1 {
				for i, v := range b.fl {
					x = x*0.999 + v
					b.fl[i] = x * 0.001
				}
				for i := 0; i < kernelReads; i++ {
					h = (h ^ b.table[h&(kernelTable-1)]) * 16777619
				}
				for i := range b.keys {
					b.keys[i] = int((uint32(i) + uint32(r)) * 2654435761 >> 7)
				}
				sort.Ints(b.keys)
				h ^= uint32(b.keys[r%kernelKeys])
			}
			kernelSink.Add(uint64(h) + uint64(x))
		}(work[g])
	}
	wg.Wait()
	return time.Since(start)
}

// pingPong times kernelTrips round trips of a 64-byte message between two
// goroutines over a loopback TCP connection: the syscalls and cross-processor
// wake-ups every arrival's path is made of.
func pingPong() (time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 64)
		for err == nil {
			if _, err = io.ReadFull(c, buf); err == nil {
				_, err = c.Write(buf)
			}
		}
		if err == io.EOF {
			err = nil
		}
		echoed <- err
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	msg := make([]byte, 64)
	start := time.Now()
	for i := 0; i < kernelTrips && err == nil; i++ {
		if _, err = c.Write(msg); err == nil {
			_, err = io.ReadFull(c, msg)
		}
	}
	el := time.Since(start)
	c.Close()
	if eerr := <-echoed; err == nil {
		err = eerr
	}
	return el, err
}

// hostClock keeps a run's kernel times.
type hostClock struct{ samples []float64 } // s

// tick times the kernel once, after a collection.
func (h *hostClock) tick() error {
	runtime.GC()
	el, err := kernel()
	h.samples = append(h.samples, el.Seconds())
	return err
}

// scale is the factor that turns the run's wall times into times at the
// reference speed: refKernel over the median kernel time.
func (h *hostClock) scale() float64 { return refKernel.Seconds() / median(h.samples) }
