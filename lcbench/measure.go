package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lcpio/internal/ckpt"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs. It refuses a
// percentile with fewer than minBeyond samples above its rank, so a p90
// needs at least 100 samples.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, errors.New("no samples")
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; p < 100 && beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is the process's maximum resident set size (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// recorder collects one phase's op outcomes from every client goroutine.
type recorder struct {
	mu         sync.Mutex
	writes     []float64 // successful write-op latencies, seconds
	restores   []float64 // successful restore-op latencies, seconds
	writeRaw   int64
	restoreRaw int64
	stored     int64 // medium bytes of the sets written
	attempted  int
	failed     int
	firstErr   error
	checkCPU   float64            // CPU the bench spent checking outputs
	layer      map[string]float64 // per-layer sums reported by the ops
	adviseMS   []float64
}

func newRecorder() *recorder { return &recorder{layer: make(map[string]float64)} }

func (r *recorder) write(d time.Duration, raw, stored int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.writes = append(r.writes, d.Seconds())
	r.writeRaw += raw
	r.stored += stored
}

func (r *recorder) restore(d time.Duration, raw int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.restores = append(r.restores, d.Seconds())
	r.restoreRaw += raw
}

// fail counts one attempted op that errored or failed an output check.
func (r *recorder) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// add accumulates a per-layer quantity an op reported.
func (r *recorder) add(name string, v float64) {
	r.mu.Lock()
	r.layer[name] += v
	r.mu.Unlock()
}

func (r *recorder) advise(d time.Duration) {
	r.mu.Lock()
	r.adviseMS = append(r.adviseMS, d.Seconds()*1e3)
	r.mu.Unlock()
}

func (r *recorder) excludeCPU(sec float64) {
	r.mu.Lock()
	r.checkCPU += sec
	r.mu.Unlock()
}

func (r *recorder) failedFrac() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// ioStat counts calls, bytes and busy time through one timed wrapper.
type ioStat struct {
	calls, bytes, busyNS atomic.Int64
}

func (s *ioStat) since(t0 time.Time, n int) {
	s.calls.Add(1)
	s.bytes.Add(int64(n))
	s.busyNS.Add(int64(time.Since(t0)))
}

func (s *ioStat) busy() float64 { return float64(s.busyNS.Load()) / 1e9 }

// probes are the bench's timing wrappers around every ckpt.Medium and
// net.Conn the program uses in a traced run. They forward untimed until
// switched on, so one set of wrappers serves both halves of the run.
type probes struct {
	on                      atomic.Bool
	mediumWrite, mediumRead ioStat
	clientTx, clientRx      ioStat
	serverTx, serverRx      ioStat
}

// timedMedium times a medium's positional reads and writes.
type timedMedium struct {
	ckpt.Medium
	p *probes
}

func (m timedMedium) WriteAt(b []byte, off int64) (int, error) {
	if !m.p.on.Load() {
		return m.Medium.WriteAt(b, off)
	}
	t0 := time.Now()
	n, err := m.Medium.WriteAt(b, off)
	m.p.mediumWrite.since(t0, n)
	return n, err
}

func (m timedMedium) ReadAt(b []byte, off int64) (int, error) {
	if !m.p.on.Load() {
		return m.Medium.ReadAt(b, off)
	}
	t0 := time.Now()
	n, err := m.Medium.ReadAt(b, off)
	m.p.mediumRead.since(t0, n)
	return n, err
}

// timedConn times one end of a socket: Write is busy time, Read is time
// spent waiting for the peer.
type timedConn struct {
	net.Conn
	on     *atomic.Bool
	tx, rx *ioStat
}

func (c timedConn) Write(b []byte) (int, error) {
	if !c.on.Load() {
		return c.Conn.Write(b)
	}
	t0 := time.Now()
	n, err := c.Conn.Write(b)
	c.tx.since(t0, n)
	return n, err
}

func (c timedConn) Read(b []byte) (int, error) {
	if !c.on.Load() {
		return c.Conn.Read(b)
	}
	t0 := time.Now()
	n, err := c.Conn.Read(b)
	c.rx.since(t0, n)
	return n, err
}

// wrapMedium puts the timing wrapper around m when the run is traced.
func (p *probes) wrapMedium(m ckpt.Medium) ckpt.Medium {
	if p == nil {
		return m
	}
	return timedMedium{Medium: m, p: p}
}

func (p *probes) wrapClient(c net.Conn) net.Conn {
	if p == nil {
		return c
	}
	return timedConn{Conn: c, on: &p.on, tx: &p.clientTx, rx: &p.clientRx}
}

func (p *probes) wrapServer(c net.Conn) net.Conn {
	if p == nil {
		return c
	}
	return timedConn{Conn: c, on: &p.on, tx: &p.serverTx, rx: &p.serverRx}
}
