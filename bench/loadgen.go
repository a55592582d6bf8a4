//go:build linux

package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// packet is one pre-encoded query. The generator overwrites the DNS ID
// and, when patchOff >= 0, an eight-character hex field inside the
// first label, so one template yields a name no earlier send has used.
type packet struct {
	wire     []byte
	qEnd     int // end of the question section in wire
	patchOff int
	shape    int    // index into the workload's shape table
	want     string // shape-specific expected answer
}

// checkFunc validates one response to p as sent with sequence number
// seq. full asks for a complete decode, not just header and question.
type checkFunc func(p *packet, seq uint32, resp []byte, full bool) bool

// fullCheckEvery is how often a timed phase fully decodes a response.
const fullCheckEvery = 64

// spanEvery is how often a traced phase records a request span.
const spanEvery = 256

// loadgen is the benchmark's load generator: one UDP socket, one sender
// (the caller's goroutine) and one receiver goroutine. Responses are
// matched to requests by DNS ID through a 65,536-slot table, which
// bounds the requests in flight and makes sent == answered + failed
// exact: a slot is released by exactly one of the receiver (answered,
// or wrong answer) and the sender's sweep (timed out).
type loadgen struct {
	conn    *net.UDPConn
	pkts    []packet
	check   checkFunc
	timeout time.Duration
	epoch   time.Time
	// fullEvery is how often a response is fully decoded: 1 during the
	// warm-up pass, fullCheckEvery in the timed phases.
	fullEvery uint32
	// onSpan, if set, receives one in spanEvery completed requests
	// (times in ns since epoch). Set it before the first phase.
	onSpan func(seq uint32, due, done int64)

	slots   [1 << 16]slot
	seq     uint32 // sends so far; never reset, so patched names stay unique
	nextID  uint16
	free    chan struct{} // closed loop: one token per window slot
	sendBuf []byte
	recvWG  sync.WaitGroup

	mu sync.Mutex // guards res between the receiver and phase boundaries
	// res is the phase being measured.
	res *phaseResult
}

// slot is one in-flight request. state holds seq+1 of the request
// occupying it (0 = free); since every send has its own seq, a
// successful compare-and-swap from that value to 0 proves the due time
// read beforehand belongs to the same request.
type slot struct {
	state atomic.Uint32
	due   atomic.Int64
}

// phaseResult is what one open- or closed-loop phase measured.
type phaseResult struct {
	sent     int
	answered int
	failed   int // timed out, wrong or undecodable answer, or send error
	wrong    int // subset of failed: an answer arrived but was incorrect
	stray    int // datagrams matching no request in flight
	wall     time.Duration
	lat      []int64 // ns from due time to response, answered requests
	lag      []int64 // ns from due time to the send call (open loop)
}

func newLoadgen(target string, pkts []packet, check checkFunc) (*loadgen, error) {
	raddr, err := net.ResolveUDPAddr("udp4", target)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp4", nil, raddr)
	if err != nil {
		return nil, err
	}
	// Room for a full window of the largest answers; the default can
	// be as small as 208 KiB, which a burst of 512-byte answers fills.
	_ = conn.SetReadBuffer(4 << 20) // best effort: the kernel clamps it
	g := &loadgen{
		conn:      conn,
		pkts:      pkts,
		check:     check,
		timeout:   time.Second,
		epoch:     time.Now(),
		fullEvery: fullCheckEvery,
		sendBuf:   make([]byte, 0, 512),
	}
	g.recvWG.Add(1)
	go g.receive()
	return g, nil
}

// Close stops the receiver and waits for it.
func (g *loadgen) Close() {
	g.conn.Close()
	g.recvWG.Wait()
}

func (g *loadgen) now() int64 { return int64(time.Since(g.epoch)) }

func (g *loadgen) receive() {
	defer g.recvWG.Done()
	buf := make([]byte, 65535)
	for {
		n, err := g.conn.Read(buf)
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			continue // e.g. ECONNREFUSED while a daemon is still starting
		}
		done := g.now()
		g.mu.Lock()
		g.onResponse(buf[:n], done)
		g.mu.Unlock()
	}
}

// onResponse matches one datagram to its request. Caller holds g.mu.
func (g *loadgen) onResponse(resp []byte, done int64) {
	r := g.res
	if r == nil {
		return
	}
	if len(resp) < 12 {
		r.stray++
		return
	}
	s := &g.slots[binary.BigEndian.Uint16(resp)]
	tok := s.state.Load()
	if tok == 0 {
		r.stray++
		return
	}
	due := s.due.Load()
	if !s.state.CompareAndSwap(tok, 0) {
		r.stray++ // the sweep timed it out first
		return
	}
	seq := tok - 1
	p := &g.pkts[int(seq)%len(g.pkts)]
	if g.check(p, seq, resp, seq%g.fullEvery == 0) {
		r.answered++
		r.lat = append(r.lat, done-due)
		if g.onSpan != nil && seq%spanEvery == 0 {
			g.onSpan(seq, due, done)
		}
	} else {
		r.failed++
		r.wrong++
	}
	g.release()
}

// release returns a window token in a closed-loop phase.
func (g *loadgen) release() {
	if g.free != nil {
		select {
		case g.free <- struct{}{}:
		default:
		}
	}
}

// patchHex writes the eight lowercase hex digits of v at b[0:8].
func patchHex(b []byte, v uint32) {
	const digits = "0123456789abcdef"
	for i := 7; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
}

// send transmits the next packet, stamped as due at time due. It
// reports false when no slot could be claimed or the write failed; the
// request then counts as sent and failed.
func (g *loadgen) send(r *phaseResult, due int64) bool {
	seq := g.seq
	g.seq++
	if g.seq == ^uint32(0) {
		g.seq = 0 // seq+1 must never be 0, the free marker
	}
	r.sent++
	var s *slot
	var id uint16
	for tries := 0; tries < len(g.slots); tries++ {
		id = g.nextID
		g.nextID++
		c := &g.slots[id]
		if tok := c.state.Load(); tok != 0 {
			if g.now()-c.due.Load() < int64(g.timeout) || !c.state.CompareAndSwap(tok, 0) {
				continue // still in flight, or just answered: try the next ID
			}
			g.timedOut(r)
		}
		s = c
		break
	}
	if s == nil {
		g.mu.Lock()
		r.failed++
		g.mu.Unlock()
		return false
	}
	b := g.pkts[int(seq)%len(g.pkts)].encode(g.sendBuf, id, seq)
	s.due.Store(due)
	s.state.Store(seq + 1)
	if _, err := g.conn.Write(b); err != nil {
		if s.state.CompareAndSwap(seq+1, 0) {
			g.mu.Lock()
			r.failed++
			g.mu.Unlock()
			g.release()
		}
		return false
	}
	return true
}

// timedOut accounts one request the sweep (not the receiver) released.
func (g *loadgen) timedOut(r *phaseResult) {
	g.mu.Lock()
	r.failed++
	g.mu.Unlock()
	g.release()
}

// sweep releases every request older than the timeout and reports how
// many are still in flight.
func (g *loadgen) sweep(r *phaseResult) (inFlight int) {
	now := g.now()
	for i := range g.slots {
		s := &g.slots[i]
		tok := s.state.Load()
		if tok == 0 {
			continue
		}
		if now-s.due.Load() >= int64(g.timeout) && s.state.CompareAndSwap(tok, 0) {
			g.timedOut(r)
			continue
		}
		inFlight++
	}
	return inFlight
}

// begin installs a fresh result as the phase being measured. window is
// the closed-loop window, or 0 for an open loop.
func (g *loadgen) begin(capHint, window int) *phaseResult {
	r := &phaseResult{lat: make([]int64, 0, capHint)}
	g.mu.Lock()
	g.res = r
	g.free = nil
	if window > 0 {
		g.free = make(chan struct{}, window)
		for i := 0; i < window; i++ {
			g.free <- struct{}{}
		}
	}
	g.mu.Unlock()
	return r
}

// finish waits until every request of the phase is answered or timed
// out, then detaches the result from the receiver.
func (g *loadgen) finish(r *phaseResult, start time.Time) *phaseResult {
	r.wall = time.Since(start)
	for g.sweep(r) > 0 {
		time.Sleep(time.Millisecond)
	}
	g.mu.Lock()
	g.res = nil
	g.mu.Unlock()
	return r
}

// prSetTimerSlack is prctl(2)'s PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// openLoop sends at a fixed rate for d, whatever the server does: a
// slow server faces a growing backlog. Each request is stamped with
// the time it was due, not the time the generator got round to it, so a
// stall shows up in every request it delayed; lag records how late the
// generator itself ran.
//
// Pacing sleeps in nanosleep(2) on a locked thread whose timer slack is
// cut from the default 50 us to 1 ns: the Go runtime rounds short
// sleeps up to a millisecond, and spinning instead would take the core
// from whatever shares it with the generator.
func (g *loadgen) openLoop(rate float64, d time.Duration) *phaseResult {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort; lag reports the result

	n := int(rate * d.Seconds())
	r := g.begin(n, 0)
	r.lag = make([]int64, 0, n)
	interval := float64(time.Second) / rate
	start := time.Now()
	t0 := g.now()
	for i := 0; i < n; i++ {
		due := t0 + int64(float64(i)*interval)
		for wait := due - g.now(); wait > 0; wait = due - g.now() {
			if wait > int64(20*time.Microsecond) {
				ts := syscall.NsecToTimespec(wait - int64(10*time.Microsecond))
				_ = syscall.Nanosleep(&ts, nil) // an early wake-up just loops
			}
		}
		r.lag = append(r.lag, g.now()-due)
		g.send(r, due)
		if i%4096 == 4095 {
			g.sweep(r)
		}
	}
	return g.finish(r, start)
}

// closedLoop keeps window requests outstanding: the next request goes
// out only when an earlier one completes, so the answered rate is the
// highest the server sustains without a growing backlog. It runs for d,
// or, when n > 0, until n requests have been sent.
func (g *loadgen) closedLoop(window int, d time.Duration, n int) *phaseResult {
	r := g.begin(1<<20, window)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	start := time.Now()
	end := g.now() + int64(d)
	for (n > 0 && r.sent < n) || (n == 0 && g.now() < end) {
		select {
		case <-g.free:
			g.send(r, g.now())
		case <-tick.C:
			g.sweep(r) // lost requests give their window slots back
		}
	}
	return g.finish(r, start)
}

func (r *phaseResult) String() string {
	return fmt.Sprintf("sent=%d answered=%d failed=%d (wrong=%d) stray=%d wall=%v",
		r.sent, r.answered, r.failed, r.wrong, r.stray, r.wall.Round(time.Millisecond))
}

// percentileUs returns the q-quantile (0..1) of sorted ns samples in
// microseconds, or 0 for an empty sample.
func percentileUs(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i]) / 1e3
}

// tail returns the highest percentile that still has at least ten
// samples beyond it, and its value in microseconds.
func tail(sorted []int64) (pct, us float64) {
	n := len(sorted)
	if n <= 10 {
		return 0, 0
	}
	i := n - 11
	return 100 * float64(i+1) / float64(n), float64(sorted[i]) / 1e3
}

func sortedCopy(xs []int64) []int64 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}
