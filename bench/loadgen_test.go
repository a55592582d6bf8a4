//go:build linux

package main

import (
	"net"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"ritw/internal/authserver"
)

// startAuth serves the measurement zone from an in-process
// authserver.Server and returns its address.
func startAuth(t *testing.T) string {
	t.Helper()
	srv := authserver.NewServer(authEngine(false, 1, "FRA"))
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr().String()
}

func newTestLoadgen(t *testing.T, target string) *loadgen {
	t.Helper()
	pkts, shapes := wildPackets(1, 0, "FRA")
	g, err := newLoadgen(target, pkts, checker(shapes))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// TestLoadgenAccounting checks the generator's invariant on both kinds
// of phase against a healthy server: every request sent is answered or
// failed, and here none fails.
func TestLoadgenAccounting(t *testing.T) {
	g := newTestLoadgen(t, startAuth(t))
	g.fullEvery = 1
	for name, r := range map[string]*phaseResult{
		"open":   g.openLoop(2000, 300*time.Millisecond),
		"closed": g.closedLoop(16, 300*time.Millisecond, 0),
		"count":  g.closedLoop(16, 0, 500),
	} {
		if r.sent == 0 || r.sent != r.answered+r.failed {
			t.Errorf("%s: sent != answered + failed: %v", name, r)
		}
		if r.failed != 0 || r.stray != 0 {
			t.Errorf("%s: a healthy server left failures or strays: %v", name, r)
		}
		if len(r.lat) != r.answered {
			t.Errorf("%s: %d latencies for %d answers", name, len(r.lat), r.answered)
		}
	}
}

// TestLoadgenCountsLoss puts a server that drops every fourth query in
// front of the generator: the dropped requests must come back as
// failures after the timeout, not vanish, and wrong answers must fail
// the check.
func TestLoadgenCountsLoss(t *testing.T) {
	eng := authEngine(false, 1, "FRA")
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		buf := make([]byte, 4096)
		for n := 0; ; n++ {
			l, from, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return // the test closed the socket
			}
			resp := eng.HandleQuery(netip.MustParseAddr("127.0.0.1"), buf[:l], 0)
			switch n % 4 {
			case 0: // dropped
			case 1: // answered for a different name
				resp[14] ^= 0x01
				_, _ = conn.WriteToUDPAddrPort(resp, from)
			default:
				_, _ = conn.WriteToUDPAddrPort(resp, from)
			}
		}
	}()
	g := newTestLoadgen(t, conn.LocalAddr().String())
	g.timeout = 100 * time.Millisecond
	r := g.closedLoop(8, 0, 400)
	if r.sent != 400 || r.sent != r.answered+r.failed {
		t.Fatalf("sent != answered + failed: %v", r)
	}
	if r.answered != 200 || r.wrong != 100 || r.failed != 200 {
		t.Errorf("want 200 answered, 100 wrong, 100 timed out: %v", r)
	}
}

// TestLoadgenNoCoordinatedOmission stalls the server for 50 ms in the
// middle of an open-loop phase. Requests due during the stall are still
// sent on schedule and timed from when they were due, so about
// stall x rate of them must report a latency near the stall's length.
// A generator that waited for the server, or stamped requests when it
// got round to sending them, would show one slow request.
func TestLoadgenNoCoordinatedOmission(t *testing.T) {
	const (
		rate  = 2000.0
		stall = 50 * time.Millisecond
	)
	eng := authEngine(false, 1, "FRA")
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var stalled atomic.Bool
	go func() {
		buf := make([]byte, 4096)
		for n := 0; ; n++ {
			l, from, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			if n == 200 {
				stalled.Store(true)
				time.Sleep(stall)
			}
			_, _ = conn.WriteToUDPAddrPort(eng.HandleQuery(netip.MustParseAddr("127.0.0.1"), buf[:l], 0), from)
		}
	}()
	g := newTestLoadgen(t, conn.LocalAddr().String())
	r := g.openLoop(rate, 400*time.Millisecond)
	if !stalled.Load() {
		t.Fatal("the server never stalled")
	}
	if r.failed != 0 || r.answered != r.sent {
		t.Fatalf("requests failed: %v", r)
	}
	slow := 0
	for _, l := range r.lat {
		if l > int64(stall/4) {
			slow++
		}
	}
	// Requests due in the first three quarters of the stall waited at
	// least a quarter of it: 75 at this rate. Leave room for jitter.
	if want := int(rate * stall.Seconds() * 3 / 4); slow < want*2/3 {
		t.Errorf("%d requests saw the %v stall, want about %d: the stall was omitted from the latencies", slow, stall, want)
	}
	if lag := sortedCopy(r.lag); percentileUs(lag, 0.5) > 5000 {
		t.Errorf("the generator itself ran late: median lag %.0f us", percentileUs(lag, 0.5))
	}
}
