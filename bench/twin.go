//go:build linux

package main

import (
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"time"

	"ritw/internal/authserver"
	"ritw/internal/measure"
	"ritw/internal/resolver"
)

// The harness cannot profile a daemon from outside, so for the CPU fold
// of a live workload it serves the same engines from its own process —
// authserver.Server and resolver.UDPServer on real loopback sockets —
// and drives that twin with the workload's packets under the profiler.
// The generator's own samples are dropped by the fold (see classify).

// twinStats is the fold of a twin run with the Go runtime's account of
// the same interval.
type twinStats struct {
	fold     cpuFold
	gcCycles uint32
	pauseNs  uint64
	heapSys  uint64
}

// twinFold serves w in-process for d under the CPU profiler.
func twinFold(w liveWorkload, seed int64, pkts []packet, shapes []shape, d time.Duration) (twinStats, error) {
	var st twinStats
	var closers []func()
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	listenAuth := func(ip, site string) (netip.AddrPort, error) {
		srv := authserver.NewServer(authEngine(w.mixed, seed, site))
		if err := srv.ListenAndServe(ip + ":0"); err != nil {
			return netip.AddrPort{}, err
		}
		closers = append(closers, func() { srv.Close() })
		return srv.Addr().(*net.UDPAddr).AddrPort(), nil
	}

	var target string
	if !w.resolver {
		ap, err := listenAuth("127.0.0.1", "FRA")
		if err != nil {
			return st, err
		}
		target = ap.String()
	} else {
		rs, err := resolver.NewUDPServer("127.0.0.1:0")
		if err != nil {
			return st, err
		}
		closers = append(closers, func() { rs.Close() })
		var servers []netip.Addr
		for i, site := range []string{"DUB", "FRA"} {
			ap, err := listenAuth(netip.AddrFrom4([4]byte{127, 0, 0, byte(i + 2)}).String(), site)
			if err != nil {
				return st, err
			}
			rs.Route(ap.Addr(), ap.Port())
			servers = append(servers, ap.Addr())
		}
		eng := resolver.NewEngine(resolver.Config{
			Policy:    resolver.NewPolicy(resolver.KindBINDLike),
			Infra:     resolver.NewInfraCache(10*time.Minute, resolver.DecayKeep),
			Cache:     resolver.NewRecordCache(),
			Zones:     []resolver.ZoneServers{{Zone: measure.TestDomain, Servers: servers}},
			Transport: rs,
			Clock:     &resolver.RealClock{},
			RNG:       rand.New(rand.NewSource(seed)),
		})
		go rs.Serve(eng) // returns when rs.Close closes the socket
		target = rs.Addr().String()
	}

	gen, err := newLoadgen(target, pkts, checker(shapes))
	if err != nil {
		return st, err
	}
	defer gen.Close()
	gen.closedLoop(warmupWindow, 0, warmupN)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	st.fold, err = profileCPU(func() { gen.closedLoop(closedWindow, d, 0) })
	runtime.ReadMemStats(&m1)
	st.gcCycles, st.pauseNs, st.heapSys = m1.NumGC-m0.NumGC, m1.PauseTotalNs-m0.PauseTotalNs, m1.HeapSys
	return st, err
}
