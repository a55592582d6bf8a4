//go:build linux

package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"time"

	"ritw/internal/analysis"
	"ritw/internal/authserver"
	"ritw/internal/dnswire"
	"ritw/internal/geo"
	"ritw/internal/measure"
	"ritw/internal/netsim"
	"ritw/internal/resolver"
	"ritw/internal/zone"
)

// Layer calls: the harness calls each layer's public functions on a
// sample of the workload's own packets and records what one call costs.
// Nothing inside the layers is instrumented; the numbers say what a
// layer costs when called the way the layer above calls it.

// callCost is the cost of one call.
type callCost struct{ ns, allocs, bytes float64 }

// costOf runs fn(0..n-1) three times and reports the fastest pass's
// time per call, with the allocation counts of the last pass (they do
// not vary between passes once caches inside fn have filled).
func costOf(n int, fn func(i int)) callCost {
	best := costOnce(n, fn)
	for pass := 1; pass < 3; pass++ {
		c := costOnce(n, fn)
		c.ns = min(c.ns, best.ns)
		best = c
	}
	return best
}

// costOnce is one pass of costOf, for calls that cannot be repeated
// because they change the state they measure.
func costOnce(n int, fn func(i int)) callCost {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	begin := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	ns := float64(time.Since(begin))
	runtime.ReadMemStats(&m1)
	per := 1 / float64(max(n, 1))
	return callCost{ns * per, float64(m1.Mallocs-m0.Mallocs) * per, float64(m1.TotalAlloc-m0.TotalAlloc) * per}
}

// encode writes the packet as the generator sends it: ID set, unique
// label patched in.
func (p *packet) encode(dst []byte, id uint16, seq uint32) []byte {
	dst = append(dst[:0], p.wire...)
	dst[0], dst[1] = byte(id>>8), byte(id)
	if p.patchOff >= 0 {
		patchHex(dst[p.patchOff:], seq)
	}
	return dst
}

// sample materialises n packets of the pool as distinct byte slices.
func sample(pkts []packet, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = pkts[i%len(pkts)].encode(nil, uint16(i), uint32(i))
	}
	return out
}

var clientAddr = netip.MustParseAddr("127.0.0.1")

// zoneFor parses the zone the workload's authoritative serves.
func zoneFor(mixed bool, seed int64, site string) *zone.Zone {
	text := mixedZoneText(seed)
	if !mixed {
		combo, _ := measure.CombinationByID("2B") // a Table-1 constant
		text = measure.ZoneText(combo, site)
	}
	z, err := zone.ParseString(text, dnswire.Root)
	if err != nil {
		panic(fmt.Sprintf("bench: generated zone does not parse: %v", err)) // generated input, so a bug here
	}
	return z
}

func authEngine(mixed bool, seed int64, site string) *authserver.Engine {
	id := site
	if mixed {
		id = mixedIdentity
	}
	return authserver.NewEngine(authserver.Config{Zones: []*zone.Zone{zoneFor(mixed, seed, site)}, Identity: id})
}

// stillClock is a resolver clock that never advances and never fires:
// replayed queries neither expire from the cache nor time out.
type stillClock struct{}

func (stillClock) Now() time.Duration              { return time.Second }
func (stillClock) AfterFunc(time.Duration, func()) {}

// sentPacket is one datagram the replayed resolver handed its transport.
type sentPacket struct {
	dst     netip.Addr
	payload []byte
}

// replayResolver is a resolver engine in front of two authoritative
// engines, wired by a transport that only queues, so that each leg of a
// resolution can be driven, and timed, separately.
type replayResolver struct {
	eng   *resolver.Engine
	auths map[netip.Addr]*authserver.Engine
	out   []sentPacket
}

func (r *replayResolver) Send(dst netip.Addr, payload []byte) {
	r.out = append(r.out, sentPacket{dst, payload}) // the engine hands over a fresh buffer
}

func newReplayResolver(seed int64) *replayResolver {
	r := &replayResolver{auths: make(map[netip.Addr]*authserver.Engine), out: make([]sentPacket, 0, 8192)}
	var servers []netip.Addr
	for i, site := range []string{"DUB", "FRA"} {
		a := netip.AddrFrom4([4]byte{127, 0, 0, byte(i + 2)})
		r.auths[a] = authEngine(false, seed, site)
		servers = append(servers, a)
	}
	r.eng = resolver.NewEngine(resolver.Config{
		Policy:    resolver.NewPolicy(resolver.KindBINDLike),
		Infra:     resolver.NewInfraCache(10*time.Minute, resolver.DecayKeep),
		Cache:     resolver.NewRecordCache(),
		Zones:     []resolver.ZoneServers{{Zone: measure.TestDomain, Servers: servers}},
		Transport: r,
		Clock:     stillClock{},
		RNG:       rand.New(rand.NewSource(seed)),
	})
	return r
}

// resolve feeds the client queries to the engine, answers whatever it
// sent upstream from the authoritative engines, and feeds those answers
// back. The engine's two legs are timed; the authoritatives' work
// between them is not. It returns the cost per client query of the legs
// that ran. Queries go in batches well under the engine's 65,536
// upstream transaction IDs.
func (r *replayResolver) resolve(queries [][]byte) (c callCost) {
	const batch = 4096
	for lo := 0; lo < len(queries); lo += batch {
		part := queries[lo:min(lo+batch, len(queries))]
		r.out = r.out[:0]
		ask := costOnce(len(part), func(i int) { r.eng.HandlePacket(clientAddr, part[i]) })
		var answers []sentPacket
		for _, s := range r.out {
			if a, isAuth := r.auths[s.dst]; isAuth {
				answers = append(answers, sentPacket{s.dst, a.HandleQuery(clientAddr, s.payload, 0)})
			}
		}
		r.out = r.out[:0]
		back := costOnce(len(answers), func(i int) { r.eng.HandlePacket(answers[i].dst, answers[i].payload) })
		share := float64(len(part)) / float64(len(queries))
		c.ns += share * (ask.ns + back.ns*float64(len(answers))/float64(len(part)))
		c.allocs += share * (ask.allocs + back.allocs*float64(len(answers))/float64(len(part)))
		c.bytes += share * (ask.bytes + back.bytes*float64(len(answers))/float64(len(part)))
	}
	return c
}

// engineSample is how many packets the allocation count replays: the
// whole pool, so that every seed replays the shapes in exactly their
// weights.
const engineSample = poolSize

// engineAllocs counts the heap allocations and bytes the serving engine
// spends per query of the workload's mix. For an authoritative workload
// that is AppendQuery into a reused buffer, as the socket server calls
// it; for a resolver workload it is both legs of HandlePacket, on a
// cache filled as the workload fills it (all hits, or all misses).
func engineAllocs(w liveWorkload, seed int64, pkts []packet) (allocs, bytes float64) {
	queries := sample(pkts, engineSample)
	if !w.resolver {
		eng := authEngine(w.mixed, seed, "FRA")
		buf := make([]byte, 0, 65535)
		c := costOnce(len(queries), func(i int) { buf = eng.AppendQuery(buf[:0], clientAddr, queries[i], 0) })
		return c.allocs, c.bytes
	}
	r := newReplayResolver(seed)
	if w.hot > 0 {
		r.resolve(queries[:w.hot]) // fill the cache with the hot names
	}
	c := r.resolve(queries)
	return c.allocs, c.bytes
}

// layerCalls measures one call into each layer on the given packets and
// records the per-layer metrics that come from calls. records is a
// sample of simulated client records for the aggregator.
func layerCalls(res *result, tr *tracer, parent int, seed int64, mixed bool, pkts []packet, records []measure.QueryRecord) {
	const n = 4096
	batch := func(name string, fn func()) {
		id := tr.start(parent, "layer-call "+name)
		fn()
		tr.end(id)
	}
	queries := sample(pkts, n)
	eng := authEngine(mixed, seed, "FRA")
	responses := make([]*dnswire.Message, n)
	parsed := make([]*dnswire.Message, n)
	for i, q := range queries {
		parsed[i], _ = dnswire.Unpack(q)
		responses[i], _ = dnswire.Unpack(eng.HandleQuery(clientAddr, q, 0))
	}

	batch("dnswire", func() {
		c := costOf(n, func(i int) { _, _ = dnswire.Unpack(queries[i]) })
		res.layer("dnswire.unpack_ns", c.ns)
		res.layer("dnswire.unpack_allocs", c.allocs)
		buf := make([]byte, 0, 65535)
		c = costOf(n, func(i int) {
			if responses[i] != nil {
				buf, _ = responses[i].AppendPack(buf[:0])
			}
		})
		res.layer("dnswire.pack_ns", c.ns)
		res.layer("dnswire.pack_allocs", c.allocs)
		var sink string
		c = costOf(n, func(i int) { sink = parsed[i].Questions[0].Name.Key() })
		_ = sink
		res.layer("dnswire.name_key_ns", c.ns)
		res.layer("dnswire.name_key_allocs", c.allocs)
	})

	batch("zone", func() {
		z := zoneFor(mixed, seed, "FRA")
		c := costOf(n, func(i int) {
			q := parsed[i].Questions[0]
			z.Lookup(q.Name, q.Type)
		})
		res.layer("zone.lookup_ns", c.ns)
		res.layer("zone.lookup_allocs", c.allocs)
	})

	batch("authserver", func() {
		buf := make([]byte, 0, 65535)
		c := costOf(n, func(i int) { buf = eng.AppendQuery(buf[:0], clientAddr, queries[i], 0) })
		res.layer("authserver.append_query_ns", c.ns)
		res.layer("authserver.append_query_allocs", c.allocs)
		res.layer("authserver.append_query_bytes", c.bytes)
	})

	batch("resolver", func() {
		// The resolver only ever sees the wildcard query, whatever the
		// authoritative workload's mix is.
		wild, _ := wildPackets(seed, 0, "DUB", "FRA")
		unique := sample(wild, n)
		r := newReplayResolver(seed)
		miss := r.resolve(unique)
		hit := r.resolve(unique) // the clock stands still, so nothing has expired
		res.layer("resolver.miss_ns", miss.ns)
		res.layer("resolver.miss_allocs", miss.allocs)
		res.layer("resolver.hit_ns", hit.ns)
		res.layer("resolver.hit_allocs", hit.allocs)

		policy := resolver.NewPolicy(resolver.KindBINDLike)
		infra := r.eng.Infra()
		servers := []netip.Addr{netip.MustParseAddr("127.0.0.2"), netip.MustParseAddr("127.0.0.3")}
		rng := rand.New(rand.NewSource(seed))
		c := costOf(n, func(int) { policy.Select(time.Second, servers, infra, rng) })
		res.layer("resolver.select_ns", c.ns)
	})

	batch("netsim", func() {
		sim := netsim.NewSimulator()
		nw := netsim.NewNetwork(sim, geo.DefaultPathModel(), seed)
		fra, _ := geo.SiteByCode("FRA")
		dub, _ := geo.SiteByCode("DUB")
		a, b := nw.AddHost(fra.Coord), nw.AddHost(dub.Coord)
		delivered := 0
		b.Handle(func(_, _ netip.Addr, _ []byte) { delivered++ })
		c := costOf(n/64, func(int) {
			for j := 0; j < 64; j++ {
				a.Send(b.Addr, queries[j])
			}
			sim.Run()
		})
		res.layer("netsim.send_deliver_ns", c.ns/64)
		res.layer("netsim.send_deliver_allocs", c.allocs/64)
		fired := 0
		fire := func() { fired++ }
		c = costOf(n/64, func(int) {
			for j := 0; j < 64; j++ {
				sim.Schedule(time.Duration(j)*time.Millisecond, fire)
			}
			sim.Run()
		})
		res.layer("netsim.sched_ns", c.ns/64)
	})

	batch("analysis", func() {
		if len(records) == 0 {
			return
		}
		agg := analysis.NewAggregator(analysis.AggConfig{ComboID: "2B", Sites: []string{"DUB", "FRA"}, Duration: time.Hour})
		c := costOnce(len(records), func(i int) { agg.OnQuery(records[i]) })
		res.layer("analysis.on_query_ns", c.ns)
		res.layer("analysis.on_query_allocs", c.allocs)
	})
}
