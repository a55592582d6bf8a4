// Package ditl models the passive production datasets the paper uses
// for validation (§3.2, §5): a DITL-style hour of Root DNS traffic
// across the root letters, and an hour of .nl ccTLD traffic across its
// authoritatives. The paper could not clear caches or measure RTT in
// these traces; likewise, this model runs recursives in steady state
// (a warm-up period precedes the capture window) and records only
// which server each query reached.
package ditl

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"time"

	"ritw/internal/atlas"
	"ritw/internal/authserver"
	"ritw/internal/dnswire"
	"ritw/internal/geo"
	"ritw/internal/netsim"
	"ritw/internal/resolver"
	"ritw/internal/simbind"
	"ritw/internal/zone"
)

// Server is one authoritative service of a production deployment: a
// root letter or a TLD name server. A single site means unicast.
type Server struct {
	// Name identifies the service ("a-root", "ns1.dns.nl").
	Name string
	// Sites are the airport codes of its anycast footprint.
	Sites []string
}

// RootDeployment models the 13 root letters with heterogeneous anycast
// footprints (well-deployed letters have many sites; a few letters are
// small), and the 10 letters the paper's DITL capture observed
// (B, G and L were missing).
func RootDeployment() (servers []Server, observed []string) {
	servers = []Server{
		{Name: "a-root", Sites: []string{"IAD", "LAX", "FRA", "HKG", "LHR"}},
		{Name: "b-root", Sites: []string{"LAX", "MIA"}},
		{Name: "c-root", Sites: []string{"EWR", "ORD", "LAX", "FRA", "MAD"}},
		{Name: "d-root", Sites: []string{"IAD", "SFO", "AMS", "SIN", "SYD", "GRU", "EWR", "VIE"}},
		{Name: "e-root", Sites: []string{"SFO", "AMS", "NRT", "BOG", "JNB", "SYD", "ORD", "ARN", "SIN"}},
		{Name: "f-root", Sites: []string{"SFO", "EWR", "LHR", "CDG", "NRT", "HKG", "GRU", "JNB", "SYD", "ARN", "WAW", "SCL"}},
		{Name: "g-root", Sites: []string{"IAD", "ORD"}},
		{Name: "h-root", Sites: []string{"IAD", "SEA"}},
		{Name: "i-root", Sites: []string{"ARN", "LHR", "FRA", "NRT", "SIN", "EWR", "JNB", "GRU", "PER", "MXP"}},
		{Name: "j-root", Sites: []string{"IAD", "LAX", "AMS", "LHR", "NRT", "SIN", "MIA", "ORD", "SEA", "CDG", "ICN"}},
		{Name: "k-root", Sites: []string{"AMS", "LHR", "FRA", "NRT", "DXB", "BOM", "MXP", "EWR", "SVO"}},
		{Name: "l-root", Sites: []string{"LAX", "MIA", "AMS", "SIN", "SYD", "SCL", "EZE", "CAI", "WAW", "ORD", "CDG", "ICN", "AKL"}},
		{Name: "m-root", Sites: []string{"NRT", "CDG", "SFO", "ICN"}},
	}
	observed = []string{
		"a-root", "c-root", "d-root", "e-root", "f-root",
		"h-root", "i-root", "j-root", "k-root", "m-root",
	}
	return servers, observed
}

// NLDeployment models the paper's description of .nl (§1, §7): eight
// authoritatives — five unicast in the Netherlands and three anycast
// services with worldwide sites — of which the paper's capture
// observed four.
func NLDeployment() (servers []Server, observed []string) {
	servers = []Server{
		{Name: "ns1.dns.nl", Sites: []string{"AMS"}},
		{Name: "ns2.dns.nl", Sites: []string{"AMS"}},
		{Name: "ns3.dns.nl", Sites: []string{"AMS"}},
		{Name: "ns4.dns.nl", Sites: []string{"AMS"}},
		{Name: "ns5.dns.nl", Sites: []string{"AMS"}},
		{Name: "any1.dns.nl", Sites: []string{"AMS", "EWR", "HKG", "GRU", "SYD", "LHR", "FRA"}},
		{Name: "any2.dns.nl", Sites: []string{"AMS", "SFO", "NRT", "JNB", "MIA", "ARN"}},
		{Name: "any3.dns.nl", Sites: []string{"AMS", "ORD", "SIN", "CDG", "SCL"}},
	}
	observed = []string{"ns1.dns.nl", "ns3.dns.nl", "any1.dns.nl", "any2.dns.nl"}
	return servers, observed
}

// ProductionMix is the resolver-behaviour mixture for production
// traffic. Busy production recursives skew heavily toward
// latency-driven implementations and forwarder front-ends, which is
// why the paper sees much stronger letter preferences at the root than
// in its testbed (§5). See EXPERIMENTS.md for calibration notes.
func ProductionMix() []atlas.PolicyShare {
	return []atlas.PolicyShare{
		{Kind: resolver.KindBINDLike, Share: 0.60, InfraTTL: 10 * time.Minute, Retention: resolver.DecayKeep},
		{Kind: resolver.KindSticky, Share: 0.16, InfraTTL: 0, Retention: resolver.HardExpire},
		{Kind: resolver.KindWeightedRTT, Share: 0.08, InfraTTL: 10 * time.Minute, Retention: resolver.DecayKeep},
		{Kind: resolver.KindUnboundLike, Share: 0.06, InfraTTL: 15 * time.Minute, Retention: resolver.DecayKeep},
		{Kind: resolver.KindUniform, Share: 0.05, InfraTTL: 10 * time.Minute, Retention: resolver.HardExpire},
		{Kind: resolver.KindRoundRobin, Share: 0.05, InfraTTL: 10 * time.Minute, Retention: resolver.HardExpire},
	}
}

// Config parameterizes a production-trace synthesis.
type Config struct {
	// Servers is the deployment (RootDeployment or NLDeployment).
	Servers []Server
	// Observed names the servers whose traffic is captured (the paper
	// had 10 of 13 letters, 4 of 8 .nl NSes).
	Observed []string
	// Zone is the zone served ("." for the root, "nl." for .nl).
	Zone dnswire.Name
	// NumRecursives is the recursive population size.
	NumRecursives int
	// Mix is the behaviour mixture (ProductionMix if nil).
	Mix []atlas.PolicyShare
	// Duration is the capture window (paper: one hour).
	Duration time.Duration
	// Warmup runs before capture so recursives are in steady state,
	// mirroring the paper's inability to clear production caches.
	Warmup time.Duration
	// MinRate and MaxRate bound per-recursive query rates in queries
	// per hour; rates follow a Pareto-like heavy tail.
	MinRate, MaxRate float64
	// Seed drives all randomness.
	Seed int64
	// Recorder, if set, observes every captured query in virtual-time
	// order — the hook that feeds an ENTRADA-style warehouse
	// (internal/entrada) with the raw per-query stream.
	Recorder func(server string, src netip.Addr, at time.Duration)
}

// DefaultRootConfig returns a root-trace synthesis at a scale that
// runs in seconds.
func DefaultRootConfig(seed int64) Config {
	servers, observed := RootDeployment()
	return Config{
		Servers:       servers,
		Observed:      observed,
		Zone:          dnswire.Root,
		NumRecursives: 600,
		Duration:      time.Hour,
		Warmup:        20 * time.Minute,
		MinRate:       40,
		MaxRate:       4000,
		Seed:          seed,
	}
}

// DefaultNLConfig returns a .nl-trace synthesis.
func DefaultNLConfig(seed int64) Config {
	servers, observed := NLDeployment()
	return Config{
		Servers:       servers,
		Observed:      observed,
		Zone:          dnswire.MustParseName("nl"),
		NumRecursives: 600,
		Duration:      time.Hour,
		Warmup:        20 * time.Minute,
		MinRate:       40,
		MaxRate:       4000,
		Seed:          seed,
	}
}

// Trace is the synthesized capture: per observed server, per
// recursive-address query counts within the capture window.
type Trace struct {
	// Observed lists the captured server names, in input order.
	Observed []string
	// Counts maps server name -> recursive address -> queries.
	Counts map[string]map[string]int
	// TotalQueries is the number of captured queries.
	TotalQueries int
	// Recursives is the number of distinct recursive addresses seen.
	Recursives int
}

// PerRecursive pivots the trace to recursive -> server -> count, the
// shape the Figure-7 rank analysis consumes. Servers a recursive never
// queried are simply absent from its inner map.
func (t *Trace) PerRecursive() map[string]map[string]int {
	out := make(map[string]map[string]int)
	for server, byRec := range t.Counts {
		for rec, n := range byRec {
			m, ok := out[rec]
			if !ok {
				m = make(map[string]int, len(t.Observed))
				out[rec] = m
			}
			m[server] += n
		}
	}
	return out
}

// Run synthesizes a production trace.
func Run(cfg Config) (*Trace, error) {
	if len(cfg.Servers) == 0 || cfg.NumRecursives <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("ditl: incomplete config")
	}
	if cfg.MinRate <= 0 || cfg.MaxRate < cfg.MinRate {
		return nil, fmt.Errorf("ditl: bad rate bounds [%v, %v]", cfg.MinRate, cfg.MaxRate)
	}
	mix := cfg.Mix
	if mix == nil {
		mix = ProductionMix()
	}
	var mixTotal float64
	for _, m := range mix {
		mixTotal += m.Share
	}
	if mixTotal <= 0 {
		return nil, fmt.Errorf("ditl: empty mixture")
	}

	sim := netsim.NewSimulator()
	net := netsim.NewNetwork(sim, geo.DefaultPathModel(), cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	observedSet := make(map[string]bool, len(cfg.Observed))
	for _, name := range cfg.Observed {
		observedSet[name] = true
	}

	trace := &Trace{
		Observed: append([]string(nil), cfg.Observed...),
		Counts:   make(map[string]map[string]int),
	}
	for _, name := range cfg.Observed {
		trace.Counts[name] = make(map[string]int)
	}

	// Zone served by every site of every server.
	zoneText := "$ORIGIN " + cfg.Zone.String() + "\n" +
		"@ IN SOA ns hostmaster 2017041201 7200 3600 604800 300\n" +
		"* 300 IN TXT \"production\"\n"
	captureStart := cfg.Warmup
	captureEnd := cfg.Warmup + cfg.Duration

	// Build servers: unicast hosts or anycast services.
	serverAddrs := make([]netip.Addr, 0, len(cfg.Servers))
	for _, srv := range cfg.Servers {
		srv := srv
		members := make([]*netsim.Host, 0, len(srv.Sites))
		for _, code := range srv.Sites {
			site, err := geo.SiteByCode(code)
			if err != nil {
				return nil, fmt.Errorf("ditl: server %s: %w", srv.Name, err)
			}
			z, err := zone.ParseString(zoneText, cfg.Zone)
			if err != nil {
				return nil, err
			}
			host := net.AddHost(site.Coord)
			eng := authserver.NewEngine(authserver.Config{
				Zones:    []*zone.Zone{z},
				Identity: code + "." + srv.Name,
				OnQuery: func(qi authserver.QueryInfo) {
					if !observedSet[srv.Name] {
						return
					}
					now := sim.Now()
					if now < captureStart || now >= captureEnd {
						return
					}
					trace.Counts[srv.Name][qi.Src.String()]++
					trace.TotalQueries++
					if cfg.Recorder != nil {
						cfg.Recorder(srv.Name, qi.Src, now)
					}
				},
			})
			simbind.BindAuth(host, eng)
			members = append(members, host)
		}
		if len(members) == 1 {
			serverAddrs = append(serverAddrs, members[0].Addr)
		} else {
			svc := net.AllocAddr()
			net.AddAnycast(svc, members)
			serverAddrs = append(serverAddrs, svc)
		}
	}

	// Recursive population with heavy-tailed query rates.
	sites, weights := geo.ProbeRegions()
	var weightTotal float64
	for _, w := range weights {
		weightTotal += w
	}
	pickSite := func() geo.Site {
		x := rng.Float64() * weightTotal
		for i, w := range weights {
			x -= w
			if x <= 0 {
				return sites[i]
			}
		}
		return sites[len(sites)-1]
	}
	pickMix := func() atlas.PolicyShare {
		x := rng.Float64() * mixTotal
		for _, m := range mix {
			x -= m.Share
			if x <= 0 {
				return m
			}
		}
		return mix[len(mix)-1]
	}

	zones := []resolver.ZoneServers{{Zone: cfg.Zone, Servers: serverAddrs}}
	clock := simbind.SimClock{Sim: sim}

	for i := 0; i < cfg.NumRecursives; i++ {
		site := pickSite()
		m := pickMix()
		loc := jitterCoord(rng, site.Coord, 2.0)
		host := net.AddHost(loc)
		eng := resolver.NewEngine(resolver.Config{
			Policy:    resolver.NewPolicy(m.Kind),
			Infra:     resolver.NewInfraCache(m.InfraTTL, m.Retention),
			Cache:     resolver.NewRecordCache(),
			Zones:     zones,
			Transport: simbind.HostTransport{Host: host},
			Clock:     clock,
			RNG:       rand.New(rand.NewSource(cfg.Seed + 7000 + int64(i))),
		})
		simbind.BindResolver(host, eng)

		// Client workload: unique names at a Pareto-drawn rate.
		rate := paretoRate(rng, cfg.MinRate, cfg.MaxRate)
		gap := time.Duration(float64(time.Hour) / rate)
		client := net.AddHost(loc)
		client.Handle(func(_, _ netip.Addr, _ []byte) {}) // sink responses
		recAddr := host.Addr
		seq := 0
		crng := rand.New(rand.NewSource(cfg.Seed + 9000 + int64(i)))
		var tick func()
		tick = func() {
			if sim.Now() >= captureEnd {
				return
			}
			label := fmt.Sprintf("q%dn%d", i, seq)
			qname, err := cfg.Zone.Child(label)
			if err != nil {
				return
			}
			q := dnswire.NewQuery(uint16(seq), qname, dnswire.TypeTXT)
			if wire, err := q.Pack(); err == nil {
				client.Send(recAddr, wire)
			}
			seq++
			// Exponential inter-arrival around the mean gap.
			next := time.Duration(crng.ExpFloat64() * float64(gap))
			if next < time.Millisecond {
				next = time.Millisecond
			}
			sim.Schedule(next, tick)
		}
		sim.Schedule(time.Duration(crng.Int63n(int64(gap)+1)), tick)
	}

	sim.RunUntil(captureEnd + 5*time.Second)
	trace.Recursives = len(trace.PerRecursive())
	return trace, nil
}

// paretoRate draws a heavy-tailed per-hour query rate in [min, max].
func paretoRate(rng *rand.Rand, min, max float64) float64 {
	const alpha = 1.1
	u := rng.Float64()
	r := min * math.Pow(1-u, -1/alpha)
	if r > max {
		r = max
	}
	return r
}

// jitterCoord spreads entities a couple of degrees around a site.
func jitterCoord(rng *rand.Rand, c geo.Coord, deg float64) geo.Coord {
	lat := c.Lat + (rng.Float64()*2-1)*deg
	lon := c.Lon + (rng.Float64()*2-1)*deg
	if lat > 89 {
		lat = 89
	}
	if lat < -89 {
		lat = -89
	}
	return geo.Coord{Lat: lat, Lon: lon}
}
