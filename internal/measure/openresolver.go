package measure

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"ritw/internal/atlas"
	"ritw/internal/dnswire"
	"ritw/internal/geo"
	"ritw/internal/netsim"
	"ritw/internal/obs"
	"ritw/internal/resolver"
	"ritw/internal/simbind"
)

// OpenResolverConfig parameterizes the open-resolver variant of the
// measurement — the paper's stated future work ("using open recursive
// resolvers in our study for additional measurements"). Instead of
// RIPE-Atlas probes asking their locally-configured recursives, a
// single scanner host queries a worldwide set of open resolvers
// directly; each open resolver is its own vantage point.
type OpenResolverConfig struct {
	// Combo is the authoritative deployment under test.
	Combo Combination
	// NumResolvers is the size of the open-resolver population.
	NumResolvers int
	// ScannerSite is where the measurement machine sits (e.g. "AMS").
	ScannerSite string
	// Interval and Duration follow the active measurement design.
	Interval, Duration time.Duration
	// Seed drives all randomness.
	Seed int64
	// Mix is the resolver-behaviour market share (atlas.DefaultMix if
	// nil). Open resolvers skew toward misconfigured CPE, so callers
	// may want a stickier mixture.
	Mix []atlas.PolicyShare
	// ClientTimeout is the scanner's per-query give-up time.
	ClientTimeout time.Duration
	// Metrics aggregates obs counters like RunConfig.Metrics.
	Metrics *obs.Registry
	// Sink mirrors RunConfig.Sink: if set, records stream into it as
	// they complete and the returned Dataset is the summary.
	Sink Sink
	// OnAssign, if set, observes each open resolver's drawn policy at
	// population-build time (before the simulation starts). Purely
	// observational — it must not (and cannot) perturb the build's RNG
	// draw order — so assignments can be audited without changing the
	// dataset; the mix-accounting tests hang off it.
	OnAssign func(resolver int, policy atlas.PolicyShare)
}

// DefaultOpenResolverConfig returns a paper-compatible scan setup.
func DefaultOpenResolverConfig(combo Combination, seed int64) OpenResolverConfig {
	return OpenResolverConfig{
		Combo:         combo,
		NumResolvers:  2000,
		ScannerSite:   "AMS",
		Interval:      2 * time.Minute,
		Duration:      time.Hour,
		Seed:          seed,
		ClientTimeout: 4 * time.Second,
	}
}

// RunOpenResolvers executes the open-resolver measurement and returns
// a Dataset whose VPs are the open resolvers themselves. It is the
// context-free wrapper around RunOpenResolversContext.
func RunOpenResolvers(cfg OpenResolverConfig) (*Dataset, error) {
	return RunOpenResolversContext(context.Background(), cfg)
}

// RunOpenResolversContext is RunOpenResolvers with cooperative
// cancellation: a cancelled ctx abandons the run promptly with
// ctx.Err().
func RunOpenResolversContext(ctx context.Context, cfg OpenResolverConfig) (*Dataset, error) {
	if len(cfg.Combo.Sites) == 0 || cfg.NumResolvers <= 0 {
		return nil, fmt.Errorf("measure: incomplete open-resolver config")
	}
	if cfg.Interval <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("measure: interval and duration must be positive")
	}
	if cfg.ClientTimeout <= 0 {
		cfg.ClientTimeout = 4 * time.Second
	}
	scannerSite, err := geo.SiteByCode(cfg.ScannerSite)
	if err != nil {
		return nil, err
	}
	mix := cfg.Mix
	if mix == nil {
		mix = atlas.DefaultMix()
	}
	var mixTotal float64
	for _, m := range mix {
		mixTotal += m.Share
	}
	if mixTotal <= 0 {
		return nil, fmt.Errorf("measure: empty mixture")
	}

	sim := netsim.NewSimulator()
	net := netsim.NewNetwork(sim, geo.DefaultPathModel(), cfg.Seed+1)
	ds := &Dataset{
		ComboID:  cfg.Combo.ID + "-open",
		Sites:    append([]string(nil), cfg.Combo.Sites...),
		Interval: cfg.Interval,
		Duration: cfg.Duration,
		SiteAddr: make(map[string]netip.Addr),
	}
	sink := streamTarget(ds, cfg.Sink)
	emit, emitAuth := instrumentedEmit(sink, cfg.Metrics)
	authAddrs, _, err := buildAuthSites(sim, net, cfg.Combo, ds.SiteAddr, emitAuth, cfg.Metrics)
	if err != nil {
		sink.Close()
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	regions, weights := geo.ProbeRegions()
	var weightTotal float64
	for _, w := range weights {
		weightTotal += w
	}
	pickRegion := func() geo.Site {
		x := rng.Float64() * weightTotal
		for i, w := range weights {
			x -= w
			if x <= 0 {
				return regions[i]
			}
		}
		return regions[len(regions)-1]
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

	scanner := net.AddHost(scannerSite.Coord)
	zones := []resolver.ZoneServers{{Zone: TestDomain, Servers: authAddrs}}
	clock := simbind.SimClock{Sim: sim}

	type target struct {
		addr      netip.Addr
		continent geo.Continent
	}
	targets := make([]target, 0, cfg.NumResolvers)
	for i := 0; i < cfg.NumResolvers; i++ {
		region := pickRegion()
		m := pickMix()
		if cfg.OnAssign != nil {
			cfg.OnAssign(i, m)
		}
		host := net.AddHost(region.Coord)
		host.LastMileMs = geo.LastMileMs(rng) / 2 // open resolvers sit closer to the core
		eng := resolver.NewEngine(resolver.Config{
			Policy:    resolver.NewPolicy(m.Kind),
			Infra:     resolver.NewInfraCache(m.InfraTTL, m.Retention),
			Cache:     resolver.NewRecordCache(),
			Zones:     zones,
			Transport: simbind.HostTransport{Host: host},
			Clock:     clock,
			RNG:       rand.New(rand.NewSource(cfg.Seed + 3000 + int64(i))),
		})
		simbind.BindResolver(host, eng)
		targets = append(targets, target{host.Addr, region.Continent})
	}

	// The scanner multiplexes all open resolvers on one socket; match
	// responses by DNS ID.
	type pendingKey uint16
	pending := make(map[pendingKey]*QueryRecord)
	scanner.Handle(func(_, _ netip.Addr, payload []byte) {
		msg, err := dnswire.Unpack(payload)
		if err != nil || !msg.Response {
			return
		}
		rec, ok := pending[pendingKey(msg.ID)]
		if !ok {
			return
		}
		delete(pending, pendingKey(msg.ID))
		rec.RTTms = float64(sim.Now()-rec.SentAt) / float64(time.Millisecond)
		rec.OK = msg.RCode == dnswire.RCodeNoError && len(msg.Answers) > 0
		if rec.OK {
			if txt, ok := msg.Answers[0].Data.(dnswire.TXT); ok {
				rec.Site = trimSitePrefix(txt.Joined())
			}
		}
		emit(*rec)
	})

	nextID := uint16(0)
	rounds := int(cfg.Duration / cfg.Interval)
	for round := 0; round < rounds; round++ {
		for ti, tgt := range targets {
			tgt := tgt
			ti := ti
			round := round
			// Spread the scan across the interval like a real prober.
			offset := time.Duration(round)*cfg.Interval +
				time.Duration(float64(ti)/float64(len(targets))*float64(cfg.Interval))
			sim.Schedule(offset, func() {
				label := fmt.Sprintf("open%dr%d", ti, round)
				qname, err := TestDomain.Child(label)
				if err != nil {
					return
				}
				nextID++
				for {
					if _, busy := pending[pendingKey(nextID)]; !busy {
						break
					}
					nextID++
				}
				id := nextID
				q := dnswire.NewQuery(id, qname, dnswire.TypeTXT)
				wire, err := q.Pack()
				if err != nil {
					return
				}
				rec := &QueryRecord{
					ProbeID:   ti,
					Resolver:  tgt.addr,
					VPKey:     tgt.addr.String(),
					Continent: tgt.continent,
					Seq:       round,
					SentAt:    sim.Now(),
				}
				pending[pendingKey(id)] = rec
				scanner.Send(tgt.addr, wire)
				sim.Schedule(cfg.ClientTimeout, func() {
					if r, still := pending[pendingKey(id)]; still && r == rec {
						delete(pending, pendingKey(id))
						rec.RTTms = float64(cfg.ClientTimeout) / float64(time.Millisecond)
						emit(*rec)
					}
				})
			})
		}
	}
	ds.ActiveProbes = len(targets)
	if err := sim.RunUntilContext(ctx, cfg.Duration+cfg.ClientTimeout+time.Second); err != nil {
		sink.Close()
		return nil, err
	}
	return ds, finishSink(sink, ds.meta())
}

// trimSitePrefix strips the "site=" marker from an identity TXT.
func trimSitePrefix(s string) string {
	const p = "site="
	if len(s) >= len(p) && s[:len(p)] == p {
		return s[len(p):]
	}
	return s
}
