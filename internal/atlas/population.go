// Package atlas generates the synthetic vantage-point population that
// stands in for RIPE Atlas: ~9,700 probes spread over ~3,300 ASes with
// the platform's strong European skew, each wired to one or more
// recursive resolvers whose selection behaviour is drawn from a
// configurable market-share mixture.
//
// The mixture is the reproduction's key free parameter: the paper
// measures the aggregate of an unknown implementation mix, and Yu et
// al. [33] supply the per-implementation algorithms. EXPERIMENTS.md
// records the calibration.
package atlas

import (
	"fmt"
	"math/rand"
	"time"

	"ritw/internal/geo"
	"ritw/internal/resolver"
)

// PolicyShare pairs a selection behaviour with its population share.
type PolicyShare struct {
	Kind  resolver.PolicyKind
	Share float64
	// InfraTTL is the infrastructure-cache retention for resolvers of
	// this kind (BIND ~10 min, Unbound ~15 min, per the paper §4.4).
	InfraTTL time.Duration
	// Retention selects hard expiry vs decay-and-keep on TTL lapse.
	Retention resolver.Retention
	// Singleflight enables engine-level upstream dedup for resolvers of
	// this kind, and QnameMinimize the RFC 9156 query pattern — the
	// modern-recursive behaviours (secDNS, Unbound defaults).
	Singleflight  bool
	QnameMinimize bool
}

// DefaultMix is the calibrated resolver market-share mixture. Shares
// need not sum to one; they are normalized.
func DefaultMix() []PolicyShare {
	return []PolicyShare{
		{Kind: resolver.KindBINDLike, Share: 0.24, InfraTTL: 10 * time.Minute, Retention: resolver.DecayKeep},
		{Kind: resolver.KindUnboundLike, Share: 0.24, InfraTTL: 15 * time.Minute, Retention: resolver.DecayKeep},
		{Kind: resolver.KindWeightedRTT, Share: 0.17, InfraTTL: 10 * time.Minute, Retention: resolver.DecayKeep},
		{Kind: resolver.KindUniform, Share: 0.14, InfraTTL: 10 * time.Minute, Retention: resolver.HardExpire},
		{Kind: resolver.KindRoundRobin, Share: 0.13, InfraTTL: 10 * time.Minute, Retention: resolver.HardExpire},
		{Kind: resolver.KindSticky, Share: 0.08, InfraTTL: 0, Retention: resolver.HardExpire},
	}
}

// PaperMix is the fleet mixture calibrated for the entity-keyed
// re-draw (measure.RunConfig.Mix): at the reference scale the
// mixture's weak/strong preference shares land inside the paper's
// Figure-4 bands (59-69% weak, 10-37% strong). It differs from
// DefaultMix because the re-draw assigns kinds by resolver name, not
// by the population generator's sequential draw, so the split of
// qualified VPs across kinds shifts and the shares need their own
// calibration (EXPERIMENTS.md records both).
func PaperMix() []PolicyShare {
	return []PolicyShare{
		{Kind: resolver.KindBINDLike, Share: 0.38, InfraTTL: 10 * time.Minute, Retention: resolver.DecayKeep},
		{Kind: resolver.KindUnboundLike, Share: 0.14, InfraTTL: 15 * time.Minute, Retention: resolver.DecayKeep},
		{Kind: resolver.KindWeightedRTT, Share: 0.22, InfraTTL: 10 * time.Minute, Retention: resolver.DecayKeep},
		{Kind: resolver.KindUniform, Share: 0.07, InfraTTL: 10 * time.Minute, Retention: resolver.HardExpire},
		{Kind: resolver.KindRoundRobin, Share: 0.06, InfraTTL: 10 * time.Minute, Retention: resolver.HardExpire},
		{Kind: resolver.KindSticky, Share: 0.13, InfraTTL: 0, Retention: resolver.HardExpire},
	}
}

// ResolverSpec describes one recursive resolver instance to create.
type ResolverSpec struct {
	// Name is a stable identifier ("r0042" or "public3-fra").
	Name string
	// Kind is the selection behaviour.
	Kind resolver.PolicyKind
	// InfraTTL and Retention configure the infrastructure cache.
	InfraTTL  time.Duration
	Retention resolver.Retention
	// Singleflight and QnameMinimize enable the corresponding engine
	// behaviours (see PolicyShare).
	Singleflight  bool
	QnameMinimize bool
	// Loc is where the resolver runs.
	Loc geo.Coord
	// ASN is the autonomous system the resolver lives in.
	ASN int
	// Public marks a site of an anycast public-DNS service.
	Public bool
}

// Probe is one vantage point (a RIPE Atlas probe analogue).
type Probe struct {
	// ID is the probe identifier.
	ID int
	// Site anchors the probe's region; Loc adds local scatter.
	Site geo.Site
	Loc  geo.Coord
	// ASN is the probe's AS.
	ASN int
	// Continent duplicates Site.Continent for grouping convenience.
	Continent geo.Continent
	// LastMileMs is the probe's access-network latency.
	LastMileMs float64
	// IPv6 marks IPv6-capable probes (~31% per the paper's cited 69%
	// IPv4-only figure).
	IPv6 bool
	// Resolvers indexes into Population.Resolvers: the recursive(s)
	// the probe's host network hands it. Most probes have one; some
	// sit behind configurations with several.
	Resolvers []int
}

// Population is the generated measurement substrate.
type Population struct {
	Probes    []Probe
	Resolvers []ResolverSpec
	// PublicService groups the indices of public-DNS site resolvers;
	// a probe "using public DNS" reaches its nearest site.
	PublicSites []int
}

// Config controls population synthesis.
type Config struct {
	// NumProbes is the probe count (paper: ~9,700).
	NumProbes int
	// Seed drives all randomness.
	Seed int64
	// Mix is the resolver-behaviour market share (DefaultMix if nil).
	Mix []PolicyShare
	// PublicDNSShare is the fraction of probes whose (or one of whose)
	// recursive is an anycast public-DNS service.
	PublicDNSShare float64
	// MultiResolverShare is the fraction of probes configured with
	// more than one recursive (the paper treats each (probe,
	// recursive) pair as a distinct VP).
	MultiResolverShare float64
	// ResolversPerAS is the mean size of each AS's shared resolver
	// pool.
	ResolversPerAS float64
	// ProbesPerAS controls AS granularity (paper: ~3 probes per AS on
	// average: 9,700 probes over 3,300 ASes).
	ProbesPerAS float64
}

// DefaultConfig returns the paper-scale population configuration.
func DefaultConfig(seed int64) Config {
	return Config{
		NumProbes:          9700,
		Seed:               seed,
		Mix:                DefaultMix(),
		PublicDNSShare:     0.13,
		MultiResolverShare: 0.14,
		ResolversPerAS:     1.6,
		ProbesPerAS:        2.9,
	}
}

// Generate synthesizes a population from cfg.
func Generate(cfg Config) (*Population, error) {
	if cfg.NumProbes <= 0 {
		return nil, fmt.Errorf("atlas: NumProbes must be positive, got %d", cfg.NumProbes)
	}
	mix := cfg.Mix
	if mix == nil {
		mix = DefaultMix()
	}
	var mixTotal float64
	for _, m := range mix {
		if m.Share < 0 {
			return nil, fmt.Errorf("atlas: negative share for %v", m.Kind)
		}
		mixTotal += m.Share
	}
	if mixTotal == 0 {
		return nil, fmt.Errorf("atlas: mixture has zero total share")
	}
	if cfg.ProbesPerAS <= 0 {
		cfg.ProbesPerAS = 2.9
	}
	if cfg.ResolversPerAS <= 0 {
		cfg.ResolversPerAS = 1.6
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	pop := &Population{}

	pickKind := func() PolicyShare {
		x := rng.Float64() * mixTotal
		for _, m := range mix {
			x -= m.Share
			if x <= 0 {
				return m
			}
		}
		return mix[len(mix)-1]
	}

	// Public-DNS anycast sites: a worldwide footprint like the large
	// open resolvers the paper mentions (Google, OpenDNS).
	publicSiteCodes := []string{"FRA", "LHR", "EWR", "SFO", "GRU", "NRT", "SIN", "SYD"}
	for i, code := range publicSiteCodes {
		site := geo.MustSite(code)
		m := pickPublicKind(mix, rng, mixTotal)
		pop.PublicSites = append(pop.PublicSites, len(pop.Resolvers))
		pop.Resolvers = append(pop.Resolvers, ResolverSpec{
			Name:          fmt.Sprintf("public-%d-%s", i, code),
			Kind:          m.Kind,
			InfraTTL:      m.InfraTTL,
			Retention:     m.Retention,
			Singleflight:  m.Singleflight,
			QnameMinimize: m.QnameMinimize,
			Loc:           site.Coord,
			ASN:           15169, // the classic public-DNS AS
			Public:        true,
		})
	}

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

	// Group probes into ASes per region; each AS gets a shared
	// resolver pool.
	type asInfo struct {
		asn       int
		site      geo.Site
		resolvers []int
	}
	asPools := make(map[string][]*asInfo) // region code -> ASes
	nextASN := 64512

	asForProbe := func(site geo.Site) *asInfo {
		pool := asPools[site.Code]
		// Grow the pool so that mean probes-per-AS ≈ cfg.ProbesPerAS.
		if len(pool) == 0 || rng.Float64() < 1/cfg.ProbesPerAS {
			info := &asInfo{asn: nextASN, site: site}
			nextASN++
			nResolvers := 1
			if rng.Float64() < cfg.ResolversPerAS-1 {
				nResolvers = 2
			}
			for r := 0; r < nResolvers; r++ {
				m := pickKind()
				loc := scatter(rng, site.Coord, 150)
				info.resolvers = append(info.resolvers, len(pop.Resolvers))
				pop.Resolvers = append(pop.Resolvers, ResolverSpec{
					Name:          fmt.Sprintf("r%05d", len(pop.Resolvers)),
					Kind:          m.Kind,
					InfraTTL:      m.InfraTTL,
					Retention:     m.Retention,
					Singleflight:  m.Singleflight,
					QnameMinimize: m.QnameMinimize,
					Loc:           loc,
					ASN:           info.asn,
				})
			}
			asPools[site.Code] = append(pool, info)
			return info
		}
		return pool[rng.Intn(len(pool))]
	}

	for i := 0; i < cfg.NumProbes; i++ {
		site := pickSite()
		as := asForProbe(site)
		p := Probe{
			ID:         i,
			Site:       site,
			Loc:        scatter(rng, site.Coord, 300),
			ASN:        as.asn,
			Continent:  site.Continent,
			LastMileMs: geo.LastMileMs(rng),
			IPv6:       rng.Float64() < 0.31,
		}
		// Wire resolvers: AS pool, possibly public DNS, possibly both.
		usePublic := rng.Float64() < cfg.PublicDNSShare
		multi := rng.Float64() < cfg.MultiResolverShare
		asResolver := as.resolvers[rng.Intn(len(as.resolvers))]
		switch {
		case usePublic && multi:
			p.Resolvers = []int{asResolver, publicMarker}
		case usePublic:
			p.Resolvers = []int{publicMarker}
		case multi && len(as.resolvers) > 1:
			p.Resolvers = []int{as.resolvers[0], as.resolvers[1]}
		case multi:
			// Second resolver from another AS in the same region.
			other := asForProbe(site)
			p.Resolvers = []int{asResolver, other.resolvers[rng.Intn(len(other.resolvers))]}
		default:
			p.Resolvers = []int{asResolver}
		}
		pop.Probes = append(pop.Probes, p)
	}
	return pop, nil
}

// publicMarker in a probe's resolver list means "the public anycast
// service" — the harness resolves it to the catchment site.
const publicMarker = -1

// PublicMarker reports whether a probe resolver index refers to the
// public anycast DNS service rather than a concrete resolver.
func PublicMarker(idx int) bool { return idx == publicMarker }

// ShareAt maps a keyed draw onto the mixture's cumulative share
// distribution: the key's top 53 bits become a uniform in [0, 1),
// scaled by the (unnormalized) share total, and the first share whose
// cumulative mass covers it wins. noSticky redirects a Sticky draw to
// the next eligible share in mixture order, mirroring pickPublicKind's
// exclusion for anycast public-DNS sites. The outcome is a pure
// function of (mix, key) — no RNG state — which is what lets the
// measurement planner re-assign policies entity-keyed without
// perturbing any other seeded stream.
func ShareAt(mix []PolicyShare, key uint64, noSticky bool) PolicyShare {
	fallback := PolicyShare{Kind: resolver.KindBINDLike, InfraTTL: 10 * time.Minute, Retention: resolver.DecayKeep}
	var total float64
	for _, m := range mix {
		if m.Share > 0 {
			total += m.Share
		}
	}
	if total <= 0 {
		return fallback
	}
	x := float64(key>>11) / (1 << 53) * total
	idx := -1
	for i, m := range mix {
		if m.Share <= 0 {
			continue
		}
		x -= m.Share
		idx = i
		if x <= 0 {
			break
		}
	}
	if !noSticky || mix[idx].Kind != resolver.KindSticky {
		return mix[idx]
	}
	for step := 1; step <= len(mix); step++ {
		m := mix[(idx+step)%len(mix)]
		if m.Share > 0 && m.Kind != resolver.KindSticky {
			return m
		}
	}
	return fallback
}

// pickPublicKind draws a behaviour for a public-DNS site, excluding
// Sticky (hyperscale resolvers do measure latency).
func pickPublicKind(mix []PolicyShare, rng *rand.Rand, total float64) PolicyShare {
	for tries := 0; tries < 32; tries++ {
		x := rng.Float64() * total
		for _, m := range mix {
			x -= m.Share
			if x <= 0 {
				if m.Kind == resolver.KindSticky {
					break
				}
				return m
			}
		}
	}
	return PolicyShare{Kind: resolver.KindBINDLike, InfraTTL: 10 * time.Minute, Retention: resolver.DecayKeep}
}

// scatter jitters a coordinate by up to radiusKm (roughly) so probes
// and resolvers do not sit at one point.
func scatter(rng *rand.Rand, c geo.Coord, radiusKm float64) geo.Coord {
	// ~111 km per degree latitude.
	dLat := (rng.Float64()*2 - 1) * radiusKm / 111
	dLon := (rng.Float64()*2 - 1) * radiusKm / 111
	lat := c.Lat + dLat
	if lat > 89 {
		lat = 89
	}
	if lat < -89 {
		lat = -89
	}
	lon := c.Lon + dLon
	if lon > 180 {
		lon -= 360
	}
	if lon < -180 {
		lon += 360
	}
	return geo.Coord{Lat: lat, Lon: lon}
}

// Stats summarizes a population for Table-1-style reporting.
type Stats struct {
	Probes        int
	Resolvers     int
	ASes          int
	ByContinent   map[geo.Continent]int
	ByPolicy      map[resolver.PolicyKind]int
	MultiResolver int
	PublicUsers   int
	IPv6Capable   int
}

// Summarize computes population statistics.
func (p *Population) Summarize() Stats {
	st := Stats{
		Probes:      len(p.Probes),
		Resolvers:   len(p.Resolvers),
		ByContinent: make(map[geo.Continent]int),
		ByPolicy:    make(map[resolver.PolicyKind]int),
	}
	asns := make(map[int]bool)
	for _, pr := range p.Probes {
		st.ByContinent[pr.Continent]++
		asns[pr.ASN] = true
		if len(pr.Resolvers) > 1 {
			st.MultiResolver++
		}
		for _, r := range pr.Resolvers {
			if PublicMarker(r) {
				st.PublicUsers++
				break
			}
		}
		if pr.IPv6 {
			st.IPv6Capable++
		}
	}
	for _, r := range p.Resolvers {
		st.ByPolicy[r.Kind]++
	}
	st.ASes = len(asns)
	return st
}
