package measure

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"strconv"
	"strings"
	"time"

	"ritw/internal/atlas"
	"ritw/internal/attacks"
	"ritw/internal/dnswire"
	"ritw/internal/faults"
	"ritw/internal/geo"
	"ritw/internal/netsim"
	"ritw/internal/obs"
	"ritw/internal/resolver"
	"ritw/internal/simbind"
)

// This file is the sharded simulation engine (DESIGN.md §8.4). A run
// is split into three stages:
//
//  1. plan: compute everything whose value must not depend on the
//     partition — the global address plan, churn, public-DNS
//     catchments, and the resolver-closure components.
//  2. shards: build one independent world (simulator, network, auth
//     replicas, resolvers, probes, fault injector) per shard and run
//     them concurrently. Keyed randomness (netsim/keyed.go) makes
//     every stochastic outcome a pure function of stable entity keys,
//     so a shard computes exactly what the sequential run would.
//  3. merge: each shard emits records in canonical order (virtual
//     time, then a total record key); a k-way merge interleaves the
//     shard streams into one canonical sequence feeding the Sink.
//
// The single-shard path runs through the same machinery, which is how
// the byte-identity contract is pinned: shards=1 and shards=N produce
// the same canonical sequence, record for record.

// plannedProbe is one churn-surviving probe with its globally planned
// address and, for public-DNS users, the pinned catchment member.
type plannedProbe struct {
	probe atlas.Probe
	addr  netip.Addr
	// catchIdx is the global resolver index of the public anycast site
	// serving this probe, or -1 when the probe never uses the service.
	catchIdx int
	// vpKeys[i] is the rendered VPKey for the probe's i-th resolver
	// choice, and labelPrefix the query-name prefix ("p<ID>x"); both
	// are interned once at plan time so the per-query hot path does no
	// fmt formatting, only an integer append for the sequence number.
	vpKeys      []string
	labelPrefix string
}

// runPlan is the partition-independent description of a run: every
// address, catchment and churn decision is fixed here, before any
// shard exists, so all shard counts agree on them.
type runPlan struct {
	model        geo.PathModel
	pop          *atlas.Population
	popCfg       atlas.Config // resolved population config, for the snapshot fingerprint
	siteAddr     map[string]netip.Addr
	resolverAddr []netip.Addr
	publicAddr   netip.Addr
	active       []plannedProbe
	// specs is the effective per-resolver behaviour: the population's
	// own specs, unless cfg.Mix re-drew them entity-keyed (see
	// applyMix). Shards build engines from these, never from
	// pop.Resolvers directly.
	specs []atlas.ResolverSpec

	// Attack infrastructure addresses, allocated after every benign
	// address and only when the run has the corresponding campaigns —
	// so an attack-free plan is address-for-address identical to one
	// from a build that never knew about attacks.
	attackerNS netip.Addr // NXNS attacker name server
	reflectSrc netip.Addr // reflection sender
	reflectDst netip.Addr // reflection victim

	nShards          int
	probesByShard    [][]int // indices into active
	resolversByShard [][]int // global resolver indices, ascending
}

// planRun fixes the global address plan (mirroring the allocation
// order a single network would use), applies churn, pins public-DNS
// catchments with the keyed pick, and partitions the population into
// resolver-closure shards.
func planRun(cfg RunConfig, pop *atlas.Population, model geo.PathModel, nShards int) *runPlan {
	pl := &runPlan{
		model:    model,
		pop:      pop,
		siteAddr: make(map[string]netip.Addr, len(cfg.Combo.Sites)),
		nShards:  nShards,
	}
	next := uint32(0x0A000001) // 10.0.0.1, the netsim pool start
	alloc := func() netip.Addr {
		v := next
		next++
		return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
	}
	// Allocation order matches the sequential world build: auth sites,
	// resolvers, the public anycast service address, then the active
	// probes in population order.
	for _, code := range cfg.Combo.Sites {
		pl.siteAddr[code] = alloc()
	}
	pl.resolverAddr = make([]netip.Addr, len(pop.Resolvers))
	for i := range pop.Resolvers {
		pl.resolverAddr[i] = alloc()
	}
	if len(pop.PublicSites) > 0 {
		pl.publicAddr = alloc()
	}

	memberLocs := make([]geo.Coord, len(pop.PublicSites))
	for i, ri := range pop.PublicSites {
		memberLocs[i] = pop.Resolvers[ri].Loc
	}

	churn := rand.New(rand.NewSource(cfg.Seed + 2))
	for _, p := range pop.Probes {
		if cfg.IPv6Subset && !p.IPv6 {
			continue
		}
		if churn.Float64() < cfg.ChurnRate {
			continue // probe offline this run
		}
		ap := plannedProbe{probe: p, addr: alloc(), catchIdx: -1}
		for _, ri := range p.Resolvers {
			if atlas.PublicMarker(ri) && len(memberLocs) > 0 {
				// Pin the anycast catchment now, with the same keyed
				// pick the network would make lazily. Pinning at plan
				// time means a public-DNS probe's closure contains one
				// site, not all eight — without it every public user
				// would collapse into a single giant shard.
				pick := netsim.KeyedCatchmentPick(model, netsim.DefaultBGPNoise,
					netsim.CatchmentKey(uint64(cfg.Seed+1), ap.addr, pl.publicAddr),
					p.Loc, memberLocs)
				ap.catchIdx = pop.PublicSites[pick]
			}
		}
		ap.labelPrefix = "p" + strconv.Itoa(p.ID) + "x"
		ap.vpKeys = make([]string, len(p.Resolvers))
		for i, ri := range p.Resolvers {
			raddr := pl.publicAddr
			if !atlas.PublicMarker(ri) {
				raddr = pl.resolverAddr[ri]
			}
			if raddr.IsValid() {
				ap.vpKeys[i] = strconv.Itoa(p.ID) + "/" + raddr.String()
			}
		}
		pl.active = append(pl.active, ap)
	}

	if cfg.Attacks != nil {
		if len(cfg.Attacks.NXNS) > 0 {
			pl.attackerNS = alloc()
		}
		if len(cfg.Attacks.Reflections) > 0 {
			pl.reflectSrc = alloc()
			pl.reflectDst = alloc()
		}
	}

	pl.specs = applyMix(cfg, pop)
	pl.partition()
	return pl
}

// applyMix resolves the effective per-resolver specs: the population's
// own, unless the run carries a policy mix — then every resolver
// re-draws its behaviour from the mix on an entity-keyed stream
// (Seed+13, keyed by the resolver's stable name). The draw is a pure
// function of (seed, mix, name): it consumes no RNG state, so the
// population synthesis, the address plan, churn and catchments are all
// untouched. Public anycast sites skip Sticky draws, mirroring
// atlas.pickPublicKind.
func applyMix(cfg RunConfig, pop *atlas.Population) []atlas.ResolverSpec {
	if len(cfg.Mix) == 0 {
		return pop.Resolvers
	}
	specs := make([]atlas.ResolverSpec, len(pop.Resolvers))
	copy(specs, pop.Resolvers)
	for i := range specs {
		m := atlas.ShareAt(cfg.Mix, netsim.MixKey(uint64(cfg.Seed+13), specs[i].Name), specs[i].Public)
		specs[i].Kind = m.Kind
		specs[i].InfraTTL = m.InfraTTL
		specs[i].Retention = m.Retention
		specs[i].Singleflight = m.Singleflight
		specs[i].QnameMinimize = m.QnameMinimize
	}
	return specs
}

// partition groups resolvers into closure components (two resolvers
// are connected when some probe can use both) and packs components
// onto shards, largest first. Probes follow their resolvers, so no
// packet ever needs to cross a shard boundary: probes talk only to
// their own resolvers, resolvers only to the per-shard authoritative
// replicas.
func (pl *runPlan) partition() {
	uf := newUnionFind(len(pl.pop.Resolvers))
	for _, ap := range pl.active {
		first := -1
		for _, ri := range ap.probe.Resolvers {
			if atlas.PublicMarker(ri) {
				ri = ap.catchIdx
				if ri < 0 {
					continue
				}
			}
			if first < 0 {
				first = ri
			} else {
				uf.union(first, ri)
			}
		}
	}

	type component struct {
		root      int
		probes    []int
		resolvers []int
	}
	byRoot := make(map[int]*component)
	comp := func(root int) *component {
		c, ok := byRoot[root]
		if !ok {
			c = &component{root: root}
			byRoot[root] = c
		}
		return c
	}
	for ri := range pl.pop.Resolvers {
		root := uf.find(ri)
		comp(root).resolvers = append(comp(root).resolvers, ri)
	}
	for ai, ap := range pl.active {
		ri := ap.probe.Resolvers[0]
		if atlas.PublicMarker(ri) {
			ri = ap.catchIdx
		}
		if ri < 0 {
			continue // no usable resolver: the probe never sends
		}
		root := uf.find(ri)
		comp(root).probes = append(comp(root).probes, ai)
	}

	comps := make([]*component, 0, len(byRoot))
	for _, c := range byRoot {
		comps = append(comps, c)
	}
	// Longest-processing-time packing: heaviest component to the
	// lightest shard. Root index breaks ties so the assignment is
	// reproducible run to run.
	sort.Slice(comps, func(i, j int) bool {
		if len(comps[i].probes) != len(comps[j].probes) {
			return len(comps[i].probes) > len(comps[j].probes)
		}
		return comps[i].root < comps[j].root
	})
	pl.probesByShard = make([][]int, pl.nShards)
	pl.resolversByShard = make([][]int, pl.nShards)
	load := make([]int, pl.nShards)
	for _, c := range comps {
		s := 0
		for i := 1; i < pl.nShards; i++ {
			if load[i] < load[s] {
				s = i
			}
		}
		load[s] += len(c.probes)
		pl.probesByShard[s] = append(pl.probesByShard[s], c.probes...)
		pl.resolversByShard[s] = append(pl.resolversByShard[s], c.resolvers...)
	}
	for s := 0; s < pl.nShards; s++ {
		sort.Ints(pl.probesByShard[s])
		sort.Ints(pl.resolversByShard[s])
	}
}

// unionFind is a plain disjoint-set forest with path halving.
type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[rb] = ra
	}
}

// emitted is one record tagged with its emission instant, the unit of
// the canonical merge.
type emitted struct {
	at    time.Duration
	query bool
	q     QueryRecord
	a     AuthRecord
}

// emittedLess is the canonical total order on records: virtual time,
// then auth before query, then a key unique per record kind. Records
// that compare equal are byte-identical (every rendered field is part
// of the key), so the order is well-defined independent of partition.
func emittedLess(x, y emitted) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	if x.query != y.query {
		return !x.query
	}
	if x.query {
		if x.q.ProbeID != y.q.ProbeID {
			return x.q.ProbeID < y.q.ProbeID
		}
		return x.q.Seq < y.q.Seq
	}
	if x.a.Site != y.a.Site {
		return x.a.Site < y.a.Site
	}
	if x.a.Src != y.a.Src {
		return x.a.Src.Less(y.a.Src)
	}
	return x.a.QName < y.a.QName
}

// emitBatchTarget is how many records a shard accumulates before
// shipping a batch to the merger. Batching is a throughput decision,
// not a correctness one: a batch is a concatenation of consecutive
// sorted same-instant groups, so it is itself a sorted run. Too-small
// batches lock-step every shard to within a channel buffer of the
// global merge frontier; 512 records lets shards run far enough ahead
// that the lanes actually execute in parallel.
const emitBatchTarget = 512

// shardEmitter buffers a shard's records for the current virtual
// instant, canonically sorts each completed instant, and ships sorted
// runs to the merger in batches. Within a shard, same-instant event
// execution order still depends on heap insertion order — which
// differs between partitions — so the per-instant sort here (not the
// merge) is what makes a shard's stream partition-independent.
type shardEmitter struct {
	sim   *netsim.Simulator
	out   chan<- []emitted
	at    time.Duration
	count int64 // records pushed, for the lane_records_total counter
	group []emitted
	batch []emitted
}

func (e *shardEmitter) push(rec emitted) {
	if len(e.group) > 0 && rec.at != e.at {
		e.closeGroup()
	}
	e.at = rec.at
	e.count++
	e.group = append(e.group, rec)
}

func (e *shardEmitter) query(r QueryRecord) {
	e.push(emitted{at: e.sim.Now(), query: true, q: r})
}

func (e *shardEmitter) auth(a AuthRecord) {
	e.push(emitted{at: a.At, a: a})
}

// closeGroup sorts the completed instant and appends it to the pending
// batch, shipping the batch once it is large enough.
func (e *shardEmitter) closeGroup() {
	g := e.group
	e.group = e.group[len(e.group):]
	sort.Slice(g, func(i, j int) bool { return emittedLess(g[i], g[j]) })
	e.batch = append(e.batch, g...)
	if len(e.batch) >= emitBatchTarget {
		e.out <- e.batch
		e.batch = nil
		e.group = nil
	}
}

// flush ships everything still buffered; call once after the run.
func (e *shardEmitter) flush() {
	if len(e.group) > 0 {
		e.closeGroup()
	}
	if len(e.batch) > 0 {
		e.out <- e.batch
		e.batch = nil
	}
}

// runShards executes the planned run across the plan's shards, one
// goroutine lane each, and feeds the merged canonical record stream
// into emit/emitAuth on the caller's goroutine. It returns the merged
// fault and attack reports (nil without the respective schedule) and
// the run's primary error. When
// snapshotting is configured it checkpoints the merge frontier at
// instant boundaries and, on resume, verifies and skips the
// already-durable prefix.
func runShards(ctx context.Context, cfg RunConfig, pl *runPlan, emit func(QueryRecord), emitAuth func(AuthRecord), metrics *obs.Registry) (*faults.Report, *attacks.Report, error) {
	sn, err := newSnapshotter(cfg, pl)
	if err != nil {
		return nil, nil, err
	}
	rctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	if sn != nil {
		sn.abort = cancel
	}
	chans := make([]chan []emitted, pl.nShards)
	for i := range chans {
		chans[i] = make(chan []emitted, 8)
	}
	var (
		reports []laneReport
		runErr  error
		done    = make(chan struct{})
	)
	go func() {
		defer close(done)
		reports, runErr = runLanes(rctx, cancel, cfg, pl, chans, metrics)
	}()
	mergeStreams(chans, func(stream int, rec emitted) {
		if rctx.Err() != nil {
			// A lane failed (or the snapshotter aborted): drain the
			// remaining batches without delivering. Past this point the
			// merge no longer sees every stream's records, so anything
			// it produced would not be a canonical prefix.
			return
		}
		if sn != nil {
			sn.observe(stream, rec)
		}
		if rec.query {
			emit(rec.q)
		} else {
			emitAuth(rec.a)
		}
	})
	<-done
	if runErr != nil {
		if sn != nil {
			sn.failureCheckpoint()
		}
		return nil, nil, runErr
	}
	if sn != nil {
		if err := sn.finish(); err != nil {
			return nil, nil, err
		}
	}
	fr := make([]*faults.Report, len(reports))
	ar := make([]*attacks.Report, len(reports))
	for i, r := range reports {
		fr[i], ar[i] = r.Faults, r.Attacks
	}
	return faults.MergeReports(fr...), attacks.MergeReports(ar...), nil
}

// mergeStreams k-way merges the per-lane canonical streams into
// deliver. Each stream arrives sorted by (time, record
// key); repeatedly taking the smallest head yields the one global
// canonical order, whatever the stream count. The merge naturally
// paces itself to the slowest stream and the bounded channels
// backpressure fast ones, so memory stays proportional to streams ×
// channel depth, not to the record count.
func mergeStreams(chans []chan []emitted, deliver func(stream int, rec emitted)) {
	type head struct {
		group []emitted
		idx   int
	}
	heads := make([]head, len(chans))
	alive := make([]bool, len(chans))
	for i, ch := range chans {
		if g, ok := <-ch; ok {
			heads[i] = head{group: g}
			alive[i] = true
		}
	}
	for {
		best := -1
		for i := range heads {
			if !alive[i] {
				continue
			}
			if best < 0 || emittedLess(heads[i].group[heads[i].idx], heads[best].group[heads[best].idx]) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		rec := heads[best].group[heads[best].idx]
		deliver(best, rec)
		heads[best].idx++
		if heads[best].idx == len(heads[best].group) {
			if g, ok := <-chans[best]; ok {
				heads[best] = head{group: g}
			} else {
				alive[best] = false
			}
		}
	}
}

// runOneShard builds shard s's world — its own simulator, network,
// authoritative replicas, the shard's resolvers and probes — and runs
// it to completion, streaming canonical batches into out. All
// stochastic decisions are keyed (UseKeyedRand), so the shard computes
// exactly the outcomes the sequential run would for its slice of the
// population. It returns the lane's fault and attack reports (nil
// without the respective schedule) and how many records it emitted.
func runOneShard(ctx context.Context, cfg RunConfig, pl *runPlan, s int, out chan<- []emitted, metrics *obs.Registry) (laneReport, int64, error) {
	sim := netsim.NewSimulator()
	net := netsim.NewNetwork(sim, pl.model, cfg.Seed+1)
	net.LossRate = cfg.LossRate
	net.UseKeyedRand(uint64(cfg.Seed + 1))
	if metrics != nil {
		net.SetMetrics(metrics)
	}
	em := &shardEmitter{sim: sim, out: out}

	// Attack campaigns compile on their own keyed stream (Seed+11),
	// exactly like faults on Seed+7: bot membership, reflector subsets
	// and phases are pure functions of stable entity keys, so every
	// shard layout agrees on who attacks when.
	var tracker *attacks.Tracker
	atkPlan, err := attacks.Compile(cfg.Attacks, cfg.Seed+11)
	if err != nil {
		return laneReport{}, 0, err
	}
	if atkPlan != nil {
		tracker = attacks.NewTracker(atkPlan, metrics)
	}

	// Authoritative sites: replicated into every shard. Their engines
	// keep only per-source state (and measurement runs leave RRL off),
	// so a replica serving a subset of sources behaves exactly like the
	// shared engine would toward those sources. buildAuthSites writes
	// the (already planned, identical) addresses back into its map, so
	// each shard gets a private copy of the plan's map.
	siteAddr := make(map[string]netip.Addr, len(pl.siteAddr))
	for code, addr := range pl.siteAddr {
		siteAddr[code] = addr
	}
	emitAuth := em.auth
	if tracker != nil {
		// Attribute victim-side authoritative load to its campaign by
		// query-name grammar. Reflection is excluded: its victim traffic
		// is the reflected responses, counted at the victim host below.
		emitAuth = func(a AuthRecord) {
			if kind, idx, ok := attacks.Classify(a.QName); ok && kind != attacks.KindReflect {
				tracker.Victim(kind, idx, 0)
			}
			em.auth(a)
		}
	}
	authAddrs, _, err := buildAuthSites(sim, net, cfg.Combo, siteAddr, emitAuth, metrics)
	if err != nil {
		return laneReport{}, 0, err
	}

	clock := simbind.SimClock{Sim: sim}
	zones := []resolver.ZoneServers{{Zone: TestDomain, Servers: authAddrs}}
	if atkPlan != nil && len(cfg.Attacks.NXNS) > 0 {
		// The attacker's name server: replicated per shard like the auth
		// sites, answering every bot query with a crafted glueless
		// referral into the victim zone. Its zone is delegated in the
		// resolver config so bot queries route to it.
		fanouts := make([]int, len(cfg.Attacks.NXNS))
		for i, e := range cfg.Attacks.NXNS {
			fanouts[i] = e.Fanout
		}
		responder := &attacks.ReferralResponder{Zone: attacks.EvilZone, Victim: TestDomain, Fanouts: fanouts}
		evil := net.AddHostAddr(pl.attackerNS, geo.Coord{})
		evil.Handle(func(src, _ netip.Addr, payload []byte) {
			if resp := responder.Respond(payload); resp != nil {
				evil.Send(src, resp)
			}
		})
		zones = append(zones, resolver.ZoneServers{Zone: attacks.EvilZone, Servers: []netip.Addr{pl.attackerNS}})
	}
	var publicMembers []*netsim.Host
	for _, ri := range pl.resolversByShard[s] {
		spec := pl.specs[ri]
		host := net.AddHostAddr(pl.resolverAddr[ri], spec.Loc)
		infra := resolver.NewInfraCache(spec.InfraTTL, spec.Retention)
		if cfg.Backoff != nil {
			infra.SetBackoff(*cfg.Backoff)
		}
		eng := resolver.NewEngine(resolver.Config{
			Policy:          resolver.NewPolicy(spec.Kind),
			Infra:           infra,
			Cache:           resolver.NewRecordCache(),
			Zones:           zones,
			Transport:       simbind.HostTransport{Host: host},
			Clock:           clock,
			RNG:             rand.New(rand.NewSource(cfg.Seed + 1000 + int64(ri))),
			Timeout:         800 * time.Millisecond,
			MaxFetch:        cfg.Defense.MaxFetch,
			DisableNegCache: cfg.Defense.NoNegativeCache,
			Singleflight:    spec.Singleflight,
			QnameMinimize:   spec.QnameMinimize,
			Metrics:         metrics,
		})
		simbind.BindResolver(host, eng)
		if spec.Public {
			publicMembers = append(publicMembers, host)
		}
	}
	if pl.publicAddr.IsValid() && len(publicMembers) > 0 {
		net.AddAnycast(pl.publicAddr, publicMembers)
	}

	// Each shard compiles its own injector against the full global
	// bindings (subset selection is address-keyed, so every shard
	// derives the same affected sets) and samples bursts keyed, so the
	// consult streams line up with the sequential run.
	var inj *faults.Injector
	if !cfg.Faults.Empty() {
		inj, err = faults.Compile(cfg.Faults, faults.Bindings{
			SiteAddr:  pl.siteAddr,
			Resolvers: pl.resolverAddr,
		}, cfg.Seed+7)
		if err != nil {
			return laneReport{}, 0, err
		}
		inj.UseKeyedRand(uint64(cfg.Seed + 7))
		if metrics != nil {
			inj.SetMetrics(metrics)
		}
		net.SetFaults(inj)
	}

	type probeRuntime struct {
		planned *plannedProbe
		probe   atlas.Probe
		host    *netsim.Host
		pending map[uint16]*QueryRecord
		rng     *rand.Rand
	}
	for _, ai := range pl.probesByShard[s] {
		ap := &pl.active[ai]
		host := net.AddHostAddr(ap.addr, ap.probe.Loc)
		host.LastMileMs = ap.probe.LastMileMs
		if ap.catchIdx >= 0 {
			member, ok := net.Host(pl.resolverAddr[ap.catchIdx])
			if !ok {
				return laneReport{}, 0, fmt.Errorf("measure: shard %d missing catchment member for probe %d", s, ap.probe.ID)
			}
			net.PinCatchment(ap.addr, pl.publicAddr, member)
		}
		prt := &probeRuntime{
			planned: ap,
			probe:   ap.probe,
			host:    host,
			pending: make(map[uint16]*QueryRecord),
			rng:     rand.New(rand.NewSource(cfg.Seed + 5000 + int64(ap.probe.ID))),
		}
		host.Handle(func(src, _ netip.Addr, payload []byte) {
			msg, err := dnswire.Unpack(payload)
			if err != nil || !msg.Response {
				return
			}
			rec, ok := prt.pending[msg.ID]
			if !ok {
				return
			}
			delete(prt.pending, msg.ID)
			rec.RTTms = float64(sim.Now()-rec.SentAt) / float64(time.Millisecond)
			rec.OK = msg.RCode == dnswire.RCodeNoError && len(msg.Answers) > 0
			if rec.OK {
				if txt, ok := msg.Answers[0].Data.(dnswire.TXT); ok {
					rec.Site = strings.TrimPrefix(txt.Joined(), "site=")
				}
			}
			em.query(*rec)
		})

		// Query schedule: random phase, then fixed cadence. The phase
		// and per-query resolver choice come from the probe's own
		// seeded stream, untouched by sharding.
		phase := time.Duration(prt.rng.Int63n(int64(cfg.Interval)))
		seq := 0
		var tick func()
		tick = func() {
			if sim.Now() >= cfg.Duration {
				return
			}
			rpos := prt.rng.Intn(len(prt.probe.Resolvers))
			ridx := prt.probe.Resolvers[rpos]
			raddr := pl.publicAddr
			if !atlas.PublicMarker(ridx) {
				raddr = pl.resolverAddr[ridx]
			}
			if !raddr.IsValid() {
				return
			}
			label := prt.planned.labelPrefix + strconv.Itoa(seq)
			qname, err := TestDomain.Child(label)
			if err != nil {
				return
			}
			id := uint16(seq)
			q := dnswire.NewQuery(id, qname, dnswire.TypeTXT)
			wire, err := q.Pack()
			if err != nil {
				return
			}
			rec := &QueryRecord{
				ProbeID:   prt.probe.ID,
				Resolver:  raddr,
				VPKey:     prt.planned.vpKeys[rpos],
				Continent: prt.probe.Continent,
				Seq:       seq,
				SentAt:    sim.Now(),
			}
			prt.pending[id] = rec
			prt.host.Send(raddr, wire)
			// Client-side timeout: record the failure.
			sim.Schedule(cfg.ClientTimeout, func() {
				if r, still := prt.pending[id]; still && r == rec {
					delete(prt.pending, id)
					rec.RTTms = float64(cfg.ClientTimeout) / float64(time.Millisecond)
					em.query(*rec)
				}
			})
			seq++
			sim.Schedule(cfg.Interval, tick)
		}
		sim.Schedule(phase, tick)

		if atkPlan != nil {
			scheduleAttackBots(sim, cfg, pl, atkPlan, tracker, host, ap.probe)
		}
	}

	if atkPlan != nil && len(cfg.Attacks.Reflections) > 0 {
		// Spoofed-source reflection: the sender host forges the victim's
		// address on queries to open resolvers, which reflect their
		// (cached, larger) responses at the victim. Reflector membership
		// is keyed by resolver address, so each shard drives exactly the
		// reflectors it owns and the union over any layout is identical.
		refl := net.AddHostAddr(pl.reflectSrc, geo.Coord{})
		victim := net.AddHostAddr(pl.reflectDst, geo.Coord{})
		victim.Handle(func(_, _ netip.Addr, payload []byte) {
			msg, err := dnswire.Unpack(payload)
			if err != nil || !msg.Response {
				return
			}
			q, ok := msg.Question()
			if !ok {
				return
			}
			if kind, idx, cok := attacks.Classify(q.Name.Key()); cok && kind == attacks.KindReflect {
				tracker.Victim(kind, idx, len(payload))
			}
		})
		for i := range cfg.Attacks.Reflections {
			e := cfg.Attacks.Reflections[i]
			qname, qerr := TestDomain.Child(attacks.ReflectLabel(i))
			if qerr != nil {
				continue
			}
			for _, ri := range pl.resolversByShard[s] {
				raddr := pl.resolverAddr[ri]
				if !atkPlan.Reflector(i, raddr) {
					continue
				}
				tracker.AddBot(attacks.KindReflect, i)
				phase := atkPlan.Phase(attacks.KindReflect, i, raddr.String(), e.Interval)
				scheduleBotTicks(sim, cfg, e.Start, e.End, e.Interval, phase, func(seq int) {
					q := dnswire.NewQuery(attackQueryID(seq), qname, dnswire.TypeTXT)
					wire, err := q.Pack()
					if err != nil {
						return
					}
					tracker.Attack(attacks.KindReflect, i, len(wire))
					refl.SendSpoofed(pl.reflectDst, raddr, wire)
				})
			}
		}
	}

	// Test-only seam: a lane failure injected at a virtual instant, for
	// the sibling-cancellation and fail-resume regression tests. Scheduling it last keeps
	// it off every production path (the hook is nil outside tests).
	runCtx := ctx
	if hook := testLaneFail; hook != nil {
		if at, ferr := hook(cfg, s); ferr != nil {
			var fail context.CancelCauseFunc
			runCtx, fail = context.WithCancelCause(ctx)
			defer fail(nil)
			sim.Schedule(at, func() { fail(ferr) })
		}
	}
	if err := sim.RunUntilContext(runCtx, cfg.Duration+cfg.ClientTimeout+time.Second); err != nil {
		if cause := context.Cause(runCtx); cause != nil && !errors.Is(cause, context.Canceled) {
			err = cause
		}
		return laneReport{}, em.count, err
	}
	em.flush()
	lr := laneReport{Attacks: tracker.Report()}
	if inj != nil {
		lr.Faults = inj.Report()
	}
	return lr, em.count, nil
}

// attackQueryID maps an attack-tick sequence number into the upper
// half of the DNS ID space. Probe measurement queries use IDs equal to
// their (small) sequence numbers, so attack replies arriving at a
// shared bot host never match a pending measurement record.
func attackQueryID(seq int) uint16 { return 0x8000 | uint16(seq&0x7fff) }

// scheduleBotTicks drives one bot's fixed-cadence loop inside the
// campaign window [start, end): first fire at start+phase, then every
// interval, stopping at the window's end or the run's end.
func scheduleBotTicks(sim *netsim.Simulator, cfg RunConfig, start, end, interval, phase time.Duration, fire func(seq int)) {
	seq := 0
	var tick func()
	tick = func() {
		if sim.Now() >= end || sim.Now() >= cfg.Duration {
			return
		}
		fire(seq)
		seq++
		sim.Schedule(interval, tick)
	}
	sim.Schedule(start+phase, tick)
}

// scheduleAttackBots enrolls one probe's host into every NXNS and
// water-torture campaign that keyed-selected it. Bots send through the
// probe's first resolver choice (deterministic, not the measurement
// RNG) with high-half query IDs; replies fall through the probe's
// pending lookup and are discarded, so bot traffic never perturbs the
// probe's own measurement records.
func scheduleAttackBots(sim *netsim.Simulator, cfg RunConfig, pl *runPlan, atkPlan *attacks.Plan, tracker *attacks.Tracker, host *netsim.Host, probe atlas.Probe) {
	ridx := probe.Resolvers[0]
	raddr := pl.publicAddr
	if !atlas.PublicMarker(ridx) {
		raddr = pl.resolverAddr[ridx]
	}
	if !raddr.IsValid() {
		return
	}
	entity := "p" + strconv.Itoa(probe.ID)
	send := func(kind string, idx int, qname dnswire.Name, typ dnswire.Type, seq int) {
		q := dnswire.NewQuery(attackQueryID(seq), qname, typ)
		wire, err := q.Pack()
		if err != nil {
			return
		}
		tracker.Attack(kind, idx, len(wire))
		host.Send(raddr, wire)
	}
	for i := range cfg.Attacks.NXNS {
		e := cfg.Attacks.NXNS[i]
		if !atkPlan.NXNSBot(i, probe.ID) {
			continue
		}
		tracker.AddBot(attacks.KindNXNS, i)
		phase := atkPlan.Phase(attacks.KindNXNS, i, entity, e.Interval)
		scheduleBotTicks(sim, cfg, e.Start, e.End, e.Interval, phase, func(seq int) {
			qname, err := attacks.EvilZone.Child(attacks.NXNSQueryLabel(i, probe.ID, seq))
			if err != nil {
				return
			}
			send(attacks.KindNXNS, i, qname, dnswire.TypeA, seq)
		})
	}
	for i := range cfg.Attacks.Floods {
		e := cfg.Attacks.Floods[i]
		if !atkPlan.FloodBot(i, probe.ID) {
			continue
		}
		tracker.AddBot(attacks.KindFlood, i)
		phase := atkPlan.Phase(attacks.KindFlood, i, entity, e.Interval)
		scheduleBotTicks(sim, cfg, e.Start, e.End, e.Interval, phase, func(seq int) {
			pool := seq
			if e.Names > 0 {
				pool = seq % e.Names
			}
			qname, err := TestDomain.Child(attacks.FloodLabel(i, probe.ID, pool))
			if err != nil {
				return
			}
			send(attacks.KindFlood, i, qname, dnswire.TypeA, seq)
		})
	}
}
