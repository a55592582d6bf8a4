package resolver

import (
	"math/bits"
	"math/rand"
	"net/netip"
	"sync"
	"time"

	"ritw/internal/dnswire"
	"ritw/internal/obs"
)

// Transport sends a datagram toward dst. Inbound datagrams are pushed
// into the engine via HandlePacket by whichever loop owns the socket
// or simulated host.
type Transport interface {
	Send(dst netip.Addr, payload []byte)
}

// Clock abstracts virtual versus wall time so the same engine runs in
// the simulator and on real sockets.
type Clock interface {
	// Now returns the time since an arbitrary epoch.
	Now() time.Duration
	// AfterFunc schedules fn after d. Implementations may run fn on
	// any goroutine; the engine serializes internally.
	AfterFunc(d time.Duration, fn func())
}

// RealClock is a Clock over the wall clock for socket deployments.
type RealClock struct {
	base time.Time
	once sync.Once
}

// Now implements Clock.
func (c *RealClock) Now() time.Duration {
	c.once.Do(func() { c.base = time.Now() })
	return time.Since(c.base)
}

// AfterFunc implements Clock.
func (c *RealClock) AfterFunc(d time.Duration, fn func()) {
	time.AfterFunc(d, fn)
}

// ZoneServers configures the authoritative server set for a zone: the
// resolver's equivalent of glue/hints. The engine picks the longest
// matching suffix for each query, which models the terminal step of
// iterative resolution — the step whose server-selection behaviour the
// paper studies.
type ZoneServers struct {
	Zone    dnswire.Name
	Servers []netip.Addr
}

// Config assembles an Engine.
type Config struct {
	// Policy selects among a zone's authoritative servers. Required.
	Policy Policy
	// Infra is the latency cache. Required.
	Infra *InfraCache
	// Cache is the record cache; nil disables answer caching.
	Cache *RecordCache
	// Zones maps query names to authoritative server sets. Required.
	Zones []ZoneServers
	// Transport sends packets. Required.
	Transport Transport
	// Clock provides time. Required.
	Clock Clock
	// RNG drives the policy's randomness. Required.
	RNG *rand.Rand
	// Timeout is the per-attempt upstream timeout (default 800ms).
	Timeout time.Duration
	// MaxRetries bounds upstream attempts per client query (default 3).
	MaxRetries int
	// MaxFetch caps the glueless NS-target fetches a single client
	// query may spawn while chasing referrals — the NXNSAttack
	// "MaxFetch" defense. 0 means undefended: only the hard safety cap
	// (maxReferralFetch) applies.
	MaxFetch int
	// DisableNegCache turns off RFC 2308 negative caching while
	// keeping positive caching, for defense-matrix contrasts.
	DisableNegCache bool
	// Singleflight coalesces identical in-flight client questions onto
	// one upstream transaction (the secDNS recursive's dedup): while a
	// question is being resolved, duplicate client queries wait for the
	// leader's answer instead of going upstream themselves. Off by
	// default — coalescing changes upstream query counts, so it is a
	// modelled fleet behaviour, not a transparent optimization.
	Singleflight bool
	// QnameMinimize resolves client questions with the RFC 9156 label
	// walk (see MinimizationSteps): intermediate steps reveal one label
	// past the zone cut per upstream query before the full name is
	// sent. NXDOMAIN on an intermediate step short-circuits (RFC 8020).
	// Off by default for the same reason as Singleflight.
	QnameMinimize bool
	// Metrics, if set, registers the engine's counters there. Several
	// engines may share one registry: the counters are additive, so the
	// registry then reports population-wide totals.
	Metrics *obs.Registry
	// Trace, if set, observes completed client queries. The hook is
	// called under the engine's serialization — see obs.TraceHook.
	Trace obs.TraceHook
}

// Stats counts engine activity.
type Stats struct {
	ClientQueries   int
	CacheHits       int
	UpstreamQueries int
	UpstreamAnswers int
	Timeouts        int
	ServFails       int
	// ErrorFailovers counts upstream attempts abandoned because the
	// server returned SERVFAIL/REFUSED and another server was tried.
	ErrorFailovers int
	// HoldDownSkips counts servers excluded from selection because
	// they were inside a backoff hold-down window.
	HoldDownSkips int
	// NegCacheHits counts cache hits served from negative entries
	// (RFC 2308): the water-torture absorption path.
	NegCacheHits int
	// ReferralFetches counts glueless NS-target fetches spawned while
	// chasing referrals — the NXNSAttack amplification vector.
	ReferralFetches int
	// FetchExhausted counts queries whose referral chase hit the fetch
	// budget (MaxFetch or the hard safety cap).
	FetchExhausted int
	// SingleflightLeaders counts client queries that went upstream as
	// the singleflight leader for their question (only ever non-zero
	// with Config.Singleflight on).
	SingleflightLeaders int
	// SingleflightHits counts client queries coalesced onto an
	// in-flight leader instead of going upstream.
	SingleflightHits int
	// MinimizeSteps counts intermediate qname-minimization queries sent
	// upstream (the full-name query is not counted).
	MinimizeSteps int
}

// engineMetrics caches the obs counters so the serving path touches
// only atomics (all fields stay nil — a no-op — without a registry).
type engineMetrics struct {
	clientQueries *obs.Counter
	cacheHits     *obs.Counter
	upstream      *obs.Counter
	answers       *obs.Counter
	timeouts      *obs.Counter
	servfails     *obs.Counter
	failovers     *obs.Counter
	holdSkips     *obs.Counter
	negHits       *obs.Counter
	refFetches    *obs.Counter
	refExhausted  *obs.Counter
	sfLeaders     *obs.Counter
	sfHits        *obs.Counter
	qminSteps     *obs.Counter
}

func newEngineMetrics(r *obs.Registry) engineMetrics {
	return engineMetrics{
		clientQueries: r.Counter("resolver_client_queries_total"),
		cacheHits:     r.Counter("resolver_cache_hits_total"),
		upstream:      r.Counter("resolver_upstream_queries_total"),
		answers:       r.Counter("resolver_upstream_answers_total"),
		timeouts:      r.Counter("resolver_timeouts_total"),
		servfails:     r.Counter("resolver_servfail_total"),
		failovers:     r.Counter("resolver_error_failovers_total"),
		holdSkips:     r.Counter("resolver_holddown_skips_total"),
		negHits:       r.Counter("resolver_negcache_hits_total"),
		refFetches:    r.Counter("attacks_referral_fetches_total"),
		refExhausted:  r.Counter("attacks_fetch_budget_exhausted_total"),
		sfLeaders:     r.Counter("resolver_singleflight_leaders_total"),
		sfHits:        r.Counter("resolver_singleflight_hits_total"),
		qminSteps:     r.Counter("resolver_qmin_steps_total"),
	}
}

// Engine is the recursive resolver: it accepts client queries, answers
// from cache when possible, otherwise selects an authoritative server
// with its policy, tracks the measured RTT in the infrastructure
// cache, retries on timeout, and responds to the client.
type Engine struct {
	mu      sync.Mutex
	cfg     Config
	pending map[uint16]*pendingQuery
	nextID  uint16
	stats   Stats
	m       engineMetrics

	// sf maps in-flight client questions to their singleflight leader
	// (nil unless Config.Singleflight).
	sf map[sfKey]*pendingQuery

	// zoneIDs holds each zone's server list pre-interned in the infra
	// cache (parallel to cfg.Zones), so the per-query path works with
	// dense ids instead of address-keyed map lookups.
	zoneIDs [][]ServerID
	// Scratch buffers for candidate filtering in sendUpstreamLocked,
	// reused across queries under mu. Safe because Policy.Select does
	// not retain the candidate slice.
	idxA, idxB []int32
	selScratch []netip.Addr
}

// pendingQuery is an in-flight upstream transaction.
type pendingQuery struct {
	clientAddr netip.Addr
	clientMsg  *dnswire.Message
	question   dnswire.Question
	servers    []netip.Addr
	serverIDs  []ServerID
	// triedMask records which of servers (by index) this query already
	// tried; triedMap is the spill for indices past 64 and for a
	// policy that returns an address outside the candidate list.
	triedMask  uint64
	triedMap   map[netip.Addr]bool
	upstream   netip.Addr
	upstreamID ServerID
	startedAt  time.Duration
	sentAt     time.Duration
	attempts   int
	failovers  int
	done       bool

	// Referral-chase bookkeeping. A client query whose upstream answer
	// is a referral becomes the *root* of a chase: each glueless NS
	// target spawns a child pendingQuery (root set, no client to reply
	// to), and the root replies to its client only after every child
	// resolves. The budget lives on the root, so nested referrals —
	// the NXNSAttack loop — are charged to the one client query that
	// started them and terminate deterministically.
	root    *pendingQuery         // non-nil on chase children
	kids    int                   // outstanding children (root only)
	fetches int                   // NS-target fetches charged (root only)
	fetched map[dnswire.Name]bool // Canonical() NS targets already handled (root only)

	// Singleflight bookkeeping: a leader replies to every coalesced
	// follower when it completes.
	sfLeader  bool
	sfKey     sfKey
	followers []sfFollower

	// Qname-minimization walk (RFC 9156): minSteps[minIdx] is the name
	// currently in flight; the final step is the full question. nil
	// when minimization is off or the walk is a single step.
	minSteps []dnswire.Name
	minIdx   int
}

// sfKey identifies a client question for singleflight coalescing.
type sfKey struct {
	name  dnswire.Name // Canonical()
	qtype dnswire.Type
	class dnswire.Class
}

// sfFollower is one coalesced duplicate client query awaiting the
// singleflight leader's answer.
type sfFollower struct {
	client netip.Addr
	msg    *dnswire.Message
}

// upQuestion returns the question currently going upstream: the active
// minimization step, or the client question itself.
func (pq *pendingQuery) upQuestion() dnswire.Question {
	if pq.minSteps != nil && pq.minIdx < len(pq.minSteps)-1 {
		// Intermediate steps probe with QTYPE=A per RFC 9156 §2.3:
		// most compatible with servers that mishandle rare qtypes.
		return dnswire.Question{Name: pq.minSteps[pq.minIdx], Type: dnswire.TypeA, Class: dnswire.ClassINET}
	}
	return pq.question
}

// maxReferralFetch is the hard safety cap on NS-target fetches per
// client query when no MaxFetch defense is configured. It bounds the
// undefended engine the way real pre-patch resolvers were bounded by
// message size — large enough to exhibit paper-class amplification,
// small enough that a crafted referral chain cannot run away.
const maxReferralFetch = 64

func (pq *pendingQuery) triedCount() int {
	return bits.OnesCount64(pq.triedMask) + len(pq.triedMap)
}

func (pq *pendingQuery) hasTried(i int) bool {
	if i < 64 {
		return pq.triedMask&(1<<uint(i)) != 0
	}
	return pq.triedMap[pq.servers[i]]
}

func (pq *pendingQuery) markTried(i int) {
	if i < 64 {
		pq.triedMask |= 1 << uint(i)
		return
	}
	pq.markTriedAddr(pq.servers[i])
}

func (pq *pendingQuery) markTriedAddr(addr netip.Addr) {
	if pq.triedMap == nil {
		pq.triedMap = make(map[netip.Addr]bool)
	}
	pq.triedMap[addr] = true
}

// NewEngine validates cfg and builds an engine.
func NewEngine(cfg Config) *Engine {
	if cfg.Policy == nil || cfg.Infra == nil || cfg.Transport == nil || cfg.Clock == nil || cfg.RNG == nil {
		panic("resolver: incomplete config")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 800 * time.Millisecond
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 3
	}
	// Intern every configured server once, up front: queries then carry
	// dense ids and the hot path never hashes an address. Interning
	// alone does not create infra-cache state (see InfraCache.IDFor).
	zoneIDs := make([][]ServerID, len(cfg.Zones))
	for zi, zs := range cfg.Zones {
		ids := make([]ServerID, len(zs.Servers))
		for i, s := range zs.Servers {
			ids[i] = cfg.Infra.IDFor(s)
		}
		zoneIDs[zi] = ids
	}
	e := &Engine{
		cfg:     cfg,
		pending: make(map[uint16]*pendingQuery),
		nextID:  uint16(cfg.RNG.Intn(1 << 16)),
		m:       newEngineMetrics(cfg.Metrics),
		zoneIDs: zoneIDs,
	}
	if cfg.Singleflight {
		e.sf = make(map[sfKey]*pendingQuery)
	}
	return e
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Infra exposes the infrastructure cache (analyses read SRTTs off it).
func (e *Engine) Infra() *InfraCache { return e.cfg.Infra }

// Policy exposes the configured selection policy.
func (e *Engine) Policy() Policy { return e.cfg.Policy }

// zoneFor returns the index of the configured zone that is the longest
// suffix of qname, or -1.
func (e *Engine) zoneFor(qname dnswire.Name) int {
	best, bestIdx := -1, -1
	for i, zs := range e.cfg.Zones {
		if qname.IsSubdomainOf(zs.Zone) && zs.Zone.NumLabels() > best {
			best = zs.Zone.NumLabels()
			bestIdx = i
		}
	}
	return bestIdx
}

// serversFor returns the configured server set whose zone is the
// longest suffix of qname.
func (e *Engine) serversFor(qname dnswire.Name) []netip.Addr {
	if i := e.zoneFor(qname); i >= 0 {
		return e.cfg.Zones[i].Servers
	}
	return nil
}

// HandlePacket processes one datagram received by the resolver, from
// either a client (query) or an authoritative server (response).
func (e *Engine) HandlePacket(src netip.Addr, payload []byte) {
	msg, err := dnswire.Unpack(payload)
	if err != nil {
		return // garbage in, nothing out — like real UDP services
	}
	if msg.Response {
		e.handleUpstreamResponse(src, msg)
	} else {
		e.handleClientQuery(src, msg)
	}
}

func (e *Engine) handleClientQuery(client netip.Addr, q *dnswire.Message) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.ClientQueries++
	e.m.clientQueries.Inc()
	question, ok := q.Question()
	if !ok {
		e.replyRCode(client, q, dnswire.RCodeFormErr)
		return
	}
	if question.Class == dnswire.ClassCHAOS {
		// A recursive answers CHAOS identity queries itself — exactly
		// why the paper uses Internet-class TXT instead.
		e.traceLocal(client, question, obs.OutcomeLocal, dnswire.RCodeNoError)
		e.replyChaos(client, q, question)
		return
	}
	now := e.cfg.Clock.Now()
	if e.cfg.Cache != nil {
		if rcode, answers, hit := e.cfg.Cache.Get(question.Name, question.Type, question.Class, now); hit {
			e.stats.CacheHits++
			e.m.cacheHits.Inc()
			if len(answers) == 0 {
				// Positive entries always carry records, so an empty
				// hit is an RFC 2308 negative entry doing its job.
				e.stats.NegCacheHits++
				e.m.negHits.Inc()
			}
			e.traceLocal(client, question, obs.OutcomeCacheHit, rcode)
			e.replyAnswer(client, q, rcode, answers)
			return
		}
	}
	zone := e.zoneFor(question.Name)
	if zone < 0 || len(e.cfg.Zones[zone].Servers) == 0 {
		e.stats.ServFails++
		e.m.servfails.Inc()
		e.traceLocal(client, question, obs.OutcomeServFail, dnswire.RCodeServFail)
		e.replyRCode(client, q, dnswire.RCodeServFail)
		return
	}
	var key sfKey
	if e.cfg.Singleflight {
		key = sfKey{question.Name.Canonical(), question.Type, question.Class}
		if leader, ok := e.sf[key]; ok && !leader.done {
			// Identical question already in flight: wait for its answer
			// instead of spending another upstream transaction.
			leader.followers = append(leader.followers, sfFollower{client, q})
			e.stats.SingleflightHits++
			e.m.sfHits.Inc()
			return
		}
	}
	pq := &pendingQuery{
		clientAddr: client,
		clientMsg:  q,
		question:   question,
		servers:    e.cfg.Zones[zone].Servers,
		serverIDs:  e.zoneIDs[zone],
		startedAt:  now,
	}
	if e.cfg.Singleflight {
		pq.sfLeader = true
		pq.sfKey = key
		e.sf[key] = pq
		e.stats.SingleflightLeaders++
		e.m.sfLeaders.Inc()
	}
	if e.cfg.QnameMinimize {
		if steps := MinimizationSteps(e.cfg.Zones[zone].Zone, question.Name, 0); len(steps) > 1 {
			pq.minSteps = steps
		}
	}
	e.sendUpstreamLocked(pq)
}

// sendUpstreamLocked selects a server and dispatches the query.
// Callers hold e.mu. Candidate filtering runs on dense indices into
// pq.servers with engine-owned scratch buffers: no per-query
// allocation, no address hashing.
func (e *Engine) sendUpstreamLocked(pq *pendingQuery) {
	now := e.cfg.Clock.Now()
	n := len(pq.servers)
	// Prefer servers outside a hold-down window. The filter is advisory:
	// if every server is held down, keep the full list — a query must
	// always have somewhere to go, and the occasional probe through a
	// hold-down is also how a recovered server gets rediscovered.
	idx := e.idxA[:0]
	for i := 0; i < n; i++ {
		if e.cfg.Infra.UsableID(pq.serverIDs[i], now) {
			idx = append(idx, int32(i))
		}
	}
	if len(idx) == 0 {
		for i := 0; i < n; i++ {
			idx = append(idx, int32(i))
		}
	} else if len(idx) < n {
		e.stats.HoldDownSkips += n - len(idx)
		e.m.holdSkips.Add(int64(n - len(idx)))
	}
	e.idxA = idx
	// After a timeout, prefer servers not yet tried for this query.
	if pq.triedCount() > 0 {
		fresh := e.idxB[:0]
		for _, i := range idx {
			if !pq.hasTried(int(i)) {
				fresh = append(fresh, i)
			}
		}
		e.idxB = fresh
		if len(fresh) > 0 {
			idx = fresh
		}
	}
	sel := e.selScratch[:0]
	for _, i := range idx {
		sel = append(sel, pq.servers[i])
	}
	e.selScratch = sel
	server := e.cfg.Policy.Select(now, sel, e.cfg.Infra, e.cfg.RNG)
	pq.upstream = server
	chosen := -1
	for j, a := range sel {
		if a == server {
			chosen = int(idx[j])
			break
		}
	}
	if chosen >= 0 {
		pq.upstreamID = pq.serverIDs[chosen]
		pq.markTried(chosen)
	} else {
		// Defensive: a policy returned an address outside the candidate
		// list. Track it by address so retry preference still works.
		pq.upstreamID = e.cfg.Infra.IDFor(server)
		pq.markTriedAddr(server)
	}
	pq.sentAt = now
	pq.attempts++

	id := e.allocateIDLocked()
	e.pending[id] = pq

	upQ := pq.upQuestion()
	if pq.minSteps != nil && pq.minIdx < len(pq.minSteps)-1 && pq.attempts == 1 {
		// First attempt of an intermediate minimization step.
		e.stats.MinimizeSteps++
		e.m.qminSteps.Inc()
	}
	upq := dnswire.NewQuery(id, upQ.Name, upQ.Type)
	upq.RecursionDesired = false
	upq.SetEDNS0(dnswire.DefaultEDNSSize, false)
	wire, err := upq.Pack()
	if err != nil {
		delete(e.pending, id)
		e.failLocked(pq)
		return
	}
	e.stats.UpstreamQueries++
	e.m.upstream.Inc()
	e.cfg.Infra.NoteQueryID(pq.upstreamID)
	e.cfg.Transport.Send(server, wire)

	// Pin the timer to this attempt: an error-rcode failover can leave
	// this timer outstanding while pq is re-registered under a fresh
	// ID, and the attempt count distinguishes the two even if the ID
	// allocator were ever to hand back the same ID.
	attempt := pq.attempts
	e.cfg.Clock.AfterFunc(e.cfg.Timeout, func() {
		e.onTimeout(id, pq, attempt)
	})
}

func (e *Engine) allocateIDLocked() uint16 {
	for {
		e.nextID++
		if _, busy := e.pending[e.nextID]; !busy {
			return e.nextID
		}
	}
}

func (e *Engine) onTimeout(id uint16, pq *pendingQuery, attempt int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	current, ok := e.pending[id]
	if !ok || current != pq || pq.done || pq.attempts != attempt {
		return // already answered or superseded by a failover
	}
	delete(e.pending, id)
	e.stats.Timeouts++
	e.m.timeouts.Inc()
	e.cfg.Infra.TimeoutID(pq.upstreamID, e.cfg.Clock.Now())
	if pq.attempts >= e.cfg.MaxRetries {
		e.failLocked(pq)
		return
	}
	e.sendUpstreamLocked(pq)
}

// failLocked terminates a pending query with SERVFAIL semantics: a
// client-facing query replies to its client; a chase child silently
// settles with its root. Callers hold e.mu.
func (e *Engine) failLocked(pq *pendingQuery) {
	pq.done = true
	if pq.root != nil {
		e.childDoneLocked(pq.root)
		return
	}
	e.stats.ServFails++
	e.m.servfails.Inc()
	e.traceDone(pq, obs.OutcomeServFail, dnswire.RCodeServFail)
	e.replyRCode(pq.clientAddr, pq.clientMsg, dnswire.RCodeServFail)
	e.settleSingleflightLocked(pq, dnswire.RCodeServFail, nil)
}

// settleSingleflightLocked removes a completed leader from the
// singleflight table and replies to every coalesced follower with the
// leader's outcome. Callers hold e.mu.
func (e *Engine) settleSingleflightLocked(pq *pendingQuery, rcode dnswire.RCode, answers []dnswire.RR) {
	if !pq.sfLeader {
		return
	}
	if e.sf[pq.sfKey] == pq {
		delete(e.sf, pq.sfKey)
	}
	for _, f := range pq.followers {
		e.replyAnswer(f.client, f.msg, rcode, answers)
	}
	pq.followers = nil
}

// childDoneLocked settles one finished child against its root and
// completes the root once the last child resolves. The chase never
// yields a usable answer for the root's question — crafted glueless
// delegations are dead ends by construction — so the root's client
// sees SERVFAIL, exactly like a real resolver that burned its fetch
// budget on an NXNS referral. Callers hold e.mu.
func (e *Engine) childDoneLocked(root *pendingQuery) {
	root.kids--
	if root.kids == 0 && !root.done {
		e.failLocked(root)
	}
}

func (e *Engine) handleUpstreamResponse(src netip.Addr, resp *dnswire.Message) {
	e.mu.Lock()
	defer e.mu.Unlock()
	pq, ok := e.pending[resp.ID]
	if !ok || pq.done {
		return
	}
	// Off-path responses with a guessed ID must not poison anything:
	// the source must match the server we actually queried.
	if src != pq.upstream {
		return
	}
	// The echoed question must match the upstream query too, or an
	// attacker who wins the ID guess could still have an unrelated
	// answer cached under the pending name. Upstream queries always go
	// out IN-class (dnswire.NewQuery), so that is what must come back.
	// Under qname minimization the question in flight is the current
	// step, not the client question.
	upQ := pq.upQuestion()
	if q, ok := resp.Question(); !ok || !q.Name.Equal(upQ.Name) ||
		q.Type != upQ.Type || q.Class != dnswire.ClassINET {
		return
	}
	delete(e.pending, resp.ID)

	now := e.cfg.Clock.Now()
	rttMs := float64(now-pq.sentAt) / float64(time.Millisecond)
	e.cfg.Infra.ObserveID(pq.upstreamID, rttMs, now)
	e.stats.UpstreamAnswers++
	e.m.answers.Inc()

	if resp.RCode == dnswire.RCodeServFail || resp.RCode == dnswire.RCodeRefused {
		// The server answered but could not serve. Real recursives
		// (BIND, Unbound) fail over to another authoritative rather
		// than relaying the error; only once every server is exhausted
		// (or the retry budget spent) does the client see SERVFAIL.
		if pq.attempts < e.cfg.MaxRetries && pq.triedCount() < len(pq.servers) {
			pq.failovers++
			e.stats.ErrorFailovers++
			e.m.failovers.Inc()
			e.sendUpstreamLocked(pq)
			return
		}
		e.failLocked(pq)
		return
	}

	if pq.minSteps != nil && pq.minIdx < len(pq.minSteps)-1 &&
		resp.RCode != dnswire.RCodeNXDomain {
		// An intermediate minimization step resolved (NoError, with or
		// without data): reveal the next label. Each step is its own
		// upstream transaction, so the retry budget and tried-set reset.
		// NXDOMAIN instead falls through to the final handling below —
		// nothing can exist under a name that does not exist (RFC
		// 8020), so the walk short-circuits with the client's answer.
		pq.minIdx++
		pq.attempts = 0
		pq.failovers = 0
		pq.triedMask = 0
		pq.triedMap = nil
		e.sendUpstreamLocked(pq)
		return
	}

	// A NoError response with no answers but NS records in the
	// authority section is a referral: chase the glueless targets
	// before answering. Benign NODATA responses carry only a SOA there
	// and fall through to negative caching.
	if resp.RCode == dnswire.RCodeNoError && len(resp.Answers) == 0 &&
		e.chaseReferralLocked(pq, resp, now) {
		return
	}
	pq.done = true

	if e.cfg.Cache != nil {
		switch {
		case resp.RCode == dnswire.RCodeNoError && len(resp.Answers) > 0:
			e.cfg.Cache.PutPositive(pq.question.Name, pq.question.Type, pq.question.Class, resp.Answers, now)
		case resp.RCode == dnswire.RCodeNXDomain || resp.RCode == dnswire.RCodeNoError:
			if !e.cfg.DisableNegCache {
				e.cfg.Cache.PutNegative(pq.question.Name, pq.question.Type, pq.question.Class,
					resp.RCode, negativeTTL(resp), now)
			}
		}
	}
	if pq.root != nil {
		// A chase child resolved (its answer, if any, is cached above);
		// settle it against the root instead of replying to a client.
		e.childDoneLocked(pq.root)
		return
	}
	e.traceDone(pq, obs.OutcomeAnswered, resp.RCode)
	e.replyAnswer(pq.clientAddr, pq.clientMsg, resp.RCode, resp.Answers)
	e.settleSingleflightLocked(pq, resp.RCode, resp.Answers)
}

// chaseReferralLocked inspects an answerless NoError response for NS
// records and, if present, fans out A-record fetches for the glueless
// targets. It returns false when the response carries no NS records
// (not a referral — the caller proceeds with normal NODATA handling).
//
// Termination is structural: targets are deduplicated per root, every
// fetch is charged to the root's budget (Config.MaxFetch, or the hard
// maxReferralFetch cap when undefended), and nested referrals spawn
// into the same root. A malicious referral chain can therefore cost at
// most budget upstream transactions, each itself bounded by
// MaxRetries, before the root's client gets SERVFAIL. Callers hold
// e.mu.
func (e *Engine) chaseReferralLocked(pq *pendingQuery, resp *dnswire.Message, now time.Duration) bool {
	hasNS := false
	for _, rr := range resp.Authority {
		if _, ok := rr.Data.(dnswire.NS); ok {
			hasNS = true
			break
		}
	}
	if !hasNS {
		return false
	}
	root := pq
	if pq.root != nil {
		root = pq.root
	}
	budget := e.cfg.MaxFetch
	if budget <= 0 {
		budget = maxReferralFetch
	}
	exhausted := false
	for _, rr := range resp.Authority {
		ns, ok := rr.Data.(dnswire.NS)
		if !ok {
			continue
		}
		key := ns.Host.Canonical()
		if root.fetched[key] {
			continue
		}
		zone := e.zoneFor(ns.Host)
		if zone < 0 || len(e.cfg.Zones[zone].Servers) == 0 {
			continue // unresolvable target: a free dead end
		}
		if e.cfg.Cache != nil {
			if _, _, hit := e.cfg.Cache.Get(ns.Host, dnswire.TypeA, dnswire.ClassINET, now); hit {
				// A cached target costs no fetch — which is why only
				// cache-busting nonce targets achieve amplification.
				if root.fetched == nil {
					root.fetched = make(map[dnswire.Name]bool)
				}
				root.fetched[key] = true
				continue
			}
		}
		if root.fetches >= budget {
			exhausted = true
			break
		}
		if root.fetched == nil {
			root.fetched = make(map[dnswire.Name]bool)
		}
		root.fetched[key] = true
		root.fetches++
		e.stats.ReferralFetches++
		e.m.refFetches.Inc()
		child := &pendingQuery{
			question:  dnswire.Question{Name: ns.Host, Type: dnswire.TypeA, Class: dnswire.ClassINET},
			servers:   e.cfg.Zones[zone].Servers,
			serverIDs: e.zoneIDs[zone],
			startedAt: now,
			root:      root,
		}
		root.kids++
		e.sendUpstreamLocked(child)
	}
	if exhausted {
		e.stats.FetchExhausted++
		e.m.refExhausted.Inc()
	}
	if pq.root != nil {
		// The referral consumed a child: settle it (after any nested
		// spawns above, so the root cannot complete prematurely).
		pq.done = true
		e.childDoneLocked(pq.root)
	} else if root.kids == 0 {
		// Nothing fetchable at all (budget spent or all dead ends):
		// the client query fails right here.
		e.failLocked(root)
	}
	return true
}

// traceDone emits a trace for a query that went upstream. Callers hold
// e.mu.
func (e *Engine) traceDone(pq *pendingQuery, outcome obs.TraceOutcome, rcode dnswire.RCode) {
	if e.cfg.Trace == nil {
		return
	}
	e.cfg.Trace.TraceQuery(obs.QueryTrace{
		Client:    pq.clientAddr,
		QName:     pq.question.Name.Key(),
		QType:     uint16(pq.question.Type),
		Outcome:   outcome,
		RCode:     uint8(rcode),
		Server:    pq.upstream,
		Attempts:  pq.attempts,
		Failovers: pq.failovers,
		Duration:  e.cfg.Clock.Now() - pq.startedAt,
	})
}

// traceLocal emits a trace for a query answered without upstream
// traffic (cache hit, CHAOS, unservable zone). Callers hold e.mu.
func (e *Engine) traceLocal(client netip.Addr, question dnswire.Question, outcome obs.TraceOutcome, rcode dnswire.RCode) {
	if e.cfg.Trace == nil {
		return
	}
	e.cfg.Trace.TraceQuery(obs.QueryTrace{
		Client:  client,
		QName:   question.Name.Key(),
		QType:   uint16(question.Type),
		Outcome: outcome,
		RCode:   uint8(rcode),
	})
}

// negativeTTL extracts the RFC 2308 negative TTL from a response's SOA.
func negativeTTL(resp *dnswire.Message) uint32 {
	for _, rr := range resp.Authority {
		if soa, ok := rr.Data.(dnswire.SOA); ok {
			ttl := rr.TTL
			if soa.Minimum < ttl {
				ttl = soa.Minimum
			}
			return ttl
		}
	}
	return 60
}

// replyAnswer sends a final response to the client. Callers hold e.mu.
func (e *Engine) replyAnswer(client netip.Addr, q *dnswire.Message, rcode dnswire.RCode, answers []dnswire.RR) {
	resp, err := dnswire.NewResponse(q)
	if err != nil {
		// No question to echo (e.g. FORMERR on a malformed query):
		// still reply with a bare header so the client learns.
		resp = &dnswire.Message{Header: dnswire.Header{
			ID: q.ID, Response: true, Opcode: q.Opcode,
			RecursionDesired: q.RecursionDesired,
		}}
	}
	resp.RecursionAvailable = true
	resp.RCode = rcode
	resp.Answers = answers
	wire, err := resp.Pack()
	if err != nil {
		return
	}
	e.cfg.Transport.Send(client, wire)
}

func (e *Engine) replyRCode(client netip.Addr, q *dnswire.Message, rcode dnswire.RCode) {
	e.replyAnswer(client, q, rcode, nil)
}

// The CHAOS-class names that ask a server for its identity.
var (
	hostnameBind = dnswire.MustParseName("hostname.bind")
	idServer     = dnswire.MustParseName("id.server")
)

// replyChaos answers CHAOS-class identity queries locally.
func (e *Engine) replyChaos(client netip.Addr, q *dnswire.Message, question dnswire.Question) {
	resp, err := dnswire.NewResponse(q)
	if err != nil {
		return
	}
	resp.RecursionAvailable = true
	if question.Type == dnswire.TypeTXT && (question.Name.Equal(hostnameBind) || question.Name.Equal(idServer)) {
		resp.Answers = []dnswire.RR{{
			Name:  question.Name,
			Class: dnswire.ClassCHAOS,
			TTL:   0,
			Data:  dnswire.TXT{Strings: []string{"resolver/" + e.cfg.Policy.Name()}},
		}}
	} else {
		resp.RCode = dnswire.RCodeRefused
	}
	wire, err := resp.Pack()
	if err != nil {
		return
	}
	e.cfg.Transport.Send(client, wire)
}
