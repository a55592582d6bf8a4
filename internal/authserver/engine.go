// Package authserver implements the authoritative DNS server used as
// the paper's measurement instrument (the role NSD 4.1.7 played on the
// AWS deployments). Each instance serves one or more zones, answers
// CHAOS identity queries with its site identity, and exposes per-query
// instrumentation so experiments can observe traffic from the
// authoritative side, as the paper does for its middlebox check.
//
// The core Engine is a pure request→response function, so the same
// code serves simulated datagrams (internal/netsim) and real UDP/TCP
// sockets (Server in this package, cmd/authd).
package authserver

import (
	"net/netip"
	"sync"
	"time"

	"ritw/internal/dnswire"
	"ritw/internal/obs"
	"ritw/internal/zone"
)

// QueryInfo describes one handled query for instrumentation.
type QueryInfo struct {
	Src      netip.Addr
	Question dnswire.Question
	RCode    dnswire.RCode
}

// Stats aggregates server activity.
type Stats struct {
	Queries     int
	Responses   int
	ByType      map[dnswire.Type]int
	ByRCode     map[dnswire.RCode]int
	Chaos       int
	Dropped     int
	RateLimited int
}

// Config assembles an Engine.
type Config struct {
	// Zones this server is authoritative for. The zones must not be
	// mutated once the engine serves: answer construction reads them
	// without locking so concurrent UDP workers can resolve in
	// parallel.
	Zones []*zone.Zone
	// Identity is the site identity string answered for CHAOS
	// hostname.bind / id.server queries (e.g. "fra1.ourtestdomain.nl").
	Identity string
	// OnQuery, if set, observes every valid query (for measurement
	// capture at the authoritative side).
	OnQuery func(QueryInfo)
	// OnNotify, if set, receives RFC 1996 NOTIFY messages (a secondary
	// wires this to its refresh trigger). Without it, NOTIFY gets
	// NOTIMP like any other unsupported opcode.
	OnNotify func(origin dnswire.Name, src netip.Addr)
	// RRL enables response rate limiting. It requires Now.
	RRL *RRLConfig
	// Now supplies time for rate limiting (virtual in the simulator,
	// wall-clock in socket servers). Required when RRL is set.
	Now func() time.Duration
	// Metrics, if set, registers the engine's counters and a per-site
	// response-latency histogram there. Counters are additive, so many
	// engines (one per simulated site) may share a registry.
	Metrics *obs.Registry
}

// latencyBoundsUs are the response-latency histogram buckets in
// microseconds: serving is single-digit µs in-process, up to tens of
// ms through the OS stack under load.
var latencyBoundsUs = []float64{1, 2, 5, 10, 25, 50, 100, 250, 1000, 5000, 25000}

// authMetrics caches obs instruments so the serving path touches only
// atomics (all fields stay nil — no-ops — without a registry).
type authMetrics struct {
	queries   *obs.Counter
	responses *obs.Counter
	dropped   *obs.Counter
	chaos     *obs.Counter
	rrlSend   *obs.Counter
	rrlSlip   *obs.Counter
	rrlDrop   *obs.Counter
	// rcodes is indexed by RCode for the standard codes; anything
	// higher lands in rcodeHigh.
	rcodes    [6]*obs.Counter
	rcodeHigh *obs.Counter
	latency   *obs.Histogram
}

func newAuthMetrics(r *obs.Registry, identity string) authMetrics {
	m := authMetrics{
		queries:   r.Counter("authserver_queries_total"),
		responses: r.Counter("authserver_responses_total"),
		dropped:   r.Counter("authserver_dropped_total"),
		chaos:     r.Counter("authserver_chaos_total"),
		rrlSend:   r.Counter(`authserver_rrl_total{action="send"}`),
		rrlSlip:   r.Counter(`authserver_rrl_total{action="slip"}`),
		rrlDrop:   r.Counter(`authserver_rrl_total{action="drop"}`),
		rcodeHigh: r.Counter(obs.LabelName("authserver_rcode_total", "rcode", "OTHER")),
	}
	for rc := range m.rcodes {
		m.rcodes[rc] = r.Counter(obs.LabelName("authserver_rcode_total", "rcode", dnswire.RCode(rc).String()))
	}
	name := "authserver_response_latency_us"
	if identity != "" {
		name = obs.LabelName(name, "site", identity)
	}
	m.latency = r.Histogram(name, latencyBoundsUs)
	return m
}

func (m *authMetrics) rcode(rc dnswire.RCode) *obs.Counter {
	if int(rc) < len(m.rcodes) {
		return m.rcodes[rc]
	}
	return m.rcodeHigh
}

// Engine answers DNS queries authoritatively.
type Engine struct {
	mu    sync.Mutex
	cfg   Config
	rrl   *rrlState
	stats Stats
	// Per-type / per-rcode tallies live in fixed arrays so the per-query
	// critical section does no map work (a map increment hashes and may
	// grow under the lock — measurable at simulated 10M-VP scale). The
	// common DNS types fit in a byte and real rcodes in a nibble; rare
	// out-of-range values spill to lazily made maps. Stats() folds both
	// back into the public map form.
	byType     [256]int
	byTypeHi   map[dnswire.Type]int
	byRCode    [16]int
	byRCodeHi  map[dnswire.RCode]int
	typeKinds  int // number of non-zero byType entries, sizes the snapshot map
	rcodeKinds int
	m          authMetrics
}

// NewEngine builds an authoritative engine. It panics if RRL is
// configured without a time source — a static misconfiguration.
func NewEngine(cfg Config) *Engine {
	e := &Engine{
		cfg: cfg,
		m:   newAuthMetrics(cfg.Metrics, cfg.Identity),
	}
	if cfg.RRL != nil {
		if cfg.Now == nil {
			panic("authserver: RRL requires Config.Now")
		}
		e.rrl = newRRL(*cfg.RRL)
	}
	return e
}

func (e *Engine) countTypeLocked(t dnswire.Type) {
	if int(t) < len(e.byType) {
		if e.byType[t] == 0 {
			e.typeKinds++
		}
		e.byType[t]++
		return
	}
	if e.byTypeHi == nil {
		e.byTypeHi = make(map[dnswire.Type]int)
	}
	e.byTypeHi[t]++
}

func (e *Engine) countRCodeLocked(rc dnswire.RCode) {
	if int(rc) < len(e.byRCode) {
		if e.byRCode[rc] == 0 {
			e.rcodeKinds++
		}
		e.byRCode[rc]++
		return
	}
	if e.byRCodeHi == nil {
		e.byRCodeHi = make(map[dnswire.RCode]int)
	}
	e.byRCodeHi[rc]++
}

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	st.ByType = make(map[dnswire.Type]int, e.typeKinds+len(e.byTypeHi))
	for t, v := range e.byType {
		if v != 0 {
			st.ByType[dnswire.Type(t)] = v
		}
	}
	for t, v := range e.byTypeHi {
		st.ByType[t] = v
	}
	st.ByRCode = make(map[dnswire.RCode]int, e.rcodeKinds+len(e.byRCodeHi))
	for rc, v := range e.byRCode {
		if v != 0 {
			st.ByRCode[dnswire.RCode(rc)] = v
		}
	}
	for rc, v := range e.byRCodeHi {
		st.ByRCode[rc] = v
	}
	return st
}

// Identity returns the configured site identity.
func (e *Engine) Identity() string { return e.cfg.Identity }

// HandleQuery processes one wire-format query from src and returns the
// wire-format response, or nil when the input must be dropped
// (garbage, or a response packet — servers never answer responses).
// maxUDP is the size limit for the response (0 means the classic 512);
// responses that do not fit are truncated with TC set.
//
// It allocates a fresh response per call; hot paths that can recycle
// buffers (the socket server's pooled workers, the simulator binding)
// use AppendQuery instead.
func (e *Engine) HandleQuery(src netip.Addr, payload []byte, maxUDP int) []byte {
	out := e.AppendQuery(nil, src, payload, maxUDP)
	if len(out) == 0 {
		return nil
	}
	return out
}

// AppendQuery is the allocation-free form of HandleQuery: the response
// is appended to dst (typically a pooled buffer sliced to length zero)
// and the extended slice returned. A dropped query returns dst
// unchanged, so callers detect output with len(out) > len(dst).
//
// Parsing, zone lookup and wire encoding run outside the engine lock —
// zones are immutable while serving — so N socket workers resolve
// concurrently; only counters, the instrumentation callbacks and the
// rate limiter share a short critical section, keeping OnQuery and
// OnNotify serialized as their users expect.
func (e *Engine) AppendQuery(dst []byte, src netip.Addr, payload []byte, maxUDP int) []byte {
	// The latency histogram needs a start timestamp; skip the clock
	// read entirely when metrics are off so the bare path is unchanged.
	var start time.Time
	if e.m.latency != nil {
		start = time.Now()
	}
	query, err := dnswire.Unpack(payload)
	if err != nil || query.Response {
		e.m.dropped.Inc()
		e.mu.Lock()
		e.stats.Dropped++
		e.mu.Unlock()
		return dst
	}

	resp, err := dnswire.NewResponse(query)
	if err != nil {
		// No question: FORMERR with a bare header.
		e.m.queries.Inc()
		e.m.dropped.Inc()
		e.mu.Lock()
		e.stats.Queries++
		e.stats.Dropped++
		e.mu.Unlock()
		bare := &dnswire.Message{Header: dnswire.Header{
			ID: query.ID, Response: true, Opcode: query.Opcode, RCode: dnswire.RCodeFormErr,
		}}
		out, err := bare.AppendPack(dst)
		if err != nil {
			return dst
		}
		return out
	}
	q := resp.Questions[0]

	// Respect the client's EDNS0 advertised size, echoing the DO bit
	// (RFC 6891 §6.1.3-6.1.4: the responder's OPT carries its own
	// payload size, and DO must be copied so a security-aware client
	// knows DNSSEC records were considered). A positive maxUDP is a
	// hard transport limit — TCP's 64 KiB framing — that the OPT
	// neither raises nor lowers; maxUDP <= 0 means UDP, where the
	// advertised size bounds the datagram in *both* directions,
	// floored at the classic 512 so a buggy advertisement below the
	// RFC minimum cannot force-truncate everything.
	if opt, ok := query.OPT(); ok {
		resp.SetEDNS0(dnswire.DefaultEDNSSize, opt.DNSSECOK)
		if maxUDP <= 0 {
			maxUDP = int(opt.UDPSize)
			if maxUDP < dnswire.MaxUDPSize {
				maxUDP = dnswire.MaxUDPSize
			}
		}
	}
	if maxUDP <= 0 {
		maxUDP = dnswire.MaxUDPSize
	}

	notify := query.Opcode == dnswire.OpcodeNotify && e.cfg.OnNotify != nil
	servedChaos := false
	switch {
	case notify:
		// Acknowledge; the refresh trigger fires under the lock below
		// (RFC 1996).
		resp.Authoritative = true
	case query.Opcode != dnswire.OpcodeQuery:
		resp.RCode = dnswire.RCodeNotImp
	case q.Class == dnswire.ClassCHAOS:
		servedChaos = e.answerChaos(resp, q)
	default:
		e.answerAuthoritative(resp, q)
	}

	e.m.queries.Inc()
	e.m.rcode(resp.RCode).Inc()
	if servedChaos {
		e.m.chaos.Inc()
	}
	action := rrlSend
	e.mu.Lock()
	e.stats.Queries++
	e.countTypeLocked(q.Type)
	if servedChaos {
		e.stats.Chaos++
	}
	e.countRCodeLocked(resp.RCode)
	if notify {
		e.cfg.OnNotify(q.Name, src)
	}
	if e.cfg.OnQuery != nil {
		e.cfg.OnQuery(QueryInfo{Src: src, Question: q, RCode: resp.RCode})
	}
	if e.rrl != nil {
		action = e.rrl.check(src, e.cfg.Now())
		if action != rrlSend {
			e.stats.RateLimited++
		}
	}
	e.mu.Unlock()

	switch action {
	case rrlDrop:
		e.m.rrlDrop.Inc()
		return dst
	case rrlSlip:
		e.m.rrlSlip.Inc()
		if out := appendSlip(dst, query); len(out) > len(dst) {
			e.countResponse(start)
			return out
		}
		return dst
	}
	if e.rrl != nil {
		e.m.rrlSend.Inc()
	}

	out, err := resp.AppendPack(dst)
	if err != nil {
		return dst
	}
	if len(out)-len(dst) > maxUDP {
		out = appendTruncate(dst, resp, maxUDP)
	}
	if len(out) > len(dst) {
		e.countResponse(start)
	}
	return out
}

// countResponse bumps the response counter once a reply is emitted.
func (e *Engine) countResponse(start time.Time) {
	e.m.responses.Inc()
	if e.m.latency != nil {
		e.m.latency.Observe(float64(time.Since(start).Nanoseconds()) / 1e3)
	}
	e.mu.Lock()
	e.stats.Responses++
	e.mu.Unlock()
}

// The CHAOS-class names that ask a server for its identity.
var (
	hostnameBind = dnswire.MustParseName("hostname.bind")
	idServer     = dnswire.MustParseName("id.server")
)

// answerChaos serves hostname.bind / id.server from the site identity
// and reports whether it did (the caller counts it under the lock).
// The paper's measurement deliberately avoids CHAOS (a recursive
// answers it itself); we serve it so the contrast is demonstrable.
func (e *Engine) answerChaos(resp *dnswire.Message, q dnswire.Question) bool {
	if q.Type == dnswire.TypeTXT && (q.Name.Equal(hostnameBind) || q.Name.Equal(idServer)) && e.cfg.Identity != "" {
		resp.Authoritative = true
		resp.Answers = []dnswire.RR{{
			Name:  q.Name,
			Class: dnswire.ClassCHAOS,
			TTL:   0,
			Data:  dnswire.TXT{Strings: []string{e.cfg.Identity}},
		}}
		return true
	}
	resp.RCode = dnswire.RCodeRefused
	return false
}

// answerAuthoritative resolves an Internet-class question against the
// configured zones.
func (e *Engine) answerAuthoritative(resp *dnswire.Message, q dnswire.Question) {
	z := e.zoneFor(q.Name)
	if z == nil {
		resp.RCode = dnswire.RCodeRefused
		return
	}
	resp.Authoritative = true
	res := z.Lookup(q.Name, q.Type)
	switch res.Kind {
	case zone.Success:
		resp.Answers = res.Records
		resp.Authority = res.Authority
		e.addGlue(resp, z)
	case zone.NoData:
		resp.Authority = res.Authority
	case zone.NXDomain:
		resp.RCode = dnswire.RCodeNXDomain
		resp.Authority = res.Authority
	case zone.Delegation:
		resp.Authority = res.Authority
	}
}

// Zone returns the configured zone whose origin is the longest suffix
// of qname, for callers that need direct zone access (zone transfer).
// Zones are immutable while serving, so no lock is needed.
func (e *Engine) Zone(qname dnswire.Name) (*zone.Zone, bool) {
	z := e.zoneFor(qname)
	return z, z != nil
}

// zoneFor returns the zone with the longest origin matching qname.
func (e *Engine) zoneFor(qname dnswire.Name) *zone.Zone {
	var best *zone.Zone
	bestLabels := -1
	for _, z := range e.cfg.Zones {
		if qname.IsSubdomainOf(z.Origin()) && z.Origin().NumLabels() > bestLabels {
			best = z
			bestLabels = z.Origin().NumLabels()
		}
	}
	return best
}

// addGlue fills the additional section with addresses for NS targets
// named in the authority section.
func (e *Engine) addGlue(resp *dnswire.Message, z *zone.Zone) {
	seen := make(map[dnswire.Name]bool)
	for _, rr := range resp.Authority {
		ns, ok := rr.Data.(dnswire.NS)
		if !ok {
			continue
		}
		host := ns.Host.Canonical()
		if seen[host] {
			continue
		}
		seen[host] = true
		for _, typ := range []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA} {
			res := z.Lookup(ns.Host, typ)
			if res.Kind == zone.Success {
				resp.Additional = append(resp.Additional, res.Records...)
			}
		}
	}
}

// appendTruncate rebuilds the response at the end of dst with TC set
// and sections emptied until it fits maxUDP, per RFC 2181 §9. It
// returns dst unchanged when nothing fits (the reply is dropped).
func appendTruncate(dst []byte, resp *dnswire.Message, maxUDP int) []byte {
	resp.Truncated = true
	resp.Additional = nil
	for {
		out, err := resp.AppendPack(dst)
		if err != nil {
			return dst
		}
		if len(out)-len(dst) <= maxUDP {
			return out
		}
		switch {
		case len(resp.Answers) > 0:
			resp.Answers = resp.Answers[:len(resp.Answers)-1]
		case len(resp.Authority) > 0:
			resp.Authority = resp.Authority[:len(resp.Authority)-1]
		default:
			return dst // cannot shrink further; drop
		}
	}
}
