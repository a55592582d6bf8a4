package measure

import (
	"context"
	"fmt"
	"net/netip"
	"strings"
	"time"

	"ritw/internal/atlas"
	"ritw/internal/attacks"
	"ritw/internal/authserver"
	"ritw/internal/dnswire"
	"ritw/internal/faults"
	"ritw/internal/geo"
	"ritw/internal/netsim"
	"ritw/internal/obs"
	"ritw/internal/resolver"
	"ritw/internal/simbind"
	"ritw/internal/zone"
)

// QueryRecord is one probe query as seen at the client (the RIPE Atlas
// result analogue).
type QueryRecord struct {
	// ProbeID identifies the probe.
	ProbeID int
	// Resolver is the recursive the probe asked (the configured
	// address: the anycast address for public DNS).
	Resolver netip.Addr
	// VPKey is the (probe, recursive) pair identity the paper uses as
	// its vantage-point unit.
	VPKey string
	// Continent groups the VP for Table-2-style analysis.
	Continent geo.Continent
	// Seq is the probe's query sequence number (0-based).
	Seq int
	// SentAt is the virtual send time.
	SentAt time.Duration
	// RTTms is the client-observed response time.
	RTTms float64
	// Site is the authoritative site that served the answer, decoded
	// from the per-site TXT ("" on failure).
	Site string
	// OK reports whether an answer arrived before the client timeout.
	OK bool
}

// AuthRecord is one query as seen at an authoritative site (the
// server-side capture used for the middlebox comparison).
type AuthRecord struct {
	Site  string
	Src   netip.Addr // the recursive's egress address
	QName string
	At    time.Duration
}

// Dataset is the output of one measurement run.
type Dataset struct {
	ComboID  string
	Sites    []string
	Interval time.Duration
	Duration time.Duration
	// Records are client-side observations, in completion order.
	Records []QueryRecord
	// AuthRecords are server-side observations.
	AuthRecords []AuthRecord
	// ActiveProbes is the number of probes that participated (after
	// churn), the Table-1 "VPs" column analogue.
	ActiveProbes int
	// SiteAddr maps site code to its authoritative address.
	SiteAddr map[string]netip.Addr
	// Faults is the injector's post-run account (nil when the run had
	// no fault schedule): fault-dropped packets per site per bucket,
	// totals, and the schedule's down/up transitions.
	Faults *faults.Report
	// Attacks is the attack ledger (nil when the run had no attack
	// schedule): per-campaign attacker packets in versus victim packets
	// out, merged across lanes — the amplification evidence.
	Attacks *attacks.Report
}

// RunConfig parameterizes one measurement run.
type RunConfig struct {
	// Combo is the authoritative deployment (one of Table1()).
	Combo Combination
	// Interval between a probe's queries (paper default: 2 minutes;
	// Figure 6 sweeps 5/10/15/20/30).
	Interval time.Duration
	// Duration of the measurement (paper: 1 hour).
	Duration time.Duration
	// Seed drives all randomness.
	Seed int64
	// Population configures the vantage-point synthesis. Zero value
	// gets atlas.DefaultConfig(Seed).
	Population atlas.Config
	// ChurnRate is the per-run probe unavailability (Table 1 sees
	// ~8,700 of ~9,700 probes per run).
	ChurnRate float64
	// LossRate is network-wide packet loss.
	LossRate float64
	// ClientTimeout is the probe's give-up time per query.
	ClientTimeout time.Duration
	// IPv6Subset restricts the run to IPv6-capable probes (the §3.1
	// IPv6 validation).
	IPv6Subset bool
	// PathModel overrides the latency model (nil = geo.DefaultPathModel),
	// used by the jitter-scaling ablation.
	PathModel *geo.PathModel
	// Faults, if set, is the fault schedule for the run: site outages
	// (the §7 "Other Considerations" scenario — a DDoS or failure at one
	// site — that motivates multiple authoritatives), flapping, loss
	// bursts, latency inflation and partial partitions, possibly
	// overlapping across sites, all consulted per packet and
	// reproducible from the run seed (the injector draws from its own
	// Seed+7 stream, so a fault-free schedule leaves the dataset
	// byte-identical to a run without one).
	Faults *faults.Schedule
	// Attacks, if set, is the adversarial traffic schedule: NXNS
	// delegation amplification, water-torture floods and spoofed-source
	// reflection, compiled onto the run's own Seed+11 keyed stream. An
	// empty (or nil) schedule leaves the dataset byte-identical to a
	// run without one, and an attacked run keeps the full determinism
	// contract at any shard count.
	Attacks *attacks.Schedule
	// Defense is the resolver-side defense matrix (MaxFetch referral
	// budget, negative-cache toggle) applied to every resolver in the
	// population. The zero value is the RFC-faithful default.
	Defense attacks.Defenses
	// Backoff overrides the resolver population's hold-down policy
	// (nil keeps resolver.DefaultBackoff; see BackoffConfig.Disabled
	// for the pre-hardening full-rate retry behaviour).
	Backoff *resolver.BackoffConfig
	// Mix, if non-empty, overrides every resolver's behaviour for this
	// run: kind, infra-cache TTL/retention, and the singleflight /
	// qname-minimization engine toggles all re-draw from this share
	// table on an entity-keyed stream (Seed+13, keyed by the resolver's
	// stable population name — see netsim.MixKey and atlas.ShareAt).
	// The assignment is a pure function of (Seed, Mix, name): it never
	// consumes population or network randomness, so the topology,
	// address plan and every other seeded stream are untouched, and it
	// is layout-independent — mixed-fleet datasets stay byte-identical
	// at any Shards value. Public anycast sites
	// skip Sticky draws, mirroring the population synthesizer. nil
	// keeps the population's own per-resolver kinds (atlas.Config.Mix).
	Mix []atlas.PolicyShare
	// Metrics, if set, aggregates obs counters from the simulator, the
	// authoritative engines and the resolver population. Counters are
	// additive, so concurrent runs may share one registry; per-address
	// SRTT gauges are deliberately NOT wired here (replicas reuse the
	// same simulated address plan, which would make them last-write-
	// wins noise — see resolver.InfraCache.SetMetrics). Purely
	// observational: datasets stay byte-identical for a given seed.
	Metrics *obs.Registry
	// Sink, if set, receives every QueryRecord and AuthRecord the
	// moment it completes, and the returned Dataset then carries only
	// the run summary (combo, sites, interval, duration, active probes,
	// site addresses, fault and attack reports): memory is bounded by
	// the sink's state instead of the record count. With a nil Sink the
	// returned Dataset is the sink and holds every record. The run owns
	// the sink and closes it once the simulation finishes — also on
	// error, so writer sinks always flush.
	Sink Sink
	// Shards splits the vantage-point population into that many
	// independent simulation lanes run concurrently (0 or 1 = one
	// lane). Partitioning follows resolver closures — a probe lands in
	// the same shard as every resolver it can use — and all randomness
	// is keyed to stable entity identities, so the dataset is
	// byte-identical at any shard count, including 1. Shards trade
	// memory (per-shard worlds) for wall-clock time; see DESIGN.md §8.4.
	Shards int
	// Snapshot, if set, checkpoints the merge frontier to
	// Snapshot.Path at instant boundaries and — with Snapshot.Resume —
	// verifies and skips a previously-checkpointed prefix, so
	// interrupted campaigns restart from the last checkpoint instead of
	// from zero. See SnapshotSpec.
	Snapshot *SnapshotSpec
	// Scheduler has one value and is kept only for bench/sim.go's assignment to it.
	Scheduler netsim.SchedulerKind
}

// DefaultRunConfig returns the paper's standard setup for a combo.
func DefaultRunConfig(combo Combination, seed int64) RunConfig {
	return RunConfig{
		Combo:         combo,
		Interval:      2 * time.Minute,
		Duration:      time.Hour,
		Seed:          seed,
		Population:    atlas.DefaultConfig(seed),
		ChurnRate:     0.10,
		LossRate:      0.003,
		ClientTimeout: 4 * time.Second,
	}
}

// Run executes one measurement and returns the dataset. The run is
// fully deterministic for a given config. It is the context-free
// wrapper around RunContext for callers that never cancel.
func Run(cfg RunConfig) (*Dataset, error) {
	return RunContext(context.Background(), cfg)
}

// RunStreamContext is RunContext with cfg.Sink set to sink.
func RunStreamContext(ctx context.Context, cfg RunConfig, sink Sink) (*Dataset, error) {
	cfg.Sink = sink
	return RunContext(ctx, cfg)
}

// RunContext executes one measurement and returns the dataset. The
// virtual-time simulation checks ctx between event batches, so a
// cancelled context abandons the run promptly with ctx.Err(). The
// dataset is fully deterministic for a given config — independent of
// wall-clock timing, of how many runs execute concurrently, and of
// cfg.Shards: a sharded run emits the exact byte sequence the
// single-lane run would (the contract TestShardedMatchesSequential
// pins; the machinery lives in shard.go).
func RunContext(ctx context.Context, cfg RunConfig) (*Dataset, error) {
	if len(cfg.Combo.Sites) == 0 {
		return nil, fmt.Errorf("measure: combination has no sites")
	}
	if cfg.Interval <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("measure: interval and duration must be positive")
	}
	if cfg.ClientTimeout <= 0 {
		cfg.ClientTimeout = 4 * time.Second
	}
	popCfg := cfg.Population
	if popCfg.NumProbes == 0 {
		popCfg = atlas.DefaultConfig(cfg.Seed)
	}
	pop, err := atlas.Generate(popCfg)
	if err != nil {
		return nil, err
	}

	model := geo.DefaultPathModel()
	if cfg.PathModel != nil {
		model = *cfg.PathModel
	}

	ds := &Dataset{
		ComboID:  cfg.Combo.ID,
		Sites:    append([]string(nil), cfg.Combo.Sites...),
		Interval: cfg.Interval,
		Duration: cfg.Duration,
	}
	sink := streamTarget(ds, cfg.Sink)
	emit, emitAuth := instrumentedEmit(sink, cfg.Metrics)

	// Validate the schedules up front; each shard compiles them into
	// its per-packet injector once addresses are planned.
	if err := cfg.Faults.Validate(); err != nil {
		sink.Close()
		return nil, err
	}
	if err := cfg.Attacks.Validate(); err != nil {
		sink.Close()
		return nil, err
	}

	nShards := cfg.Shards
	if nShards < 1 {
		nShards = 1
	}
	pl := planRun(cfg, pop, model, nShards)
	pl.popCfg = popCfg
	ds.SiteAddr = pl.siteAddr
	ds.ActiveProbes = len(pl.active)

	rep, atkRep, err := runShards(ctx, cfg, pl, emit, emitAuth, cfg.Metrics)
	if err != nil {
		sink.Close()
		return nil, err
	}
	ds.Faults = rep
	ds.Attacks = atkRep
	return ds, finishSink(sink, ds.meta())
}

// streamTarget picks where a run's records go: the configured sink, or
// the dataset itself when there is none.
func streamTarget(ds *Dataset, sink Sink) Sink {
	if sink == nil {
		return ds
	}
	return sink
}

// instrumentedEmit wraps the sink's methods with the streamed-record
// counters. With a nil registry the counters are no-ops.
func instrumentedEmit(sink Sink, reg *obs.Registry) (func(QueryRecord), func(AuthRecord)) {
	queries := reg.Counter("measure_records_streamed_total")
	auths := reg.Counter("measure_auth_records_streamed_total")
	return func(r QueryRecord) {
			queries.Inc()
			sink.OnQuery(r)
		}, func(a AuthRecord) {
			auths.Inc()
			sink.OnAuth(a)
		}
}

// finishSink delivers the run summary to meta-aware sinks and closes.
func finishSink(sink Sink, m Meta) error {
	if ms, ok := sink.(MetaSink); ok {
		ms.OnMeta(m)
	}
	if err := sink.Close(); err != nil {
		return fmt.Errorf("measure: closing sink: %w", err)
	}
	return nil
}

// buildAuthSites deploys one authoritative per combination site and
// streams the server-side capture through onAuth. A site whose code is
// already present in siteAddr is placed at that planned address (the
// sharded path, where every shard must agree on the plan); otherwise
// the address is allocated and recorded in siteAddr.
func buildAuthSites(sim *netsim.Simulator, net *netsim.Network, combo Combination, siteAddr map[string]netip.Addr, onAuth func(AuthRecord), metrics *obs.Registry) ([]netip.Addr, map[string]*netsim.Host, error) {
	authAddrs := make([]netip.Addr, 0, len(combo.Sites))
	authHosts := make(map[string]*netsim.Host, len(combo.Sites))
	for _, code := range combo.Sites {
		site, err := geo.SiteByCode(code)
		if err != nil {
			return nil, nil, err
		}
		z, err := zone.ParseString(ZoneText(combo, code), dnswire.Root)
		if err != nil {
			return nil, nil, fmt.Errorf("measure: building zone for %s: %w", code, err)
		}
		var host *netsim.Host
		if addr, planned := siteAddr[code]; planned {
			host = net.AddHostAddr(addr, site.Coord)
		} else {
			host = net.AddHost(site.Coord)
		}
		code := code
		eng := authserver.NewEngine(authserver.Config{
			Zones:    []*zone.Zone{z},
			Identity: strings.ToLower(code) + "." + TestDomain.String(),
			OnQuery: func(qi authserver.QueryInfo) {
				onAuth(AuthRecord{
					Site:  code,
					Src:   qi.Src,
					QName: qi.Question.Name.Key(),
					At:    sim.Now(),
				})
			},
			Metrics: metrics,
		})
		simbind.BindAuth(host, eng)
		authAddrs = append(authAddrs, host.Addr)
		authHosts[code] = host
		siteAddr[code] = host.Addr
	}
	return authAddrs, authHosts, nil
}
