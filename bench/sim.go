//go:build linux

package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"ritw/internal/analysis"
	"ritw/internal/atlas"
	"ritw/internal/attacks"
	"ritw/internal/faults"
	"ritw/internal/measure"
	"ritw/internal/netsim"
	"ritw/internal/obs"
	"ritw/internal/stats"
)

// simWorkload is one configuration of the simulated measurement hour.
type simWorkload struct {
	name  string
	combo string
	// probes is the vantage-point population of one repetition. The
	// paper's 9,700 takes 7 s a repetition on the 2-core reference
	// host, which leaves no room for repetitions in a ten-second run;
	// a quarter of it costs the same per operation (-probes overrides).
	probes int
	// repCost is what one repetition costs on the 2-core reference
	// host, in seconds. The repetition count is -seconds over this, not
	// a timed loop, so that a seed always means the same inputs.
	repCost float64
	// adverse adds the fault and attack schedules, the fleet mix and
	// one lane per core.
	adverse bool
}

var simWorkloads = []simWorkload{
	{name: "sim-hour", combo: "2B", probes: 2500, repCost: 1.65},
	{name: "sim-adverse", combo: "4B", probes: 625, repCost: 1.25, adverse: true},
}

const minute = time.Minute

// populationSeed fixes who the vantage points and their recursives are,
// as the paper's probes were the same across its measurements; the
// run's seed drives everything that happens to them (churn, loss,
// jitter, every resolver's choices). A population redrawn per seed
// would move the simulated tail latency by more than any change could.
const populationSeed = 2017

// The Figure 4 bands sim-hour must land in: the share of vantage points
// sending at least 60% (weak) and 90% (strong) of their queries to one
// site of 2B. The paper's population puts weak preference at 59-69%; at
// a quarter of that population the share moves by a tenth from seed to
// seed (0.50-0.63 over the seeds tried), so the lower edge leaves room.
const (
	weakLo, weakHi     = 0.40, 0.80
	strongLo, strongHi = 0.05, 0.40
)

// config builds the run for one repetition.
func (w simWorkload) config(seed int64, probes, shards int) measure.RunConfig {
	combo, err := measure.CombinationByID(w.combo)
	if err != nil {
		panic(err) // the combos above are Table-1 constants
	}
	cfg := measure.DefaultRunConfig(combo, seed)
	cfg.Population = atlas.DefaultConfig(populationSeed)
	cfg.Population.NumProbes = probes
	cfg.Shards = shards
	cfg.Scheduler = netsim.SchedHeap
	if !w.adverse {
		return cfg
	}
	cfg.Mix = atlas.PaperMix()
	cfg.Faults = &faults.Schedule{
		Outages:   []faults.Outage{{Site: "FRA", Start: 15 * minute, End: 35 * minute}},
		Flaps:     []faults.Flap{{Site: "DUB", Start: 40 * minute, End: 50 * minute, Period: 2 * minute, DownFrac: 0.5}},
		Bursts:    []faults.LossBurst{{Site: "IAD", Start: 20 * minute, End: 40 * minute, Rate: 0.25}},
		Slowdowns: []faults.Slowdown{{Site: "SFO", Start: 10 * minute, End: 50 * minute, AddRTT: 150 * time.Millisecond}},
	}
	cfg.Attacks = &attacks.Schedule{
		NXNS:   []attacks.NXNS{{Start: 20 * minute, End: 40 * minute, Interval: 10 * time.Second, Fraction: 0.2, Fanout: 10}},
		Floods: []attacks.Flood{{Start: 20 * minute, End: 40 * minute, Interval: 5 * time.Second, Fraction: 0.3, Names: 40}},
	}
	cfg.Defense = attacks.Defenses{MaxFetch: 2}
	return cfg
}

// lanes is the shard count the workload runs with.
func (w simWorkload) lanes() int {
	if w.adverse {
		return len(hostCPUs)
	}
	return 1
}

// simSink sits between the run and the aggregator: it counts
// operations, digests the record stream so repetitions can be compared
// byte for byte, and keeps the client-side latencies.
type simSink struct {
	agg     *analysis.Aggregator
	digest  uint64
	ops     int // queries arriving at an authoritative
	clients int
	lost    int       // client queries with no answer inside the timeout
	rttMs   []float64 // answered client queries

	// Tracing only: every sampleEvery-th call into the aggregator is
	// timed and becomes a span, and the first keep client records are
	// kept for the layer calls.
	tr     *tracer
	parent int
	calls  int
	inAgg  time.Duration // over the sampled calls
	kept   []measure.QueryRecord
}

const (
	sampleEvery = 64
	keepRecords = 20000
	fnvOffset   = 14695981039346656037
	fnvPrime    = 1099511628211
)

func (s *simSink) word(v uint64) { s.digest = (s.digest ^ v) * fnvPrime }

func (s *simSink) str(v string) {
	for i := 0; i < len(v); i++ {
		s.digest = (s.digest ^ uint64(v[i])) * fnvPrime
	}
	s.word(uint64(len(v)))
}

// timedCall runs fn, timing one call in sampleEvery when tracing.
func (s *simSink) timedCall(name string, fn func()) {
	s.calls++
	if s.tr == nil || s.calls%sampleEvery != 0 {
		fn()
		return
	}
	begin := time.Now()
	fn()
	end := time.Now()
	s.inAgg += end.Sub(begin)
	if s.calls%(sampleEvery*64) == 0 {
		s.tr.add(s.parent, name, begin, end)
	}
}

func (s *simSink) OnQuery(r measure.QueryRecord) {
	s.clients++
	if r.OK {
		s.rttMs = append(s.rttMs, r.RTTms)
	} else {
		s.lost++
	}
	a16 := r.Resolver.As16()
	for i := 0; i < 16; i += 8 {
		s.word(uint64(a16[i]) | uint64(a16[i+1])<<8 | uint64(a16[i+2])<<16 | uint64(a16[i+3])<<24 |
			uint64(a16[i+4])<<32 | uint64(a16[i+5])<<40 | uint64(a16[i+6])<<48 | uint64(a16[i+7])<<56)
	}
	s.word(uint64(r.ProbeID))
	s.str(r.VPKey)
	s.word(uint64(r.Continent))
	s.word(uint64(r.Seq))
	s.word(uint64(r.SentAt))
	s.word(math.Float64bits(r.RTTms))
	s.str(r.Site)
	if r.OK {
		s.word(1)
	}
	if s.tr != nil && len(s.kept) < keepRecords {
		s.kept = append(s.kept, r)
	}
	s.timedCall("sink OnQuery", func() { s.agg.OnQuery(r) })
}

func (s *simSink) OnAuth(a measure.AuthRecord) {
	s.ops++
	s.str(a.Site)
	s.str(a.Src.String())
	s.str(a.QName)
	s.word(uint64(a.At))
	s.timedCall("sink OnAuth", func() { s.agg.OnAuth(a) })
}

func (s *simSink) Close() error { return s.agg.Close() }

// repetition is one run of the simulated hour and what it cost.
type repetition struct {
	sink    *simSink
	ds      *measure.Dataset
	wall    time.Duration
	cpuUs   float64
	mallocs uint64
	bytes   uint64
	gc      uint32
	pauseNs uint64
	heapSys uint64
}

// run executes one repetition. reg and tr are nil outside traced runs.
func (w simWorkload) run(seed int64, probes, shards int, reg *obs.Registry, tr *tracer, parent int) (*repetition, error) {
	cfg := w.config(seed, probes, shards)
	cfg.Metrics = reg
	sink := &simSink{
		agg:    analysis.NewAggregator(analysis.AggConfig{ComboID: cfg.Combo.ID, Sites: cfg.Combo.Sites, Duration: cfg.Duration}),
		digest: fnvOffset,
		rttMs:  make([]float64, 0, probes*int(cfg.Duration/cfg.Interval)),
		tr:     tr,
		parent: parent,
	}
	runtime.GC() // every repetition starts from a collected heap
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, begin := selfCPUUs(), time.Now()
	ds, err := measure.RunStreamContext(context.Background(), cfg, sink)
	rep := &repetition{sink: sink, ds: ds, wall: time.Since(begin), cpuUs: selfCPUUs() - cpu0}
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	rep.mallocs, rep.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	rep.gc, rep.pauseNs, rep.heapSys = m1.NumGC-m0.NumGC, m1.PauseTotalNs-m0.PauseTotalNs, m1.HeapSys
	if sink.ops == 0 {
		return nil, fmt.Errorf("%s: no query reached an authoritative", w.name)
	}
	return rep, nil
}

// check applies the workload's correctness tests to one repetition and
// describes what it looked at.
func (w simWorkload) check(rep *repetition) (string, error) {
	if !w.adverse {
		share := map[string]float64{}
		for _, s := range rep.sink.agg.ShareVsRTT() {
			share[s.Site] = s.Share
		}
		pref := rep.sink.agg.Preference()
		seen := fmt.Sprintf("Figure 3 share FRA %.3f, DUB %.3f; Figure 4 weak preference %.3f, strong %.3f",
			share["FRA"], share["DUB"], pref.WeakFrac, pref.StrongFrac)
		if share["FRA"] <= share["DUB"] {
			return seen, fmt.Errorf("Figure 3 shape lost: FRA's share is not above DUB's")
		}
		if pref.WeakFrac < weakLo || pref.WeakFrac > weakHi || pref.StrongFrac < strongLo || pref.StrongFrac > strongHi {
			return seen, fmt.Errorf("Figure 4 shape lost: want weak preference %.2f-%.2f and strong %.2f-%.2f",
				weakLo, weakHi, strongLo, strongHi)
		}
		return seen, nil
	}
	if rep.ds.Faults == nil || rep.ds.Faults.Drops == 0 {
		return "", fmt.Errorf("the fault schedule dropped nothing")
	}
	amp, ok := nxnsAmplification(rep.ds.Attacks)
	if !ok {
		return "", fmt.Errorf("the attack ledger has no NXNS campaign")
	}
	seen := fmt.Sprintf("faults dropped %d packets; NXNS amplification %.2fx under MaxFetch=2", rep.ds.Faults.Drops, amp)
	if amp > 2.05 {
		return seen, fmt.Errorf("NXNS amplification exceeds 2.05x")
	}
	return seen, nil
}

func nxnsAmplification(r *attacks.Report) (float64, bool) {
	if r == nil {
		return 0, false
	}
	for _, e := range r.Entries {
		if e.Kind == attacks.KindNXNS {
			return e.AmpQueries(), true
		}
	}
	return 0, false
}

// simEnv is what a simulated run needs from the command line.
type simEnv struct {
	seed      int64
	seconds   float64
	probes    int // 0 = the workload's own
	setupReps int
	tr        *tracer
}

// runSim measures one simulated workload end to end.
func runSim(w simWorkload, e *simEnv) (*result, error) {
	res := newResult(w.name, e.seed)
	probes := w.probes
	if e.probes > 0 {
		probes = e.probes
	}
	root := e.tr.start(0, "workload "+w.name)
	defer e.tr.end(root)

	// Set-up is a fifth-scale run: it builds everything a repetition
	// builds and brings the heap to its working size. Each one draws its
	// own seed: so small a population makes the work one seed draws
	// differ by a quarter from another's (sim-adverse, whose attackers
	// are a share of it), which the median is to level out.
	var setups []float64
	for i := 0; i < e.setupReps; i++ {
		begin := time.Now()
		if _, err := w.run(e.seed+int64(i), max(probes/5, 50), w.lanes(), nil, nil, 0); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(begin).Seconds())
	}

	// Each repetition simulates its own hour (seed, seed+1, ...), so
	// that the simulated latencies pool over several draws of the run's
	// randomness; the last one replays the first and must reproduce its
	// record stream byte for byte.
	n := max(3, int(math.Round(e.seconds/w.repCost)))
	if e.tr != nil {
		n = 1 // a traced run needs one plain repetition to compare with
	}
	var reps []*repetition
	for i := 0; i < n; i++ {
		seed := e.seed + int64(i)
		if i == n-1 {
			seed = e.seed
		}
		id := e.tr.start(root, fmt.Sprintf("rep %d", i))
		rep, err := w.run(seed, probes, w.lanes(), nil, nil, 0)
		e.tr.end(id)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}

	first, last := reps[0], reps[n-1]
	res.Correct = true
	if last.sink.digest != first.sink.digest {
		res.Correct = false
		res.note("incorrect: replaying seed %d produced digest %016x, the first time %016x", e.seed, last.sink.digest, first.sink.digest)
	}
	var rtts []float64
	var clients, lost int
	for _, rep := range reps[:max(n-1, 1)] { // the replay would count the first hour twice
		seen, err := w.check(rep)
		if err != nil {
			res.Correct = false
			res.note("incorrect: %v (%s)", err, seen)
		} else if rep == first {
			res.note("%s", seen)
		}
		rtts = append(rtts, rep.sink.rttMs...)
		clients += rep.sink.clients
		lost += rep.sink.lost
		res.Attempted += rep.sink.ops
	}
	if !res.Correct {
		res.Failed = res.Attempted
	}

	per := func(f func(*repetition) float64) float64 {
		xs := make([]float64, len(reps))
		for i, rep := range reps {
			xs[i] = f(rep)
		}
		return stats.Median(xs)
	}
	ops := func(rep *repetition) float64 { return float64(rep.sink.ops) }
	latency := stats.NewSummary(rtts)
	res.set("setup_s", stats.Median(setups))
	res.set("ops_per_s", per(func(r *repetition) float64 { return ops(r) / r.wall.Seconds() }))
	res.set("cpu_us_per_op", per(func(r *repetition) float64 { return r.cpuUs / ops(r) }))
	res.set("p50_us", 1e3*latency.Percentile(50))
	res.set("p99_us", 1e3*latency.Percentile(99))
	res.set("ok_frac", 1-float64(lost)/float64(clients))
	res.set("allocs_per_op", per(func(r *repetition) float64 { return float64(r.mallocs) / ops(r) }))
	res.set("bytes_per_op", per(func(r *repetition) float64 { return float64(r.bytes) / ops(r) }))
	res.set("peak_rss_mb", peakRSSMiB(selfPid))
	var each []string
	for _, rep := range reps {
		each = append(each, fmt.Sprintf("%.0f/%.2f", ops(rep)/rep.wall.Seconds(), rep.cpuUs/ops(rep)))
	}
	res.note("per repetition, op/s and CPU us/op: %s", strings.Join(each, " "))
	res.note("%d repetitions of %d probes on %d lanes; the first: %d operations from %d client queries, digest %016x; p50/p99 are simulated client latency over %d answered queries",
		n, probes, w.lanes(), first.sink.ops, first.sink.clients, first.sink.digest, len(rtts))

	if e.tr != nil {
		if err := w.trace(res, e, root, probes, first); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// trace makes the traced repetition and derives the per-layer metrics
// of a simulated workload. plain is the untraced repetition it is
// compared with.
func (w simWorkload) trace(res *result, e *simEnv, root, probes int, plain *repetition) error {
	reg := obs.NewRegistry()
	var traced *repetition
	id := e.tr.start(root, "rep traced")
	fold, err := profileCPU(func() {
		var runErr error
		if traced, runErr = w.run(e.seed, probes, w.lanes(), reg, e.tr, id); runErr != nil {
			traced = nil
		}
	})
	e.tr.end(id)
	if err != nil {
		return err
	}
	if traced == nil {
		return fmt.Errorf("%s: traced repetition failed", w.name)
	}
	if traced.sink.digest != plain.sink.digest {
		res.Correct = false
		res.note("incorrect: tracing changed the record stream (%016x, untraced %016x)", traced.sink.digest, plain.sink.digest)
	}
	res.layer("trace.overhead_frac", traced.wall.Seconds()/plain.wall.Seconds()-1)
	res.fold(fold)

	snap := reg.Snapshot()
	res.layer("netsim.events", float64(snap.Counter("netsim_events_total")))
	res.layer("netsim.packets_dropped", float64(snap.Counter("netsim_packets_dropped_total")))
	res.layer("authserver.queries", float64(snap.Counter("authserver_queries_total")))
	res.layer("authserver.dropped", float64(snap.Counter("authserver_dropped_total")))
	if cq := float64(snap.Counter("resolver_client_queries_total")); cq > 0 {
		res.layer("resolver.cache_hit_ratio", float64(snap.Counter("resolver_cache_hits_total"))/cq)
		res.layer("resolver.upstream_per_client", float64(snap.Counter("resolver_upstream_queries_total"))/cq)
	}
	res.layer("resolver.timeouts", float64(snap.Counter("resolver_timeouts_total")))
	res.layer("resolver.servfails", float64(snap.Counter("resolver_servfail_total")))
	if f := traced.ds.Faults; f != nil {
		res.layer("faults.dropped", float64(f.Drops))
	}
	if amp, ok := nxnsAmplification(traced.ds.Attacks); ok {
		res.layer("attacks.amplification", amp)
	}

	res.layer("measure.sim_s_per_wall_s", w.config(e.seed, probes, 1).Duration.Seconds()/plain.wall.Seconds())
	if w.lanes() > 1 {
		id := e.tr.start(root, "rep one lane")
		single, err := w.run(e.seed, probes, 1, nil, nil, 0)
		e.tr.end(id)
		if err != nil {
			return err
		}
		if single.sink.digest != plain.sink.digest {
			res.Correct = false
			res.note("incorrect: one lane produced digest %016x, %d lanes %016x", single.sink.digest, w.lanes(), plain.sink.digest)
		}
		res.layer("measure.lanes_speedup", single.wall.Seconds()/plain.wall.Seconds())
	}
	res.layer("analysis.sink_time_share", float64(traced.sink.inAgg)*sampleEvery/float64(traced.wall))
	res.layer("runtime.gc_cycles", float64(plain.gc))
	res.layer("runtime.gc_pause_ms", float64(plain.pauseNs)/1e6)
	res.layer("runtime.heap_peak_mb", float64(plain.heapSys)/(1<<20))

	wild, _ := wildPackets(e.seed, 0, "DUB", "FRA")
	layerCalls(res, e.tr, root, e.seed, false, wild, traced.sink.kept)
	return nil
}
