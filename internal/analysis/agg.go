package analysis

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"ritw/internal/geo"
	"ritw/internal/measure"
	"ritw/internal/obs"
	"ritw/internal/stats"
)

// AggConfig parameterizes an Aggregator: the combo identity, site list
// and duration a consumer knows before the run starts.
type AggConfig struct {
	ComboID string
	Sites   []string
	// Duration bounds the run; the hardening analysis splits at its
	// midpoint.
	Duration time.Duration
	// MaxSamples caps each global RTT quantile sketch's retained
	// samples (reservoir sampling past the cap). <= 0 keeps every
	// sample, making all medians exact. Per-VP RTT samples are never
	// capped: a VP holds at most one sample per query it sent.
	MaxSamples int
	// Seed drives reservoir replacement when MaxSamples binds.
	Seed int64
	// Metrics, if set, receives the aggregator's peak-size gauge
	// (analysis_aggregator_peak_size{combo=...}) at Close.
	Metrics *obs.Registry
}

// vpState is one vantage point's accumulator: everything Figures 2-5
// and the hardening state machine need, folded record by record. Its
// size is bounded by the VP's own query count (the per-site RTT
// samples), not by the dataset.
// Counters are int32: a VP sends at most a few thousand queries in an
// hour-long run, and with ~10k VP states per combination the narrower
// fields measurably shrink the aggregator.
type vpState struct {
	continent geo.Continent
	// Figure 2: coverage progress.
	idx       int32  // records processed, including failures
	answered  int32  // answered queries
	seen      uint64 // bitmask over site indexes < 64
	seenMap   map[string]bool
	seenN     int32 // distinct sites answered from
	reachedAt int32 // record index where coverage completed, -1 if never
	// Figure 3: hot-cache condition.
	hot bool
	// Figure 4 / hardening (two-site combos only).
	c0, c1     int32
	rtt0, rtt1 []float64
	h1n0, h1n1 int32 // first-half answered queries per candidate top site
	h2n0, h2n1 int32
	h1t, h2t   int32 // answered queries per half, any site
}

// Aggregator folds a measurement's record stream into every per-combo
// figure and table of the paper in one pass: Figure 2 (queries to
// probe all), Figure 3 (share vs RTT), Figure 4 (preference) with its
// bootstrap CI, Table 2, Figure 5 (RTT sensitivity), Figure 6's
// per-continent site share, the §4.3 hardening comparison and the
// §3.1 auth-side middlebox cross-check. It implements measure.Sink,
// so a run streams straight into it (measure.RunConfig.Sink); its
// memory is O(#VPs + #resolvers), not O(#records).
//
// Results are available from the accessor methods at any time; Close
// only publishes the size gauge. Records of one VP must arrive in send
// order — which a run guarantees (see measure.Sink) and Dataset.Replay
// preserves — while VPs may interleave arbitrarily: with MaxSamples
// unset every result is independent of that interleaving.
type Aggregator struct {
	cfg     AggConfig
	siteIdx map[string]int
	needAll int // distinct sites for full coverage (Figure 2)
	needHot int // site-list length for the hot-cache condition (Figure 3)
	twoSite bool
	s0, s1  string

	vps        map[string]*vpState
	vpSamples  int // retained per-VP RTT samples, for Size
	vpsPerCont map[geo.Continent]int

	records, authRecords int

	// Figure 3: tallies after the hot-cache condition.
	hotCounts map[string]int
	hotRTT    map[string]*stats.QuantileSketch
	hotTotal  int

	// Table 2 / Figures 5 and 6: per-continent tallies.
	contCounts map[geo.Continent]map[string]int
	contRTT    map[geo.Continent]map[string]*stats.QuantileSketch
	contTotals map[geo.Continent]int

	// Middlebox cross-check: per-source per-site counts. Each source
	// holds a flat slice indexed by authSiteIdx instead of a nested
	// map — with thousands of resolvers and a handful of sites, the
	// per-source map overhead would dominate the aggregator's memory.
	perSrc      map[string][]int
	authSiteIdx map[string]int
	srcCells    int
	sketches    int // created so far, for deterministic reservoir seeds
	sketchList  []*stats.QuantileSketch
}

// NewAggregator returns an empty aggregator for one combination.
func NewAggregator(cfg AggConfig) *Aggregator {
	a := &Aggregator{
		cfg:         cfg,
		siteIdx:     make(map[string]int, len(cfg.Sites)),
		needHot:     len(cfg.Sites),
		vps:         make(map[string]*vpState),
		vpsPerCont:  make(map[geo.Continent]int),
		hotCounts:   make(map[string]int),
		hotRTT:      make(map[string]*stats.QuantileSketch),
		contCounts:  make(map[geo.Continent]map[string]int),
		contRTT:     make(map[geo.Continent]map[string]*stats.QuantileSketch),
		contTotals:  make(map[geo.Continent]int),
		perSrc:      make(map[string][]int),
		authSiteIdx: make(map[string]int, len(cfg.Sites)),
	}
	for _, s := range cfg.Sites {
		if _, ok := a.siteIdx[s]; !ok {
			a.siteIdx[s] = len(a.siteIdx)
		}
		if _, ok := a.authSiteIdx[s]; !ok {
			a.authSiteIdx[s] = len(a.authSiteIdx)
		}
	}
	a.needAll = len(a.siteIdx)
	if len(cfg.Sites) == 2 {
		a.twoSite = true
		a.s0, a.s1 = cfg.Sites[0], cfg.Sites[1]
	}
	return a
}

// AggregatorFor returns an exact (uncapped) aggregator configured from
// ds's summary fields.
func AggregatorFor(ds *measure.Dataset) *Aggregator {
	return NewAggregator(AggConfig{ComboID: ds.ComboID, Sites: ds.Sites, Duration: ds.Duration})
}

// Aggregate replays a dataset's stored records through a fresh exact
// aggregator: the entry point for tests, examples and offline
// re-analysis of measure.ReadCSV / ReadJSONL artifacts.
func Aggregate(ds *measure.Dataset) *Aggregator {
	a := AggregatorFor(ds)
	ds.Replay(a)
	return a
}

func (a *Aggregator) newSketch() *stats.QuantileSketch {
	a.sketches++
	q := stats.NewQuantileSketch(a.cfg.MaxSamples, a.cfg.Seed+int64(a.sketches))
	a.sketchList = append(a.sketchList, q)
	return q
}

func (a *Aggregator) siteIndex(site string) int {
	if i, ok := a.siteIdx[site]; ok {
		return i
	}
	i := len(a.siteIdx)
	a.siteIdx[site] = i
	return i
}

// markSeen records that the VP was answered from site; it reports
// whether the site is new for this VP. Sites beyond the 64-bit mask
// (impossible with the paper's combos) spill to a map.
func (st *vpState) markSeen(idx int, site string) bool {
	if idx < 64 {
		bit := uint64(1) << uint(idx)
		if st.seen&bit != 0 {
			return false
		}
		st.seen |= bit
		return true
	}
	if st.seenMap[site] {
		return false
	}
	if st.seenMap == nil {
		st.seenMap = make(map[string]bool)
	}
	st.seenMap[site] = true
	return true
}

// OnQuery folds one client-side record into every per-VP and global
// accumulator. Records of one VP must arrive in send order; VPs may
// interleave arbitrarily.
func (a *Aggregator) OnQuery(r measure.QueryRecord) {
	a.records++
	st, ok := a.vps[r.VPKey]
	if !ok {
		st = &vpState{continent: r.Continent, reachedAt: -1}
		a.vps[r.VPKey] = st
		a.vpsPerCont[r.Continent]++ // Figure 5 counts every VP, answered or not
	}
	i := st.idx
	st.idx++
	if !r.OK || r.Site == "" {
		return
	}
	st.answered++

	// Figure 3: tally only while hot, then update the condition — the
	// record completing coverage is itself not tallied.
	if st.hot {
		a.hotCounts[r.Site]++
		q, ok := a.hotRTT[r.Site]
		if !ok {
			q = a.newSketch()
			a.hotRTT[r.Site] = q
		}
		q.Observe(r.RTTms)
		a.hotTotal++
	}
	if st.markSeen(a.siteIndex(r.Site), r.Site) {
		st.seenN++
	}
	if int(st.seenN) == a.needAll && a.needAll > 0 && st.reachedAt == -1 {
		st.reachedAt = i
	}
	if int(st.seenN) == a.needHot && a.needHot > 0 {
		st.hot = true
	}

	// Table 2 / Figures 5-6.
	if a.contCounts[r.Continent] == nil {
		a.contCounts[r.Continent] = make(map[string]int)
		a.contRTT[r.Continent] = make(map[string]*stats.QuantileSketch)
	}
	a.contCounts[r.Continent][r.Site]++
	q, ok := a.contRTT[r.Continent][r.Site]
	if !ok {
		q = a.newSketch()
		a.contRTT[r.Continent][r.Site] = q
	}
	q.Observe(r.RTTms)
	a.contTotals[r.Continent]++

	// Figure 4 and hardening need the two-site breakdown.
	if a.twoSite {
		switch r.Site {
		case a.s0:
			st.c0++
			st.rtt0 = append(st.rtt0, r.RTTms)
			a.vpSamples++
		case a.s1:
			st.c1++
			st.rtt1 = append(st.rtt1, r.RTTms)
			a.vpSamples++
		}
		if r.SentAt < a.cfg.Duration/2 {
			st.h1t++
			if r.Site == a.s0 {
				st.h1n0++
			}
			if r.Site == a.s1 {
				st.h1n1++
			}
		} else {
			st.h2t++
			if r.Site == a.s0 {
				st.h2n0++
			}
			if r.Site == a.s1 {
				st.h2n1++
			}
		}
	}
}

// OnAuth folds one server-side record into the middlebox cross-check.
func (a *Aggregator) OnAuth(ar measure.AuthRecord) {
	a.authRecords++
	si, ok := a.authSiteIdx[ar.Site]
	if !ok {
		si = len(a.authSiteIdx)
		a.authSiteIdx[ar.Site] = si
	}
	key := ar.Src.String()
	counts := a.perSrc[key]
	if counts == nil {
		counts = make([]int, len(a.authSiteIdx))
		a.srcCells += len(counts)
	}
	for len(counts) <= si {
		counts = append(counts, 0)
		a.srcCells++
	}
	counts[si]++
	a.perSrc[key] = counts
}

// Close publishes the size gauge; results remain readable afterwards.
// Aggregator state only grows, so the size at Close is the peak.
func (a *Aggregator) Close() error {
	if a.cfg.Metrics != nil {
		g := a.cfg.Metrics.Gauge(obs.LabelName("analysis_aggregator_peak_size", "combo", a.cfg.ComboID))
		g.Set(float64(a.Size()))
	}
	return nil
}

// NumRecords returns how many client-side records streamed through.
func (a *Aggregator) NumRecords() int { return a.records }

// NumAuthRecords returns how many server-side records streamed through.
func (a *Aggregator) NumAuthRecords() int { return a.authRecords }

// Size counts retained aggregation entries — VP states, per-VP and
// sketch RTT samples, and per-source cells. It is the memory-footprint
// proxy the obs gauge reports.
func (a *Aggregator) Size() int {
	n := len(a.vps) + a.vpSamples + len(a.perSrc) + a.srcCells
	for _, q := range a.sketchList {
		n += q.Retained()
	}
	return n
}

// ComboID returns the combination this aggregator accumulates.
func (a *Aggregator) ComboID() string { return a.cfg.ComboID }

// Sites returns the configured site list.
func (a *Aggregator) Sites() []string { return a.cfg.Sites }

// sortedVPKeys returns the VP keys sorted, so order-sensitive float
// accumulations are bit-stable across runs and map layouts.
func (a *Aggregator) sortedVPKeys() []string {
	keys := make([]string, 0, len(a.vps))
	for k := range a.vps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ProbeAll finalizes Figure 2. VPs with fewer than five answered
// queries are skipped, mirroring the paper's server-side filter.
func (a *Aggregator) ProbeAll() ProbeAllResult {
	var reached []float64
	all, considered := 0, 0
	for _, k := range a.sortedVPKeys() {
		st := a.vps[k]
		if st.answered < 5 {
			continue
		}
		considered++
		if st.reachedAt >= 0 {
			all++
			reached = append(reached, float64(st.reachedAt))
		}
	}
	res := ProbeAllResult{ComboID: a.cfg.ComboID, VPs: considered}
	if considered > 0 {
		res.PercentAll = 100 * float64(all) / float64(considered)
	}
	if b, err := stats.NewBoxPlot(reached); err == nil {
		res.Box = b
	}
	return res
}

// ShareVsRTT finalizes Figure 3. Following §4.2, the tally starts once
// a VP has reached the hot-cache condition (has queried every site at
// least once).
func (a *Aggregator) ShareVsRTT() []SiteShare {
	out := make([]SiteShare, 0, len(a.cfg.Sites))
	for _, s := range a.cfg.Sites {
		ss := SiteShare{Site: s, Queries: a.hotCounts[s], MedianRTT: sketchMedian(a.hotRTT[s])}
		if a.hotTotal > 0 {
			ss.Share = float64(a.hotCounts[s]) / float64(a.hotTotal)
		}
		out = append(out, ss)
	}
	return out
}

func sketchMedian(q *stats.QuantileSketch) float64 {
	if q == nil {
		return stats.Median(nil)
	}
	return q.Median()
}

// Table2 finalizes the per-continent query distribution and median RTT
// for each site (the paper's Table 2 rows).
func (a *Aggregator) Table2() map[geo.Continent]map[string]ContinentSiteShare {
	out := make(map[geo.Continent]map[string]ContinentSiteShare)
	for cont, byc := range a.contCounts {
		out[cont] = make(map[string]ContinentSiteShare)
		for _, site := range a.cfg.Sites {
			cell := ContinentSiteShare{
				Queries:   byc[site],
				MedianRTT: sketchMedian(a.contRTT[cont][site]),
			}
			if a.contTotals[cont] > 0 {
				cell.SharePct = 100 * float64(byc[site]) / float64(a.contTotals[cont])
			}
			out[cont][site] = cell
		}
	}
	return out
}

// preference finalizes Figure 4 and the qualified VPs' top-site
// shares (in sorted VP order, which the bootstrap CI depends on).
func (a *Aggregator) preference() (PreferenceResult, []float64) {
	res := PreferenceResult{
		ComboID: a.cfg.ComboID,
		Curves:  make(map[geo.Continent]map[string][]float64),
	}
	if !a.twoSite {
		return res, nil
	}
	var topShares []float64
	weak, strong := 0, 0
	for _, k := range a.sortedVPKeys() {
		st := a.vps[k]
		n := st.c0 + st.c1
		if n < 5 {
			continue
		}
		f0 := float64(st.c0) / float64(n)
		if res.Curves[st.continent] == nil {
			res.Curves[st.continent] = map[string][]float64{a.s0: nil, a.s1: nil}
		}
		res.Curves[st.continent][a.s0] = append(res.Curves[st.continent][a.s0], f0)
		res.Curves[st.continent][a.s1] = append(res.Curves[st.continent][a.s1], 1-f0)

		if st.c0 == 0 || st.c1 == 0 {
			continue
		}
		gap := stats.Median(st.rtt0) - stats.Median(st.rtt1)
		if gap < 0 {
			gap = -gap
		}
		if gap < MinRTTGapMs {
			continue
		}
		res.QualifiedVPs++
		top := f0
		if 1-f0 > top {
			top = 1 - f0
		}
		topShares = append(topShares, top)
		if top >= WeakPreference {
			weak++
		}
		if top >= StrongPreference {
			strong++
		}
	}
	for _, bySite := range res.Curves {
		for s := range bySite {
			sort.Sort(sort.Reverse(sort.Float64Slice(bySite[s])))
		}
	}
	if res.QualifiedVPs > 0 {
		res.WeakFrac = float64(weak) / float64(res.QualifiedVPs)
		res.StrongFrac = float64(strong) / float64(res.QualifiedVPs)
	}
	return res, topShares
}

// Preference finalizes Figure 4 for a two-site run. VPs with fewer
// than five answered queries are excluded, as in the paper's middlebox
// cross-check.
func (a *Aggregator) Preference() PreferenceResult {
	res, _ := a.preference()
	return res
}

// PreferenceCI bootstraps 95% confidence intervals for the weak and
// strong preference fractions — uncertainty the paper's point estimates
// do not carry — by resampling the qualified VPs' top-site shares.
func (a *Aggregator) PreferenceCI(rounds int, seed int64) (weakCI, strongCI Interval, err error) {
	if !a.twoSite {
		return Interval{}, Interval{}, fmt.Errorf("analysis: preference CI needs a two-site dataset")
	}
	_, topShares := a.preference()
	if len(topShares) == 0 {
		return Interval{}, Interval{}, fmt.Errorf("analysis: no qualified VPs")
	}
	rng := rand.New(rand.NewSource(seed))
	wl, wh, err := stats.BootstrapCI(topShares, func(xs []float64) float64 {
		return stats.Fraction(xs, func(x float64) bool { return x >= WeakPreference })
	}, 0.95, rounds, rng)
	if err != nil {
		return Interval{}, Interval{}, err
	}
	sl, sh, err := stats.BootstrapCI(topShares, func(xs []float64) float64 {
		return stats.Fraction(xs, func(x float64) bool { return x >= StrongPreference })
	}, 0.95, rounds, rng)
	if err != nil {
		return Interval{}, Interval{}, err
	}
	return Interval{wl, wh}, Interval{sl, sh}, nil
}

// RTTSensitivity finalizes Figure 5.
func (a *Aggregator) RTTSensitivity() []RTTSensitivityPoint {
	t2 := a.Table2()
	var out []RTTSensitivityPoint
	for _, cont := range geo.Continents() {
		cells, ok := t2[cont]
		if !ok {
			continue
		}
		for _, site := range a.cfg.Sites {
			cell := cells[site]
			out = append(out, RTTSensitivityPoint{
				Continent: cont,
				Site:      site,
				MedianRTT: cell.MedianRTT,
				Fraction:  cell.SharePct / 100,
				VPs:       a.vpsPerCont[cont],
			})
		}
	}
	return out
}

// SiteShareByContinent finalizes one Figure 6 curve point per
// continent for the named site.
func (a *Aggregator) SiteShareByContinent(site string) map[geo.Continent]float64 {
	out := make(map[geo.Continent]float64)
	for cont, total := range a.contTotals {
		if total > 0 {
			out[cont] = float64(a.contCounts[cont][site]) / float64(total)
		}
	}
	return out
}

// PreferenceHardening finalizes the §4.3 comparison: each
// weak-preference VP's queries are split at the measurement midpoint
// and its top-site share compared across halves.
func (a *Aggregator) PreferenceHardening() HardeningResult {
	if !a.twoSite {
		return HardeningResult{}
	}
	var res HardeningResult
	var sum1, sum2 float64
	for _, k := range a.sortedVPKeys() {
		st := a.vps[k]
		n := st.c0 + st.c1
		if n < 10 {
			continue
		}
		f0 := float64(st.c0) / float64(n)
		top := f0
		h1n, h2n := st.h1n0, st.h2n0
		if 1-f0 > top {
			top = 1 - f0
			h1n, h2n = st.h1n1, st.h2n1
		}
		// Weak but not already strong in aggregate.
		if top < WeakPreference || top >= 0.95 {
			continue
		}
		if st.h1t == 0 || st.h2t == 0 {
			continue
		}
		res.VPs++
		sum1 += float64(h1n) / float64(st.h1t)
		sum2 += float64(h2n) / float64(st.h2t)
	}
	if res.VPs > 0 {
		res.FirstHalf = sum1 / float64(res.VPs)
		res.SecondHalf = sum2 / float64(res.VPs)
	}
	return res
}

// AuthSidePreference recomputes the Figure-4 preference fractions from
// the authoritative-side capture, for recursives that sent at least
// minQueries — the paper's middlebox sanity check (§3.1).
func (a *Aggregator) AuthSidePreference(minQueries int) (weakFrac, strongFrac float64, resolvers int) {
	weak, strong := 0, 0
	for _, counts := range a.perSrc {
		total, top := 0, 0
		for _, n := range counts {
			total += n
			if n > top {
				top = n
			}
		}
		if total < minQueries {
			continue
		}
		resolvers++
		frac := float64(top) / float64(total)
		if frac >= WeakPreference {
			weak++
		}
		if frac >= StrongPreference {
			strong++
		}
	}
	if resolvers > 0 {
		weakFrac = float64(weak) / float64(resolvers)
		strongFrac = float64(strong) / float64(resolvers)
	}
	return weakFrac, strongFrac, resolvers
}

// RankAgg accumulates per-recursive per-server query counts for the
// Figure 7 rank analysis row by row, so a trace file can be ranked
// without loading its count table (core.RanksFromTraceCSV).
type RankAgg struct {
	perRec map[string]map[string]int
	total  int
}

// NewRankAgg returns an empty rank aggregator.
func NewRankAgg() *RankAgg {
	return &RankAgg{perRec: make(map[string]map[string]int)}
}

// Observe adds n queries from a recursive to a server.
func (a *RankAgg) Observe(recursive, server string, n int) {
	byServer := a.perRec[recursive]
	if byServer == nil {
		byServer = make(map[string]int)
		a.perRec[recursive] = byServer
	}
	byServer[server] += n
	a.total += n
}

// TotalQueries returns the number of queries observed.
func (a *RankAgg) TotalQueries() int { return a.total }

// Recursives returns the number of distinct recursives observed.
func (a *RankAgg) Recursives() int { return len(a.perRec) }

// PerRecursive exposes the per-recursive per-server counts (the
// ditl.Trace.PerRecursive pivot, built incrementally).
func (a *RankAgg) PerRecursive() map[string]map[string]int { return a.perRec }

// Bands computes the Figure 7 rank bands from the accumulated counts.
func (a *RankAgg) Bands(totalServers, minQueries int) RankBands {
	return Ranks(a.perRec, totalServers, minQueries)
}
