// Benchmark harness: one benchmark per table and figure of the paper,
// plus ablations of the design choices DESIGN.md calls out. Each
// benchmark regenerates its artifact and reports the headline numbers
// as custom metrics, so
//
//	go test -bench=. -benchmem
//
// doubles as the reproduction run. Expensive dataset synthesis is
// shared across benchmarks and excluded from timed sections where the
// benchmark targets the analysis.
package ritw_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"ritw/internal/analysis"
	"ritw/internal/atlas"
	"ritw/internal/core"
	"ritw/internal/ditl"
	"ritw/internal/faults"
	"ritw/internal/geo"
	"ritw/internal/measure"
	"ritw/internal/resolver"
)

const benchSeed = 2017

// benchDatasets lazily runs all Table-1 combinations once at small
// scale and shares them across benchmarks.
var (
	benchOnce sync.Once
	benchDS   map[string]*measure.Dataset
	benchErr  error
)

func datasets(b *testing.B) map[string]*measure.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		// Shared setup, not a timed section: fan out across cores.
		benchDS, benchErr = core.RunTable1Context(context.Background(),
			core.WithSeed(benchSeed), core.WithScale(core.ScaleSmall))
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDS
}

// BenchmarkTable1Combinations measures the full Table-1 batch — all
// seven combinations, each a population synthesis plus one virtual
// hour of traffic — through the Runner. The serial and parallel
// sub-benchmarks differ only in pool width, so their time ratio is the
// orchestration speedup on this host; the datasets are byte-identical
// either way (per-seed determinism). Reports the Table-1 row: active
// VPs per run.
func BenchmarkTable1Combinations(b *testing.B) {
	run := func(b *testing.B, extra ...core.Option) {
		var probes int
		for i := 0; i < b.N; i++ {
			opts := append([]core.Option{
				core.WithSeed(benchSeed + int64(i)),
				core.WithScale(core.ScaleSmall),
			}, extra...)
			dss, err := core.RunTable1Context(context.Background(), opts...)
			if err != nil {
				b.Fatal(err)
			}
			probes = dss["2B"].ActiveProbes
		}
		b.ReportMetric(float64(probes), "VPs")
	}
	b.Run("serial", func(b *testing.B) { run(b, core.WithParallelism(1)) })
	b.Run("parallel", func(b *testing.B) { run(b) })
}

// BenchmarkFigure2ProbeAll regenerates Figure 2 (queries to probe all
// authoritatives) and reports the 2-NS and 4-NS coverage percentages.
func BenchmarkFigure2ProbeAll(b *testing.B) {
	dss := datasets(b)
	var pct2, pct4, median4 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r2 := analysis.Aggregate(dss["2B"]).ProbeAll()
		r4 := analysis.Aggregate(dss["4B"]).ProbeAll()
		pct2, pct4, median4 = r2.PercentAll, r4.PercentAll, r4.Box.Median
	}
	b.ReportMetric(pct2, "%all-2B")
	b.ReportMetric(pct4, "%all-4B")
	b.ReportMetric(median4, "median-queries-4B")
}

// BenchmarkFigure3ShareVsRTT regenerates Figure 3 and reports the
// share of the lowest-latency site in 2C (FRA, which "always sees most
// queries overall").
func BenchmarkFigure3ShareVsRTT(b *testing.B) {
	dss := datasets(b)
	var fraShare, fraRTT float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range analysis.Aggregate(dss["2C"]).ShareVsRTT() {
			if s.Site == "FRA" {
				fraShare, fraRTT = s.Share, s.MedianRTT
			}
		}
	}
	b.ReportMetric(fraShare, "FRA-share")
	b.ReportMetric(fraRTT, "FRA-rtt-ms")
}

// BenchmarkFigure4Preference regenerates Figure 4's preference bands
// (paper: weak 61/59/69%, strong 10/12/37% for 2A/2B/2C).
func BenchmarkFigure4Preference(b *testing.B) {
	dss := datasets(b)
	var weak2C, strong2C, strong2B float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p2c := analysis.Aggregate(dss["2C"]).Preference()
		p2b := analysis.Aggregate(dss["2B"]).Preference()
		weak2C, strong2C, strong2B = p2c.WeakFrac, p2c.StrongFrac, p2b.StrongFrac
	}
	b.ReportMetric(100*weak2C, "%weak-2C")
	b.ReportMetric(100*strong2C, "%strong-2C")
	b.ReportMetric(100*strong2B, "%strong-2B")
}

// BenchmarkTable2ContinentShare regenerates Table 2 and reports the
// EU row of 2C (paper: 83% FRA at 39 ms, 17% SYD at 355 ms).
func BenchmarkTable2ContinentShare(b *testing.B) {
	dss := datasets(b)
	var euFRA, euFRARtt, euSYDRtt float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t2 := analysis.Aggregate(dss["2C"]).Table2()
		eu := t2[geo.Europe]
		euFRA = eu["FRA"].SharePct
		euFRARtt = eu["FRA"].MedianRTT
		euSYDRtt = eu["SYD"].MedianRTT
	}
	b.ReportMetric(euFRA, "%EU-to-FRA")
	b.ReportMetric(euFRARtt, "EU-FRA-rtt-ms")
	b.ReportMetric(euSYDRtt, "EU-SYD-rtt-ms")
}

// BenchmarkFigure5RTTSensitivity regenerates Figure 5 (preference
// fades when both sites are far). Reports the EU and AS preference
// spreads in 2B; the paper's point is EU ≫ AS.
func BenchmarkFigure5RTTSensitivity(b *testing.B) {
	dss := datasets(b)
	var euSpread, asSpread float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points := analysis.Aggregate(dss["2B"]).RTTSensitivity()
		frac := map[geo.Continent]map[string]float64{}
		for _, p := range points {
			if frac[p.Continent] == nil {
				frac[p.Continent] = map[string]float64{}
			}
			frac[p.Continent][p.Site] = p.Fraction
		}
		euSpread = abs(frac[geo.Europe]["FRA"] - frac[geo.Europe]["DUB"])
		asSpread = abs(frac[geo.Asia]["FRA"] - frac[geo.Asia]["DUB"])
	}
	b.ReportMetric(euSpread, "EU-spread")
	b.ReportMetric(asSpread, "AS-spread")
}

// BenchmarkFigure6IntervalSweep regenerates Figure 6: one full 2C
// measurement per probing interval (2 and 30 minutes here; cmd/ritw
// runs all six), fanned out by the Runner in the parallel variant.
// Reports the EU share to FRA at both cadences.
func BenchmarkFigure6IntervalSweep(b *testing.B) {
	intervals := []time.Duration{2 * time.Minute, 30 * time.Minute}
	run := func(b *testing.B, extra ...core.Option) {
		var fast, slow float64
		for i := 0; i < b.N; i++ {
			opts := append([]core.Option{
				core.WithSeed(benchSeed + int64(i)),
				core.WithScale(core.ScaleSmall),
			}, extra...)
			dss, err := core.RunIntervalSweepContext(context.Background(), intervals, opts...)
			if err != nil {
				b.Fatal(err)
			}
			fast = analysis.Aggregate(dss[0]).SiteShareByContinent("FRA")[geo.Europe]
			slow = analysis.Aggregate(dss[1]).SiteShareByContinent("FRA")[geo.Europe]
		}
		b.ReportMetric(fast, "EU-FRA@2min")
		b.ReportMetric(slow, "EU-FRA@30min")
	}
	b.Run("serial", func(b *testing.B) { run(b, core.WithParallelism(1)) })
	b.Run("parallel", func(b *testing.B) { run(b) })
}

// BenchmarkFigure7Root regenerates Figure 7 (top): a DITL-style root
// hour and its rank bands (paper: ~20% one letter, ~60% >=6, ~2% all).
func BenchmarkFigure7Root(b *testing.B) {
	var bands analysis.RankBands
	for i := 0; i < b.N; i++ {
		_, rb, err := core.RunRootTrace(benchSeed+int64(i), core.ScaleSmall)
		if err != nil {
			b.Fatal(err)
		}
		bands = rb
	}
	b.ReportMetric(100*bands.OnlyOne, "%one-letter")
	b.ReportMetric(100*bands.AtLeast6, "%ge6-letters")
	b.ReportMetric(100*bands.All, "%all-letters")
}

// BenchmarkFigure7NL regenerates Figure 7 (bottom): the .nl hour
// (paper: the majority of recursives query all 4 observed NSes).
func BenchmarkFigure7NL(b *testing.B) {
	var bands analysis.RankBands
	for i := 0; i < b.N; i++ {
		_, rb, err := core.RunNLTrace(benchSeed+int64(i), core.ScaleSmall)
		if err != nil {
			b.Fatal(err)
		}
		bands = rb
	}
	b.ReportMetric(100*bands.All, "%all-4")
	b.ReportMetric(100*bands.OnlyOne, "%one-NS")
}

// BenchmarkMiddleboxComparison regenerates the §3.1 check: the
// authoritative-side preference view tracks the client-side one.
func BenchmarkMiddleboxComparison(b *testing.B) {
	dss := datasets(b)
	var clientWeak, authWeak float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clientWeak = analysis.Aggregate(dss["2A"]).Preference().WeakFrac
		aw, _, _ := analysis.Aggregate(dss["2A"]).AuthSidePreference(5)
		authWeak = aw
	}
	b.ReportMetric(clientWeak, "client-weak")
	b.ReportMetric(authWeak, "auth-weak")
}

// BenchmarkIPv6Subset regenerates the §3.1 IPv6 validation: the
// IPv6-capable subset shows the same selection strategies.
func BenchmarkIPv6Subset(b *testing.B) {
	var weak float64
	for i := 0; i < b.N; i++ {
		combo, err := measure.CombinationByID("2B")
		if err != nil {
			b.Fatal(err)
		}
		cfg := measure.DefaultRunConfig(combo, benchSeed)
		pc := atlas.DefaultConfig(benchSeed)
		pc.NumProbes = core.ScaleSmall.Probes()
		cfg.Population = pc
		cfg.IPv6Subset = true
		ds, err := measure.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		weak = analysis.Aggregate(ds).Preference().WeakFrac
	}
	b.ReportMetric(weak, "v6-weak")
}

// BenchmarkPreferenceHardening regenerates the §4.3 time-split check:
// weak preferences strengthen in the second half hour.
func BenchmarkPreferenceHardening(b *testing.B) {
	dss := datasets(b)
	var h analysis.HardeningResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h = analysis.Aggregate(dss["2C"]).PreferenceHardening()
	}
	b.ReportMetric(h.FirstHalf, "first-half")
	b.ReportMetric(h.SecondHalf, "second-half")
}

// BenchmarkPlannerLeastAnycast regenerates the §7 analysis: the
// all-anycast .nl beats the mixed deployment on both mean latency and
// the worst-authoritative bound.
func BenchmarkPlannerLeastAnycast(b *testing.B) {
	var mixedWorst, anyWorst, gain float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultPlannerConfig()
		cur, err := core.Evaluate(core.NLCurrent(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		all, err := core.Evaluate(core.NLAllAnycast(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		mixedWorst, anyWorst = cur.WorstAuthMean, all.WorstAuthMean
		gain = cur.MeanLatency - all.MeanLatency
	}
	b.ReportMetric(mixedWorst, "mixed-worst-ms")
	b.ReportMetric(anyWorst, "anycast-worst-ms")
	b.ReportMetric(gain, "gain-ms")
}

// --- Ablations (DESIGN.md §5) ---

// AblationResolverMixture: an all-uniform population cannot reproduce
// the paper's strong-preference band; the calibrated mixture can.
func BenchmarkAblationResolverMixture(b *testing.B) {
	var mixedStrong, uniformStrong float64
	for i := 0; i < b.N; i++ {
		combo, err := measure.CombinationByID("2C")
		if err != nil {
			b.Fatal(err)
		}
		run := func(mix []atlas.PolicyShare) float64 {
			cfg := measure.DefaultRunConfig(combo, benchSeed)
			pc := atlas.DefaultConfig(benchSeed)
			pc.NumProbes = 600
			pc.Mix = mix
			cfg.Population = pc
			ds, err := measure.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return analysis.Aggregate(ds).Preference().StrongFrac
		}
		mixedStrong = run(nil) // calibrated default
		uniformStrong = run([]atlas.PolicyShare{{
			Kind: resolver.KindUniform, Share: 1, InfraTTL: 10 * time.Minute,
		}})
	}
	b.ReportMetric(100*mixedStrong, "%strong-calibrated")
	b.ReportMetric(100*uniformStrong, "%strong-alluniform")
}

// AblationInfraRetention: with hard infrastructure-cache expiry
// everywhere, Figure 6's preference persistence at 30-minute probing
// disappears; decay-and-keep retention preserves it.
func BenchmarkAblationInfraRetention(b *testing.B) {
	var keep, hard float64
	for i := 0; i < b.N; i++ {
		combo, err := measure.CombinationByID("2C")
		if err != nil {
			b.Fatal(err)
		}
		run := func(retention resolver.Retention) float64 {
			mix := atlas.DefaultMix()
			for j := range mix {
				mix[j].Retention = retention
			}
			cfg := measure.DefaultRunConfig(combo, benchSeed)
			cfg.Interval = 30 * time.Minute
			pc := atlas.DefaultConfig(benchSeed)
			pc.NumProbes = 600
			pc.Mix = mix
			cfg.Population = pc
			ds, err := measure.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return analysis.Aggregate(ds).SiteShareByContinent("FRA")[geo.Europe]
		}
		keep = run(resolver.DecayKeep)
		hard = run(resolver.HardExpire)
	}
	b.ReportMetric(keep, "EU-FRA-decaykeep")
	b.ReportMetric(hard, "EU-FRA-hardexpire")
}

// AblationPathVariance: the distance scaling of route-stretch variance
// (plus distance-proportional jitter) is what makes faraway
// preferences fade (Figure 5). With flat variance and flat jitter,
// Asian vantage points in 2B see a predictable FRA/DUB ordering and
// develop a systematic continental preference — the fade disappears.
func BenchmarkAblationPathVariance(b *testing.B) {
	var scaledAS, flatAS float64
	for i := 0; i < b.N; i++ {
		run := func(model *geo.PathModel) float64 {
			combo, err := measure.CombinationByID("2B")
			if err != nil {
				b.Fatal(err)
			}
			cfg := measure.DefaultRunConfig(combo, benchSeed)
			pc := atlas.DefaultConfig(benchSeed)
			pc.NumProbes = 600
			cfg.Population = pc
			cfg.PathModel = model
			ds, err := measure.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			shares := analysis.Aggregate(ds).SiteShareByContinent("FRA")
			return abs(shares[geo.Asia] - 0.5)
		}
		scaledAS = run(nil)
		flat := geo.DefaultPathModel()
		flat.FlatStretchSigma = true
		flat.StretchSigma = 0.05 // predictable routes
		flat.JitterSlope = 0
		flat.JitterBaseMs = 3
		flatAS = run(&flat)
	}
	b.ReportMetric(scaledAS, "AS-spread-scaled")
	b.ReportMetric(flatAS, "AS-spread-flat")
}

// AblationOutage: the failure-injection experiment behind §7's
// resilience argument — resolvers fail over to the surviving site.
func BenchmarkAblationOutage(b *testing.B) {
	var duringFail, duringShare float64
	for i := 0; i < b.N; i++ {
		combo, err := measure.CombinationByID("2B")
		if err != nil {
			b.Fatal(err)
		}
		cfg := measure.DefaultRunConfig(combo, benchSeed)
		pc := atlas.DefaultConfig(benchSeed)
		pc.NumProbes = 600
		cfg.Population = pc
		start, end := 20*time.Minute, 40*time.Minute
		cfg.Faults = &faults.Schedule{Outages: []faults.Outage{{Site: "FRA", Start: start, End: end}}}
		agg := analysis.NewFaultAggregator(analysis.WindowsFromSchedule(cfg.Faults), 0, 0)
		cfg.Sink = agg
		if _, err := measure.Run(cfg); err != nil {
			b.Fatal(err)
		}
		during := agg.Impacts()[0].During
		duringFail = during.FailRate
		duringShare = during.SiteShare["FRA"]
	}
	b.ReportMetric(100*duringFail, "%fail-during-outage")
	b.ReportMetric(100*duringShare, "%failed-site-share")
}

// AblationBGPNoise: anycast catchment noise spreads root-letter
// traffic; perfect nearest-site routing concentrates it.
func BenchmarkAblationBGPNoise(b *testing.B) {
	var topShare float64
	for i := 0; i < b.N; i++ {
		cfg := ditl.DefaultRootConfig(benchSeed)
		cfg.NumRecursives = 150
		cfg.MinRate = 60
		trace, err := ditl.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rb := analysis.Ranks(trace.PerRecursive(), len(trace.Observed), 250)
		topShare = rb.MeanTopShare
	}
	b.ReportMetric(topShare, "mean-top-letter-share")
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
