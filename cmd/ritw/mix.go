package main

import (
	"context"
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"ritw/internal/analysis"
	"ritw/internal/atlas"
	"ritw/internal/core"
	"ritw/internal/geo"
	"ritw/internal/measure"
	"ritw/internal/resolver"
)

var mixFlag = flag.String("mix", "",
	"fleet mix kind:share[:sf+qmin],... re-drawing every resolver's behaviour entity-keyed (kinds: "+kindList()+"); applies to every run, and `ritw mix` runs it as a custom scenario")

// mixShares is the parsed -mix value, fixed in main before any command
// runs (nil without the flag).
var mixShares []atlas.PolicyShare

func kindList() string {
	names := make([]string, 0, len(resolver.Kinds()))
	for _, k := range resolver.Kinds() {
		names = append(names, k.String())
	}
	return strings.Join(names, "|")
}

// shareDefaults fills the per-kind infra-cache defaults the calibrated
// mixture uses (BIND ~10 min decay-keep, Unbound ~15 min, minimal
// kinds hard-expire, Sticky cacheless).
func shareDefaults(kind resolver.PolicyKind) atlas.PolicyShare {
	s := atlas.PolicyShare{Kind: kind, InfraTTL: 10 * time.Minute, Retention: resolver.DecayKeep}
	switch kind {
	case resolver.KindUnboundLike:
		s.InfraTTL = 15 * time.Minute
	case resolver.KindUniform, resolver.KindRoundRobin:
		s.Retention = resolver.HardExpire
	case resolver.KindSticky:
		s.InfraTTL = 0
		s.Retention = resolver.HardExpire
	}
	return s
}

// parseMixSpec parses the -mix DSL: comma-separated kind:share entries
// with an optional engine-behaviour suffix, e.g.
// "probetopn:0.4:sf+qmin,bindlike:0.35,uniform:0.25". Shares need not
// sum to one (they are normalized); sf enables singleflight and qmin
// qname minimization for that segment.
func parseMixSpec(spec string) ([]atlas.PolicyShare, error) {
	var mix []atlas.PolicyShare
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.SplitN(entry, ":", 3)
		if len(parts) < 2 {
			return nil, fmt.Errorf("bad -mix entry %q (want kind:share[:sf+qmin])", entry)
		}
		kind, err := resolver.ParseKind(parts[0])
		if err != nil {
			return nil, fmt.Errorf("bad -mix entry %q: %v", entry, err)
		}
		share, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || share < 0 {
			return nil, fmt.Errorf("bad -mix share %q (want a non-negative number)", parts[1])
		}
		s := shareDefaults(kind)
		s.Share = share
		if len(parts) == 3 {
			for _, opt := range strings.Split(parts[2], "+") {
				switch opt {
				case "sf":
					s.Singleflight = true
				case "qmin":
					s.QnameMinimize = true
				default:
					return nil, fmt.Errorf("bad -mix option %q in %q (want sf or qmin)", opt, entry)
				}
			}
		}
		mix = append(mix, s)
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("empty -mix spec")
	}
	return mix, nil
}

// describeMix renders a mix for scenario headers (and the golden).
func describeMix(mix []atlas.PolicyShare) string {
	var total float64
	for _, m := range mix {
		total += m.Share
	}
	parts := make([]string, 0, len(mix))
	for _, m := range mix {
		p := fmt.Sprintf("%s:%.0f%%", m.Kind, 100*m.Share/total)
		var opts []string
		if m.Singleflight {
			opts = append(opts, "sf")
		}
		if m.QnameMinimize {
			opts = append(opts, "qmin")
		}
		if len(opts) > 0 {
			p += "(" + strings.Join(opts, "+") + ")"
		}
		parts = append(parts, p)
	}
	return strings.Join(parts, " ")
}

// modernMix is the secDNS-flavoured fleet: a large probe-top-N segment
// with singleflight and qname minimization (the modern-recursive
// defaults), alongside the classic implementations.
func modernMix() []atlas.PolicyShare {
	topn := shareDefaults(resolver.KindProbeTopN)
	topn.Share = 0.35
	topn.Singleflight = true
	topn.QnameMinimize = true
	unbound := shareDefaults(resolver.KindUnboundLike)
	unbound.Share = 0.20
	unbound.QnameMinimize = true
	bind := shareDefaults(resolver.KindBINDLike)
	bind.Share = 0.20
	wrtt := shareDefaults(resolver.KindWeightedRTT)
	wrtt.Share = 0.15
	uni := shareDefaults(resolver.KindUniform)
	uni.Share = 0.10
	return []atlas.PolicyShare{topn, unbound, bind, wrtt, uni}
}

// mixScenarioList resolves the battery: the presets below, or a single
// custom scenario from -mix. The presets pair the paper-calibrated
// mixture with the modern fleet and the public-resolver-centralization
// sweep (30-70% of VPs behind the shared anycast service, after Kernan
// et al.'s public-resolvers-meet-CDNs measurements).
func mixScenarioList() []core.Scenario {
	if len(mixShares) > 0 {
		return []core.Scenario{{Name: "custom", ComboID: *comboID, Mix: mixShares}}
	}
	return []core.Scenario{
		{Name: "paper", ComboID: "2B", Mix: atlas.PaperMix()},
		{Name: "modern", ComboID: "2B", Mix: modernMix()},
		{Name: "central-30", ComboID: "2B", Mix: atlas.PaperMix(), PublicDNSShare: 0.30},
		{Name: "central-50", ComboID: "2B", Mix: atlas.PaperMix(), PublicDNSShare: 0.50},
		{Name: "central-70", ComboID: "2B", Mix: atlas.PaperMix(), PublicDNSShare: 0.70},
	}
}

// cmdMix runs the fleet-mix battery: every scenario re-draws the
// resolver population's behaviour from its share table on the
// entity-keyed mix stream, runs the standard measurement, and reports
// Figure-4 preference strength and Table 2 broken out per policy and
// as the mixture — the distributional reproduction of the paper's
// core finding. The mixture's weak/strong shares are checked against
// the paper's 59-69% / 10-37% bands.
func cmdMix(ctx context.Context, scale core.Scale) error {
	scenarios := mixScenarioList()
	opts := batchOpts(scale)

	// Each scenario's VPKey → policy classifier comes from the same plan
	// stage the run executes, so the per-policy split is exact.
	breakouts := make(map[string]*analysis.MixBreakout, len(scenarios))
	for _, sc := range scenarios {
		cfg, err := core.ScenarioRunConfig(sc, opts...)
		if err != nil {
			return err
		}
		assign, err := measure.PolicyAssignment(cfg)
		if err != nil {
			return err
		}
		breakouts[sc.Name] = analysis.NewMixBreakout(analysis.AggConfig{
			ComboID:    sc.Name,
			Sites:      cfg.Combo.Sites,
			Duration:   cfg.Duration,
			MaxSamples: sketchCap(),
			Seed:       *seed,
			Metrics:    metricsReg,
		}, assign)
	}
	opts = append(opts, core.WithSink(func(key string) measure.Sink { return breakouts[key] }))
	dss, err := core.RunScenariosContext(ctx, scenarios, opts...)
	if err != nil {
		return err
	}
	for i, sc := range scenarios {
		printMixScenario(sc, dss[i], breakouts[sc.Name])
	}
	return nil
}

// printMixScenario reports one scenario: the mix header, the per-policy
// and mixture Figure-4 rows, the paper-band verdict, and the mixture's
// Table 2.
func printMixScenario(sc core.Scenario, sum *measure.Dataset, b *analysis.MixBreakout) {
	fmt.Printf("-- mix %s (combo %s, %d probes)\n", sc.Name, sum.ComboID, sum.ActiveProbes)
	fmt.Println("   mix: " + describeMix(sc.Mix))
	if sc.PublicDNSShare > 0 {
		fmt.Printf("   public-DNS share: %.0f%% of VPs behind the shared anycast service\n", 100*sc.PublicDNSShare)
	}
	fmt.Printf("   %-12s %9s %10s %7s %7s\n", "policy", "records", "qualified", "weak", "strong")
	row := func(label string, agg *analysis.Aggregator) {
		p := agg.Preference()
		fmt.Printf("   %-12s %9d %10d %6.1f%% %6.1f%%\n",
			label, agg.NumRecords(), p.QualifiedVPs, 100*p.WeakFrac, 100*p.StrongFrac)
	}
	for _, label := range b.Labels() {
		row(label, b.Policy(label))
	}
	row("mixture", b.Mixture())
	p := b.Mixture().Preference()
	verdict := "OUTSIDE"
	if analysis.InPaperBands(p.WeakFrac, p.StrongFrac) {
		verdict = "inside"
	}
	fmt.Printf("   paper bands: weak %.0f-%.0f%%, strong %.0f-%.0f%% -> mixture %s\n",
		100*analysis.PaperWeakShareLow, 100*analysis.PaperWeakShareHigh,
		100*analysis.PaperStrongShareLow, 100*analysis.PaperStrongShareHigh, verdict)

	sites := sum.Sites
	fmt.Printf("   table2 share of %s by continent:", sites[0])
	t2ByLabel := func(label string, agg *analysis.Aggregator) {
		t2 := agg.Table2()
		fmt.Printf("\n     %-12s", label)
		for _, cont := range geo.Continents() {
			cells, ok := t2[cont]
			if !ok {
				fmt.Printf(" %s=  --", cont)
				continue
			}
			fmt.Printf(" %s=%3.0f%%", cont, cells[sites[0]].SharePct)
		}
	}
	for _, label := range b.Labels() {
		t2ByLabel(label, b.Policy(label))
	}
	t2ByLabel("mixture", b.Mixture())
	fmt.Println()
	fmt.Println()
}
