package main

import (
	"context"
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"ritw/internal/analysis"
	"ritw/internal/attacks"
	"ritw/internal/core"
	"ritw/internal/measure"
)

var (
	attackSpecs   attackFlag
	maxFetchFlag  = flag.Int("maxfetch", 0, "attacks: cap glueless NS-target fetches per client query (NXNSAttack MaxFetch defense; 0 = undefended)")
	noNegCache    = flag.Bool("no-negcache", false, "attacks: disable RFC 2308 negative caching in the resolvers")
	attackBaseRun = flag.Bool("attack-baseline", false, "attacks: with -attack, also run the attack-free baseline at the same seed for contrast")
)

func init() {
	flag.Var(&attackSpecs, "attack",
		"attacks: campaign spec kind:start-end[:k=v,...] where kind is nxns|flood|reflect (repeatable; replaces the preset defense matrix)")
}

// attackFlag collects repeatable -attack specs.
type attackFlag []string

func (f *attackFlag) String() string { return strings.Join(*f, ";") }

func (f *attackFlag) Set(v string) error {
	*f = append(*f, v)
	return nil
}

// cmdAttacks runs the adversarial-traffic battery: either the preset
// defense matrix below (NXNSAttack with and without MaxFetch, water
// torture with and without negative caching, spoofed-source
// reflection), or a single custom scenario assembled from repeated
// -attack flags plus the -maxfetch/-no-negcache defense knobs on the
// -combo deployment. Every scenario runs at the same seed, and attack
// campaigns compile on their own keyed stream, so the benign traffic
// is byte-identical across the whole matrix: differences between rows
// are the attacks' and the defenses' alone. Output per scenario is the
// campaign schedule, the attack ledger (bots, attacker packets in,
// victim packets out, amplification factors), and the benign collateral
// impact per campaign window (before/during/after failure rate and
// median RTT, reusing the fault-impact tables).
func cmdAttacks(ctx context.Context, scale core.Scale) error {
	scenarios, err := attackScenarioList()
	if err != nil {
		return err
	}
	aggs := make(map[string]*analysis.FaultAggregator, len(scenarios))
	for _, sc := range scenarios {
		aggs[sc.Name] = analysis.NewFaultAggregator(attackWindows(sc), sketchCap(), *seed)
	}
	opts := append(batchOpts(scale), core.WithSink(func(key string) measure.Sink { return aggs[key] }))
	dss, err := core.RunScenariosContext(ctx, scenarios, opts...)
	if err != nil {
		return err
	}

	for i, sc := range scenarios {
		ds := dss[i]
		fmt.Printf("-- attack %s (combo %s, %d probes)\n", sc.Name, ds.ComboID, ds.ActiveProbes)
		fmt.Println("   defense: " + sc.Defense.Describe())
		if sc.Attacks.Empty() {
			fmt.Println("   no attack traffic (benign baseline)")
		}
		for _, line := range sc.Attacks.Describe() {
			fmt.Println("   " + line)
		}
		for _, line := range analysis.FormatAttackReport(ds.Attacks) {
			fmt.Println(line)
		}
		for _, fi := range aggs[sc.Name].Impacts() {
			for _, line := range analysis.FormatImpact(fi, ds.Sites) {
				fmt.Println(line)
			}
		}
		fmt.Println()
	}
	return nil
}

// attackWindows picks the collateral-damage analysis windows for a
// scenario: one per attack campaign, or a whole-run window for the
// benign baseline.
func attackWindows(sc core.Scenario) []analysis.FaultWindow {
	if sc.Attacks.Empty() {
		return []analysis.FaultWindow{{Label: "whole run", Start: 0, End: 2 * time.Hour}}
	}
	return analysis.WindowsFromAttacks(sc.Attacks)
}

// attackScenarioList resolves what to run: the preset defense matrix,
// or a custom scenario assembled from -attack flags and the defense
// knobs.
func attackScenarioList() ([]core.Scenario, error) {
	defense := attacks.Defenses{MaxFetch: *maxFetchFlag, NoNegativeCache: *noNegCache}
	if len(attackSpecs) > 0 {
		sched := &attacks.Schedule{}
		for _, spec := range attackSpecs {
			if err := parseAttackSpec(sched, spec); err != nil {
				return nil, err
			}
		}
		scs := []core.Scenario{
			{Name: "custom", ComboID: *comboID, Attacks: sched, Defense: defense},
		}
		if *attackBaseRun {
			scs = append([]core.Scenario{
				{Name: "baseline", ComboID: *comboID, Defense: defense},
			}, scs...)
		}
		return scs, nil
	}
	// The preset matrix runs on 2B (DUB + FRA), like the fault battery:
	// the same campaign is paired with its defense so each contrast is
	// one row apart. Windows sit mid-run so every impact table has real
	// before/during/after phases.
	nxns := &attacks.Schedule{
		NXNS: []attacks.NXNS{{
			Start: 20 * time.Minute, End: 40 * time.Minute,
			Interval: 10 * time.Second, Fraction: 0.2, Fanout: 10,
		}},
	}
	flood := &attacks.Schedule{
		Floods: []attacks.Flood{{
			Start: 20 * time.Minute, End: 40 * time.Minute,
			Interval: 5 * time.Second, Fraction: 0.3, Names: 40,
		}},
	}
	reflect := &attacks.Schedule{
		Reflections: []attacks.Reflection{{
			Start: 20 * time.Minute, End: 40 * time.Minute,
			Interval: 5 * time.Second, Fraction: 0.5,
		}},
	}
	return []core.Scenario{
		{Name: "baseline", ComboID: "2B"},
		{Name: "nxns-open", ComboID: "2B", Attacks: nxns},
		{Name: "nxns-maxfetch", ComboID: "2B", Attacks: nxns,
			Defense: attacks.Defenses{MaxFetch: 2}},
		{Name: "flood", ComboID: "2B", Attacks: flood},
		{Name: "flood-nonegcache", ComboID: "2B", Attacks: flood,
			Defense: attacks.Defenses{NoNegativeCache: true}},
		{Name: "reflect", ComboID: "2B", Attacks: reflect},
	}, nil
}

// parseAttackSpec parses one -attack value into the schedule. Format:
// kind:start-end[:k=v,...], e.g. nxns:20m-40m:interval=10s,frac=0.2,fanout=10
// or flood:20m-40m:interval=5s,frac=0.3,names=40 or
// reflect:20m-40m:interval=5s,frac=0.5.
func parseAttackSpec(s *attacks.Schedule, spec string) error {
	parts := strings.SplitN(spec, ":", 3)
	if len(parts) < 2 {
		return fmt.Errorf("bad -attack %q (want kind:start-end[:params])", spec)
	}
	kind := parts[0]
	lo, hi, ok := strings.Cut(parts[1], "-")
	if !ok {
		return fmt.Errorf("bad -attack window %q (want start-end)", parts[1])
	}
	start, err := time.ParseDuration(lo)
	if err != nil {
		return fmt.Errorf("bad -attack start %q: %v", lo, err)
	}
	end, err := time.ParseDuration(hi)
	if err != nil {
		return fmt.Errorf("bad -attack end %q: %v", hi, err)
	}
	params := map[string]string{}
	if len(parts) == 3 {
		for _, kv := range strings.Split(parts[2], ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("bad -attack param %q (want k=v)", kv)
			}
			params[k] = v
		}
	}
	getDur := func(key string, def time.Duration) (time.Duration, error) {
		v, ok := params[key]
		if !ok {
			return def, nil
		}
		return time.ParseDuration(v)
	}
	getFloat := func(key string, def float64) (float64, error) {
		v, ok := params[key]
		if !ok {
			return def, nil
		}
		return strconv.ParseFloat(v, 64)
	}
	getInt := func(key string, def int) (int, error) {
		v, ok := params[key]
		if !ok {
			return def, nil
		}
		return strconv.Atoi(v)
	}
	interval, err := getDur("interval", 10*time.Second)
	if err != nil {
		return err
	}
	frac, err := getFloat("frac", 0.2)
	if err != nil {
		return err
	}
	switch kind {
	case "nxns":
		fanout, err := getInt("fanout", 10)
		if err != nil {
			return err
		}
		s.NXNS = append(s.NXNS, attacks.NXNS{
			Start: start, End: end, Interval: interval, Fraction: frac, Fanout: fanout,
		})
	case "flood":
		names, err := getInt("names", 0)
		if err != nil {
			return err
		}
		s.Floods = append(s.Floods, attacks.Flood{
			Start: start, End: end, Interval: interval, Fraction: frac, Names: names,
		})
	case "reflect":
		s.Reflections = append(s.Reflections, attacks.Reflection{
			Start: start, End: end, Interval: interval, Fraction: frac,
		})
	default:
		return fmt.Errorf("unknown -attack kind %q (want nxns|flood|reflect)", kind)
	}
	return nil
}
