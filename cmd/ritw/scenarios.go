package main

import (
	"context"
	"flag"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"ritw/internal/analysis"
	"ritw/internal/core"
	"ritw/internal/faults"
	"ritw/internal/measure"
	"ritw/internal/resolver"
)

var (
	faultSpecs faultFlag
	noBackoff  = flag.Bool("no-backoff", false, "scenarios: disable the resolvers' hold-down backoff")
)

func init() {
	flag.Var(&faultSpecs, "fault",
		"scenarios: fault spec kind:site:start-end[:k=v,...] where kind is down|flap|loss|slow|partition (repeatable; replaces the preset battery)")
}

// faultFlag collects repeatable -fault specs.
type faultFlag []string

func (f *faultFlag) String() string { return strings.Join(*f, ";") }

func (f *faultFlag) Set(v string) error {
	*f = append(*f, v)
	return nil
}

// cmdScenarios runs the fault-injection battery: either the preset
// scenarios below (2B with outages, flap, overlapping failures, a
// partial partition, a degraded path, and a no-backoff contrast), or a
// single custom scenario assembled from repeated -fault flags on the
// -combo deployment. Every scenario runs at the same seed, so the
// healthy traffic is identical across them and the differences are the
// faults'. The impact analysis consumes records as they complete
// (exact unless -maxmem caps the sketches).
func cmdScenarios(ctx context.Context, scale core.Scale) error {
	scenarios, err := scenarioList()
	if err != nil {
		return err
	}
	aggs := make(map[string]*analysis.FaultAggregator, len(scenarios))
	for _, sc := range scenarios {
		aggs[sc.Name] = analysis.NewFaultAggregator(scenarioWindows(sc), sketchCap(), *seed)
	}
	opts := append(batchOpts(scale), core.WithSink(func(key string) measure.Sink { return aggs[key] }))
	dss, err := core.RunScenariosContext(ctx, scenarios, opts...)
	if err != nil {
		return err
	}

	for i, sc := range scenarios {
		ds := dss[i]
		fmt.Printf("-- scenario %s (combo %s, %d probes)\n", sc.Name, ds.ComboID, ds.ActiveProbes)
		if sc.Faults.Empty() {
			fmt.Println("   no faults (healthy baseline)")
		}
		for _, line := range sc.Faults.Describe() {
			fmt.Println("   " + line)
		}
		if sc.Backoff != nil && sc.Backoff.Disabled {
			fmt.Println("   resolver hold-down backoff disabled")
		}
		for _, fi := range aggs[sc.Name].Impacts() {
			for _, line := range analysis.FormatImpact(fi, ds.Sites) {
				fmt.Println(line)
			}
		}
		printFaultReport(ds)
		fmt.Println()
	}
	return nil
}

// scenarioWindows picks the analysis windows for a scenario: one per
// configured fault, or a whole-run window for the healthy baseline.
func scenarioWindows(sc core.Scenario) []analysis.FaultWindow {
	if sc.Faults.Empty() {
		return []analysis.FaultWindow{{Label: "whole run", Start: 0, End: 2 * time.Hour}}
	}
	return analysis.WindowsFromSchedule(sc.Faults)
}

// printFaultReport renders the injector's post-run account: the
// per-site cut timeline is the direct view of backoff shedding load
// off a dead site (geometrically decaying buckets) versus the
// full-rate retry plateau without it.
func printFaultReport(ds *measure.Dataset) {
	r := ds.Faults
	if r == nil {
		return
	}
	fmt.Printf("  fault drops: %d packets cut, %d delayed (timeline bucket %v)\n",
		r.Drops, r.Delayed, r.Bucket)
	sites := make([]string, 0, len(r.Cut))
	for site := range r.Cut {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	for _, site := range sites {
		var b strings.Builder
		fmt.Fprintf(&b, "  cut %s:", site)
		for _, n := range r.Cut[site] {
			fmt.Fprintf(&b, " %d", n)
		}
		fmt.Println(b.String())
	}
}

// scenarioList resolves what to run: the preset battery, or one custom
// scenario assembled from -fault flags.
func scenarioList() ([]core.Scenario, error) {
	var backoff *resolver.BackoffConfig
	if *noBackoff {
		backoff = &resolver.BackoffConfig{Disabled: true}
	}
	if len(faultSpecs) > 0 {
		sched := &faults.Schedule{}
		for _, spec := range faultSpecs {
			if err := parseFaultSpec(sched, spec); err != nil {
				return nil, err
			}
		}
		return []core.Scenario{
			{Name: "custom", ComboID: *comboID, Faults: sched, Backoff: backoff},
		}, nil
	}
	// The preset battery runs on 2B (DUB + FRA): two sites keep the
	// failover story readable, and the overlap scenario can still take
	// both down at once.
	outage := &faults.Schedule{
		Outages: []faults.Outage{{Site: "FRA", Start: 20 * time.Minute, End: 40 * time.Minute}},
	}
	presets := []core.Scenario{
		{Name: "baseline", ComboID: "2B", Backoff: backoff},
		{Name: "outage", ComboID: "2B", Faults: outage, Backoff: backoff},
		{Name: "flap", ComboID: "2B", Faults: &faults.Schedule{
			Flaps: []faults.Flap{{
				Site: "FRA", Start: 20 * time.Minute, End: 40 * time.Minute,
				Period: 4 * time.Minute, DownFrac: 0.5,
			}},
		}, Backoff: backoff},
		{Name: "overlap", ComboID: "2B", Faults: &faults.Schedule{
			Outages: []faults.Outage{
				{Site: "FRA", Start: 15 * time.Minute, End: 35 * time.Minute},
				{Site: "DUB", Start: 30 * time.Minute, End: 45 * time.Minute},
			},
		}, Backoff: backoff},
		{Name: "partition", ComboID: "2B", Faults: &faults.Schedule{
			Partitions: []faults.Partition{{
				Site: "FRA", Start: 20 * time.Minute, End: 40 * time.Minute, Fraction: 0.5,
			}},
		}, Backoff: backoff},
		{Name: "degraded", ComboID: "2B", Faults: &faults.Schedule{
			Bursts: []faults.LossBurst{{
				Site: "FRA", Start: 20 * time.Minute, End: 40 * time.Minute, Rate: 0.25,
			}},
			Slowdowns: []faults.Slowdown{{
				Site: "FRA", Start: 20 * time.Minute, End: 40 * time.Minute,
				AddRTT: 150 * time.Millisecond,
			}},
		}, Backoff: backoff},
		// The NXNSAttack contrast: the same outage with hold-down
		// disabled, so the cut timelines of "outage" and "no-backoff"
		// show geometric decay versus the full-rate retry plateau.
		{Name: "no-backoff", ComboID: "2B", Faults: outage,
			Backoff: &resolver.BackoffConfig{Disabled: true}},
	}
	return presets, nil
}

// parseFaultSpec parses one -fault value into the schedule. Format:
// kind:site:start-end[:k=v,...], e.g. down:FRA:20m-40m or
// flap:GRU:10m-50m:period=4m,down=0.5 or loss:FRA:0-30m:rate=0.2,frac=0.5
// or slow:SYD:0-1h:add=200ms,factor=2 or partition:FRA:20m-40m:frac=0.5.
func parseFaultSpec(s *faults.Schedule, spec string) error {
	parts := strings.SplitN(spec, ":", 4)
	if len(parts) < 3 {
		return fmt.Errorf("bad -fault %q (want kind:site:start-end[:params])", spec)
	}
	kind, site := parts[0], strings.ToUpper(parts[1])
	lo, hi, ok := strings.Cut(parts[2], "-")
	if !ok {
		return fmt.Errorf("bad -fault window %q (want start-end)", parts[2])
	}
	start, err := time.ParseDuration(lo)
	if err != nil {
		return fmt.Errorf("bad -fault start %q: %v", lo, err)
	}
	end, err := time.ParseDuration(hi)
	if err != nil {
		return fmt.Errorf("bad -fault end %q: %v", hi, err)
	}
	params := map[string]string{}
	if len(parts) == 4 {
		for _, kv := range strings.Split(parts[3], ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("bad -fault param %q (want k=v)", kv)
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
	switch kind {
	case "down":
		s.Outages = append(s.Outages, faults.Outage{Site: site, Start: start, End: end})
	case "flap":
		period, err := getDur("period", 5*time.Minute)
		if err != nil {
			return err
		}
		down, err := getFloat("down", 0.5)
		if err != nil {
			return err
		}
		s.Flaps = append(s.Flaps, faults.Flap{
			Site: site, Start: start, End: end, Period: period, DownFrac: down,
		})
	case "loss":
		rate, err := getFloat("rate", 0.2)
		if err != nil {
			return err
		}
		frac, err := getFloat("frac", 0)
		if err != nil {
			return err
		}
		s.Bursts = append(s.Bursts, faults.LossBurst{
			Site: site, Start: start, End: end, Rate: rate, Fraction: frac,
		})
	case "slow":
		add, err := getDur("add", 200*time.Millisecond)
		if err != nil {
			return err
		}
		factor, err := getFloat("factor", 1)
		if err != nil {
			return err
		}
		frac, err := getFloat("frac", 0)
		if err != nil {
			return err
		}
		s.Slowdowns = append(s.Slowdowns, faults.Slowdown{
			Site: site, Start: start, End: end,
			AddRTT: add, Factor: factor, Fraction: frac,
		})
	case "partition":
		frac, err := getFloat("frac", 0.5)
		if err != nil {
			return err
		}
		s.Partitions = append(s.Partitions, faults.Partition{
			Site: site, Start: start, End: end, Fraction: frac,
		})
	default:
		return fmt.Errorf("unknown -fault kind %q (want down|flap|loss|slow|partition)", kind)
	}
	return nil
}
