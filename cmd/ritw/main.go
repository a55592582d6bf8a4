// Command ritw regenerates every table and figure of "Recursives in
// the Wild: Engineering Authoritative DNS Servers" (IMC 2017) from the
// simulated measurement fabric.
//
//	ritw -scale small table1      # Table 1: combinations and VPs
//	ritw fig2                     # queries to probe all authoritatives
//	ritw -combo 2C fig3           # query share vs median RTT
//	ritw fig4                     # preference bands for 2A/2B/2C
//	ritw table2                   # continent x site shares and RTTs
//	ritw fig5                     # RTT sensitivity of 2B
//	ritw fig6                     # probing-interval sweep of 2C
//	ritw fig7root | fig7nl        # production rank bands
//	ritw middlebox | ipv6 | hardening
//	ritw planner                  # §7 deployment evaluation
//	ritw all                      # everything above
//	ritw blast -qps 50000         # open-loop UDP load harness (ritw blast -h)
//
// Every run streams its records into incremental aggregators, so peak
// memory is bounded by per-VP analysis state rather than query volume;
// -out spills one combination's records to CSV as they complete.
// -maxmem additionally caps the aggregators' RTT quantile sketches
// (medians become approximate past the cap).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"ritw/internal/analysis"
	"ritw/internal/atlas"
	"ritw/internal/core"
	"ritw/internal/faults"
	"ritw/internal/geo"
	"ritw/internal/measure"
	"ritw/internal/obs"
)

var (
	seed       = flag.Int64("seed", 42, "experiment seed")
	scaleStr   = flag.String("scale", "small", "population scale: small, medium, full")
	comboID    = flag.String("combo", "2C", "combination for fig3")
	outFile    = flag.String("out", "", "also spill the -combo combination's records to this CSV (table/figure commands over the Table-1 batch)")
	plotDir    = flag.String("plotdir", "", "write SVG figures into this directory")
	parallel   = flag.Int("parallel", 0, "worker-pool width for batch runs (0 = all cores)")
	progress   = flag.Bool("progress", false, "report live batch completion on stderr")
	maxMem     = flag.Int("maxmem", 0, "cap analysis memory: MiB budget for the aggregators' RTT quantile sketches (0 = exact medians)")
	probesFlag = flag.Int("probes", 0, "override the probe count implied by -scale (0 = scale default)")
	shardsFlag = flag.Int("shards", 0, "split each simulation across N concurrent lanes; results are byte-identical at any shard count (0 = single lane)")
	metricsOut = flag.Bool("metrics", false, "dump the observability registry to stderr when the command finishes")

	snapEvery  = flag.Duration("snapshot-every", 0, "checkpoint batch runs every D of simulated time so they can be resumed (0 = off)")
	snapDir    = flag.String("snapshot-dir", ".", "directory for -snapshot-every checkpoint files (ritw-<run key>.snap)")
	resumeFlag = flag.Bool("resume", false, "resume batch runs from their -snapshot-dir checkpoints instead of starting over (requires -snapshot-every)")
)

// metricsReg collects cross-layer counters and gauges (simulator
// events, records streamed, sink spill bytes, aggregator peak sizes)
// when -metrics is set; nil otherwise — obs instruments are nil-safe.
var metricsReg *obs.Registry

// sketchCap translates -maxmem into a per-sketch sample cap. An
// aggregator keeps one RTT sketch per site plus one per
// (continent, site) cell — a few dozen at most — so spreading the
// budget across 64 sketches of 8-byte samples bounds the total.
func sketchCap() int {
	if *maxMem <= 0 {
		return 0
	}
	return *maxMem << 20 / (64 * 8)
}

// scaleProbes is the effective population size: -probes wins over the
// scale's default.
func scaleProbes(scale core.Scale) int {
	if *probesFlag > 0 {
		return *probesFlag
	}
	return scale.Probes()
}

// validateLayout rejects impossible -shards/-snapshot flag
// combinations before any simulation starts. The measure layer
// re-validates per run; failing here gives one clear message instead
// of the same error once per batch job.
func validateLayout(shards int, every time.Duration, resume bool) error {
	if shards < 0 {
		return fmt.Errorf("-shards must be >= 0, got %d", shards)
	}
	if every < 0 {
		return fmt.Errorf("-snapshot-every must be >= 0, got %v", every)
	}
	if resume && every <= 0 {
		return fmt.Errorf("-resume requires -snapshot-every: a resumed run re-verifies its checkpoint and keeps checkpointing at the same cadence")
	}
	return nil
}

// snapPath names the checkpoint file for one batch run key. Replicate
// keys contain '/', which becomes '-' so every key maps to a single
// file under -snapshot-dir.
func snapPath(key string) string {
	return filepath.Join(*snapDir, "ritw-"+strings.ReplaceAll(key, "/", "-")+".snap")
}

// batchOpts are the options every batch entry point shares; with
// -progress they include the stderr reporter.
func batchOpts(scale core.Scale) []core.Option {
	opts := []core.Option{
		core.WithSeed(*seed), core.WithScale(scale), core.WithParallelism(*parallel),
		core.WithProbes(*probesFlag), core.WithShards(*shardsFlag),
	}
	if len(mixShares) > 0 {
		opts = append(opts, core.WithMix(mixShares))
	}
	if *snapEvery > 0 {
		opts = append(opts, core.WithSnapshot(func(key string) *measure.SnapshotSpec {
			return &measure.SnapshotSpec{Path: snapPath(key), Every: *snapEvery, Resume: *resumeFlag}
		}))
	}
	if metricsReg != nil {
		opts = append(opts, core.WithMetrics(metricsReg))
	}
	if *progress {
		opts = append(opts, core.WithProgress(reportProgress))
	}
	return opts
}

// reportProgress prints one line per completed job. The runner
// serializes calls, so plain Fprintf is safe.
func reportProgress(p core.BatchProgress) {
	status := "done"
	if p.Err != nil {
		status = "FAILED: " + p.Err.Error()
	}
	fmt.Fprintf(os.Stderr, "[%s %d/%d] %s %s\n", p.Batch, p.Done, p.Total, p.Job, status)
}

// commands is the subcommand table, in the order `ritw all` runs it.
var commands = []struct {
	name string
	run  func(context.Context, core.Scale) error
}{
	{"table1", cmdTable1},
	{"fig2", cmdFig2},
	{"fig3", cmdFig3},
	{"fig4", cmdFig4},
	{"table2", cmdTable2},
	{"fig5", cmdFig5},
	{"fig6", cmdFig6},
	{"fig7root", cmdFig7Root},
	{"fig7nl", cmdFig7NL},
	{"middlebox", cmdMiddlebox},
	{"ipv6", cmdIPv6},
	{"hardening", cmdHardening},
	{"planner", cmdPlanner},
	{"outage", cmdOutage},
	{"openres", cmdOpenResolver},
	{"scenarios", cmdScenarios},
	{"attacks", cmdAttacks},
	{"mix", cmdMix},
}

// usage is the one-line synopsis, generated from the command table.
func usage() string {
	names := make([]string, 0, len(commands)+1)
	for _, c := range commands {
		names = append(names, c.name)
	}
	return "usage: ritw [flags] <" + strings.Join(append(names, "all"), "|") + ">"
}

func main() {
	// blast owns its own flag set (load-harness knobs share nothing
	// with the figure pipeline), so it dispatches before flag.Parse.
	if len(os.Args) > 1 && os.Args[1] == "blast" {
		cmdBlast(os.Args[2:])
		return
	}
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, usage())
		fmt.Fprintln(os.Stderr, "       ritw blast [flags]   (open-loop load harness; see ritw blast -h)")
		flag.PrintDefaults()
		os.Exit(2)
	}
	scale, err := parseScale(*scaleStr)
	check(err)
	check(validateLayout(*shardsFlag, *snapEvery, *resumeFlag))
	if *mixFlag != "" {
		mixShares, err = parseMixSpec(*mixFlag)
		check(err)
	}
	if *metricsOut {
		metricsReg = obs.NewRegistry()
	}

	// Ctrl-C abandons in-flight simulation batches cleanly instead of
	// killing the process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	name := flag.Arg(0)
	ran := false
	for _, c := range commands {
		switch name {
		case "all":
			fmt.Printf("==== %s ====\n", c.name)
			check(c.run(ctx, scale))
			fmt.Println()
		case c.name:
			check(c.run(ctx, scale))
		default:
			continue
		}
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "ritw: unknown command %q\n", name)
		os.Exit(2)
	}
	dumpMetrics()
}

func dumpMetrics() {
	if metricsReg != nil {
		check(metricsReg.WriteText(os.Stderr))
	}
}

func parseScale(s string) (core.Scale, error) {
	switch s {
	case "small":
		return core.ScaleSmall, nil
	case "medium":
		return core.ScaleMedium, nil
	case "full":
		return core.ScaleFull, nil
	}
	return 0, fmt.Errorf("unknown scale %q", s)
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "ritw: %v\n", err)
		os.Exit(1)
	}
}

// source is one finished run as the figure commands read it: the
// aggregator its records streamed into, and the run summary
// (ActiveProbes, Sites, Interval) it returned.
type source struct {
	agg *analysis.Aggregator
	sum *measure.Dataset
}

// aggFor builds one aggregator under the CLI's seed, memory cap and
// metrics registry. label feeds the peak-size gauge.
func aggFor(label string, sites []string, duration time.Duration) *analysis.Aggregator {
	return analysis.NewAggregator(analysis.AggConfig{
		ComboID:    label,
		Sites:      sites,
		Duration:   duration,
		MaxSamples: sketchCap(),
		Seed:       *seed,
		Metrics:    metricsReg,
	})
}

// allSources executes all seven combinations once — fanned out across
// cores by the Runner — and caches the result across subcommands of
// `ritw all`. Each combination's records flow straight into its
// aggregator; with -out the -combo combination's also spill to CSV.
var table1Cache map[string]*source

func allSources(ctx context.Context, scale core.Scale) (map[string]*source, error) {
	if table1Cache != nil {
		return table1Cache, nil
	}
	aggs := make(map[string]*analysis.Aggregator)
	sinks := make(map[string]measure.Sink)
	for _, combo := range measure.Table1() {
		agg := aggFor(combo.ID, combo.Sites, measure.DefaultRunConfig(combo, 0).Duration)
		aggs[combo.ID], sinks[combo.ID] = agg, agg
	}
	opts := append(batchOpts(scale), core.WithSink(func(key string) measure.Sink { return sinks[key] }))

	var spill *os.File
	if *outFile != "" {
		f, base, skip, err := openSpill(*outFile, *comboID)
		if err != nil {
			return nil, err
		}
		spill = f
		// A resumed run replays the whole simulation (figures need the
		// aggregator to see every record) but skips the prefix the
		// previous run already wrote to the CSV.
		csv := measure.NewCSVSink(f, *comboID)
		if base > 0 {
			csv.SkipHeader()
		}
		if agg, ok := aggs[*comboID]; ok {
			sinks[*comboID] = measure.Tee(agg, measure.SkipRecords(csv, skip))
		}
		if *snapEvery > 0 {
			// Override batchOpts' generic snapshot factory with one whose
			// spec for the spilled combination records the CSV's durable
			// offset at every checkpoint, so -resume can truncate a
			// partially-written tail (openSpill does the truncation).
			opts = append(opts, core.WithSnapshot(func(key string) *measure.SnapshotSpec {
				spec := &measure.SnapshotSpec{Path: snapPath(key), Every: *snapEvery, Resume: *resumeFlag}
				if key == *comboID {
					spec.Sync = func() (int64, error) {
						if err := csv.Flush(); err != nil {
							return -1, err
						}
						return base + csv.Bytes(), nil
					}
				}
				return spec
			}))
		}
	}
	dss, err := core.RunTable1Context(ctx, opts...)
	if spill != nil {
		// Close carries the final flush: dropping its error would report
		// a truncated CSV as success.
		if cerr := spill.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	srcs := make(map[string]*source, len(dss))
	for id, ds := range dss {
		srcs[id] = &source{agg: aggs[id], sum: ds}
	}
	table1Cache = srcs
	return srcs, nil
}

// openSpill opens the -out CSV for the spill. Under -resume
// it reopens the existing file and truncates it to the offset the last
// checkpoint durably covered (a crash can leave a written-but-
// uncheckpointed tail), so the resumed run appends exactly the records
// the checkpoint hadn't seen. base is where appending starts and skip
// how many records the CSV already holds.
func openSpill(path, key string) (f *os.File, base, skip int64, err error) {
	if !*resumeFlag {
		f, err = os.Create(path)
		return f, 0, 0, err
	}
	snap, err := measure.LoadSnapshot(snapPath(key))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("-resume: %w", err)
	}
	if snap.OutBytes >= 0 {
		base, skip = snap.OutBytes, snap.Records
	}
	f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := f.Truncate(base); err != nil {
		f.Close()
		return nil, 0, 0, err
	}
	if _, err := f.Seek(base, io.SeekStart); err != nil {
		f.Close()
		return nil, 0, 0, err
	}
	return f, base, skip, nil
}

func cmdTable1(ctx context.Context, scale core.Scale) error {
	srcs, err := allSources(ctx, scale)
	if err != nil {
		return err
	}
	fmt.Println("Table 1: combinations of authoritatives and the VPs they see")
	fmt.Printf("%-4s %-25s %8s %9s\n", "ID", "locations", "VPs", "queries")
	for _, combo := range measure.Table1() {
		src := srcs[combo.ID]
		fmt.Printf("%-4s %-25s %8d %9d\n", combo.ID, strings.Join(combo.Sites, ", "),
			src.sum.ActiveProbes, src.agg.NumRecords())
	}
	return nil
}

func cmdFig2(ctx context.Context, scale core.Scale) error {
	srcs, err := allSources(ctx, scale)
	if err != nil {
		return err
	}
	fmt.Println("Figure 2: queries to probe all authoritatives, after the first query")
	fmt.Printf("%-10s %9s %6s %6s %6s %6s %6s\n", "combo(%all)", "VPs", "p10", "q1", "med", "q3", "p90")
	for _, combo := range measure.Table1() {
		res := srcs[combo.ID].agg.ProbeAll()
		fmt.Printf("%-3s(%4.1f%%) %9d %6.1f %6.1f %6.1f %6.1f %6.1f\n",
			res.ComboID, res.PercentAll, res.VPs,
			res.Box.P10, res.Box.Q1, res.Box.Median, res.Box.Q3, res.Box.P90)
	}
	return plotFig2(srcs)
}

func cmdFig3(ctx context.Context, scale core.Scale) error {
	srcs, err := allSources(ctx, scale)
	if err != nil {
		return err
	}
	fmt.Println("Figure 3: median RTT (top) and query share (bottom) per authoritative")
	for _, combo := range measure.Table1() {
		shares := srcs[combo.ID].agg.ShareVsRTT()
		fmt.Printf("%s:", combo.ID)
		for _, s := range shares {
			fmt.Printf("  %s rtt=%.0fms share=%.2f", s.Site, s.MedianRTT, s.Share)
		}
		fmt.Println()
	}
	return plotFig3(srcs)
}

func cmdFig4(ctx context.Context, scale core.Scale) error {
	srcs, err := allSources(ctx, scale)
	if err != nil {
		return err
	}
	fmt.Println("Figure 4: per-recursive preference (VPs with >=50ms RTT gap)")
	fmt.Printf("%-5s %10s %20s %20s\n", "combo", "qualified", "weak [95%CI]", "strong [95%CI]")
	for _, id := range []string{"2A", "2B", "2C"} {
		p := srcs[id].agg.Preference()
		weak, strong, err := srcs[id].agg.PreferenceCI(300, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("%-5s %10d %6.1f%% [%4.1f-%4.1f] %6.1f%% [%4.1f-%4.1f]\n",
			id, p.QualifiedVPs,
			100*p.WeakFrac, 100*weak.Lo, 100*weak.Hi,
			100*p.StrongFrac, 100*strong.Lo, 100*strong.Hi)
	}
	fmt.Println("(paper: weak 61/59/69%, strong 10/12/37% for 2A/2B/2C)")
	return plotFig4(srcs)
}

func cmdTable2(ctx context.Context, scale core.Scale) error {
	srcs, err := allSources(ctx, scale)
	if err != nil {
		return err
	}
	fmt.Println("Table 2: query share (%) and median RTT (ms) per continent")
	for _, id := range []string{"2A", "2B", "2C"} {
		src := srcs[id]
		t2 := src.agg.Table2()
		sites := src.sum.Sites
		fmt.Printf("config %s (%s/%s):\n", id, sites[0], sites[1])
		fmt.Printf("  %-4s", "cont")
		for _, site := range sites {
			fmt.Printf(" %14s", site)
		}
		fmt.Println()
		for _, cont := range geo.Continents() {
			cells, ok := t2[cont]
			if !ok {
				continue
			}
			fmt.Printf("  %-4s", cont)
			for _, site := range sites {
				c := cells[site]
				fmt.Printf("  %3.0f%% %6.0fms", c.SharePct, c.MedianRTT)
			}
			fmt.Println()
		}
	}
	return nil
}

func cmdFig5(ctx context.Context, scale core.Scale) error {
	srcs, err := allSources(ctx, scale)
	if err != nil {
		return err
	}
	fmt.Println("Figure 5: RTT sensitivity of 2B (fraction of queries vs median RTT)")
	for _, p := range srcs["2B"].agg.RTTSensitivity() {
		fmt.Printf("  %s -> %s: rtt=%.0fms fraction=%.2f (VPs=%d)\n",
			p.Continent, p.Site, p.MedianRTT, p.Fraction, p.VPs)
	}
	return plotFig5(srcs)
}

func cmdFig6(ctx context.Context, scale core.Scale) error {
	fmt.Println("Figure 6: fraction of queries to FRA (config 2C) vs probing interval")
	intervals := core.Figure6Intervals()
	combo, err := measure.CombinationByID("2C")
	if err != nil {
		return err
	}
	duration := measure.DefaultRunConfig(combo, 0).Duration
	aggs := make(map[string]*analysis.Aggregator, len(intervals))
	for _, ivl := range intervals {
		aggs[ivl.String()] = aggFor("2C@"+ivl.String(), combo.Sites, duration)
	}
	opts := append(batchOpts(scale), core.WithSink(func(key string) measure.Sink { return aggs[key] }))
	dss, err := core.RunIntervalSweepContext(ctx, intervals, opts...)
	if err != nil {
		return err
	}
	srcs := make([]*source, len(dss))
	for i, ds := range dss {
		srcs[i] = &source{agg: aggs[intervals[i].String()], sum: ds}
	}
	fmt.Printf("%-9s", "interval")
	for _, cont := range geo.Continents() {
		fmt.Printf(" %6s", cont)
	}
	fmt.Println()
	for _, src := range srcs {
		shares := src.agg.SiteShareByContinent("FRA")
		fmt.Printf("%-9s", src.sum.Interval)
		for _, cont := range geo.Continents() {
			fmt.Printf(" %6.2f", shares[cont])
		}
		fmt.Println()
	}
	return plotFig6(srcs)
}

func cmdFig7Root(ctx context.Context, scale core.Scale) error {
	trace, rb, err := core.RunRootTrace(*seed, scale)
	if err != nil {
		return err
	}
	fmt.Println("Figure 7 (top): root letters, recursives with >=250 queries/hour")
	fmt.Printf("  captured: %d queries from %d recursives at %d letters\n",
		trace.TotalQueries, trace.Recursives, len(trace.Observed))
	fmt.Printf("  busy recursives: %d\n", rb.Recursives)
	fmt.Printf("  query one letter only: %.1f%% (paper ~20%%)\n", 100*rb.OnlyOne)
	fmt.Printf("  query >=6 letters:     %.1f%% (paper ~60%%)\n", 100*rb.AtLeast6)
	fmt.Printf("  query all 10 letters:  %.1f%% (paper ~2%%)\n", 100*rb.All)
	fmt.Printf("  mean top-letter share: %.2f\n", rb.MeanTopShare)
	return plotFig7("fig7_root.svg", "Root letters: per-recursive rank bands", trace.PerRecursive(), 250)
}

func cmdFig7NL(ctx context.Context, scale core.Scale) error {
	trace, rb, err := core.RunNLTrace(*seed, scale)
	if err != nil {
		return err
	}
	fmt.Println("Figure 7 (bottom): .nl, 4 of 8 authoritatives observed")
	fmt.Printf("  captured: %d queries from %d recursives\n", trace.TotalQueries, trace.Recursives)
	fmt.Printf("  busy recursives: %d\n", rb.Recursives)
	fmt.Printf("  query one NS only: %.1f%%\n", 100*rb.OnlyOne)
	fmt.Printf("  query all 4 NSes:  %.1f%% (paper: the majority)\n", 100*rb.All)
	return plotFig7("fig7_nl.svg", ".nl: per-recursive rank bands", trace.PerRecursive(), 125)
}

func cmdMiddlebox(ctx context.Context, scale core.Scale) error {
	srcs, err := allSources(ctx, scale)
	if err != nil {
		return err
	}
	src := srcs["2A"]
	p := src.agg.Preference()
	aw, as, n := src.agg.AuthSidePreference(5)
	fmt.Println("§3.1 middlebox check: client-side vs authoritative-side view (2A)")
	fmt.Printf("  client side: weak=%.2f strong=%.2f (%d qualified VPs)\n",
		p.WeakFrac, p.StrongFrac, p.QualifiedVPs)
	fmt.Printf("  auth side:   weak=%.2f strong=%.2f (%d recursives >=5 queries)\n", aw, as, n)
	return nil
}

func cmdIPv6(ctx context.Context, scale core.Scale) error {
	combo, err := measure.CombinationByID("2B")
	if err != nil {
		return err
	}
	run := func(v6 bool, seedOff int64) (analysis.PreferenceResult, int, error) {
		cfg := measure.DefaultRunConfig(combo, *seed+seedOff)
		cfg.Population.NumProbes = scaleProbes(scale)
		cfg.IPv6Subset = v6
		cfg.Metrics = metricsReg
		cfg.Shards = *shardsFlag
		label := "2B-ipv6-all"
		if v6 {
			label = "2B-ipv6-subset"
		}
		agg := aggFor(label, combo.Sites, cfg.Duration)
		cfg.Sink = agg
		sum, err := measure.RunContext(ctx, cfg)
		if err != nil {
			return analysis.PreferenceResult{}, 0, err
		}
		return agg.Preference(), sum.ActiveProbes, nil
	}
	full, nFull, err := run(false, 0)
	if err != nil {
		return err
	}
	sub, nSub, err := run(true, 0)
	if err != nil {
		return err
	}
	fmt.Println("§3.1 IPv6 check: strategies match on the IPv6-capable subset (2B)")
	fmt.Printf("  all probes (%5d): weak=%.2f strong=%.2f\n", nFull, full.WeakFrac, full.StrongFrac)
	fmt.Printf("  IPv6 subset (%4d): weak=%.2f strong=%.2f\n", nSub, sub.WeakFrac, sub.StrongFrac)
	return nil
}

func cmdHardening(ctx context.Context, scale core.Scale) error {
	srcs, err := allSources(ctx, scale)
	if err != nil {
		return err
	}
	fmt.Println("§4.3: weak preferences harden over the hour")
	for _, id := range []string{"2A", "2B", "2C"} {
		h := srcs[id].agg.PreferenceHardening()
		fmt.Printf("  %s: first half %.3f -> second half %.3f (%d weak VPs)\n",
			id, h.FirstHalf, h.SecondHalf, h.VPs)
	}
	return nil
}

func cmdPlanner(context.Context, core.Scale) error {
	fmt.Println("§7 planner: worst-case latency is limited by the least anycast authoritative")
	cfg := core.DefaultPlannerConfig()
	reports := []core.Deployment{core.NLCurrent(), core.NLAllAnycast()}
	var evaluated []core.PlanReport
	for _, d := range reports {
		rep, err := core.Evaluate(d, cfg)
		if err != nil {
			return err
		}
		evaluated = append(evaluated, rep)
		fmt.Print(rep.String())
	}
	naShare, err := core.QueriesFromRegionShare(core.NLCurrent(), "ns1", geo.NorthAmerica, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("case study: %.0f%% of queries at a unicast Dutch NS come from North America (paper: 23%% from the US)\n", 100*naShare)
	sort.Slice(evaluated, func(i, j int) bool { return evaluated[i].MeanLatency < evaluated[j].MeanLatency })
	fmt.Printf("recommendation: %q wins (mean %.1fms)\n", evaluated[0].Deployment, evaluated[0].MeanLatency)
	return nil
}

// cmdOutage injects a 20-minute failure of FRA into 2B and reports the
// failover behaviour (§7 "Other Considerations").
func cmdOutage(ctx context.Context, scale core.Scale) error {
	combo, err := measure.CombinationByID("2B")
	if err != nil {
		return err
	}
	cfg := measure.DefaultRunConfig(combo, *seed)
	cfg.Population = atlasConfig(scale)
	cfg.Faults = &faults.Schedule{Outages: []faults.Outage{{Site: "FRA", Start: 20 * time.Minute, End: 40 * time.Minute}}}
	cfg.Shards = *shardsFlag
	cfg.Metrics = metricsReg
	agg := analysis.NewFaultAggregator(analysis.WindowsFromSchedule(cfg.Faults), sketchCap(), *seed)
	cfg.Sink = agg
	if _, err := measure.RunContext(ctx, cfg); err != nil {
		return err
	}
	impact := agg.Impacts()[0]
	fmt.Println("failure injection: FRA down 20-40min during a 2B run")
	for _, row := range []struct {
		name string
		p    analysis.PhaseStats
	}{{"before", impact.Before}, {"during", impact.During}, {"after", impact.After}} {
		fmt.Printf("  %-7s queries=%6d FRA-share=%4.0f%% fail=%4.1f%% medianRTT=%4.0fms\n",
			row.name, row.p.Queries, 100*row.p.SiteShare["FRA"], 100*row.p.FailRate, row.p.MedianRTT)
	}
	return nil
}

// cmdOpenResolver runs the open-resolver scan variant (the paper's
// stated future work) and compares its preference bands to the
// probe-based measurement.
func cmdOpenResolver(ctx context.Context, scale core.Scale) error {
	combo, err := measure.CombinationByID("2C")
	if err != nil {
		return err
	}
	cfg := measure.DefaultOpenResolverConfig(combo, *seed)
	cfg.NumResolvers = scaleProbes(scale) / 4
	cfg.Metrics = metricsReg
	agg := aggFor(combo.ID+"-open", combo.Sites, cfg.Duration)
	cfg.Sink = agg
	sum, err := measure.RunOpenResolversContext(ctx, cfg)
	if err != nil {
		return err
	}
	p := agg.Preference()
	fmt.Printf("open-resolver scan of 2C: %d resolvers, %d records\n",
		sum.ActiveProbes, agg.NumRecords())
	fmt.Printf("  qualified=%d weak=%.1f%% strong=%.1f%%\n",
		p.QualifiedVPs, 100*p.WeakFrac, 100*p.StrongFrac)
	shares := agg.SiteShareByContinent("FRA")
	fmt.Printf("  EU share to FRA: %.2f (probe-based measurement agrees)\n", shares[geo.Europe])
	return nil
}

// atlasConfig builds the scaled population config.
func atlasConfig(scale core.Scale) atlas.Config {
	pc := atlas.DefaultConfig(*seed)
	pc.NumProbes = scaleProbes(scale)
	return pc
}
