// The failover example injects a site failure into a running
// measurement — the scenario behind the paper's §7 "Other
// Considerations" (anycast and multiple authoritatives as DDoS and
// fault-tolerance measures, citing the Nov 2015 Root DNS event). It
// shows recursives failing over to the surviving authoritative within
// their retry budget, and drifting back after recovery.
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"log"
	"time"

	"ritw/internal/analysis"
	"ritw/internal/atlas"
	"ritw/internal/faults"
	"ritw/internal/measure"
)

func main() {
	combo, err := measure.CombinationByID("2B")
	if err != nil {
		log.Fatal(err)
	}
	start, end := 20*time.Minute, 40*time.Minute
	cfg := measure.DefaultRunConfig(combo, 7)
	pc := atlas.DefaultConfig(7)
	pc.NumProbes = 1200
	cfg.Population = pc
	cfg.Faults = &faults.Schedule{Outages: []faults.Outage{{Site: "FRA", Start: start, End: end}}}

	// The run streams its records into the impact aggregator; nothing
	// is kept but the before/during/after tallies.
	agg := analysis.NewFaultAggregator(analysis.WindowsFromSchedule(cfg.Faults), 0, 0)
	cfg.Sink = agg

	fmt.Printf("Running 2B (DUB + FRA) with FRA down from %v to %v...\n\n", start, end)
	if _, err := measure.Run(cfg); err != nil {
		log.Fatal(err)
	}

	impact := agg.Impacts()[0]
	rows := []struct {
		name string
		w    analysis.PhaseStats
	}{
		{"before", impact.Before},
		{"during", impact.During},
		{"after", impact.After},
	}
	fmt.Printf("%-8s %8s %10s %11s %12s\n", "window", "queries", "FRA share", "fail rate", "median RTT")
	for _, r := range rows {
		fmt.Printf("%-8s %8d %9.0f%% %10.1f%% %10.0fms\n",
			r.name, r.w.Queries, 100*r.w.SiteShare["FRA"], 100*r.w.FailRate, r.w.MedianRTT)
	}

	fmt.Println("\nDuring the outage every answered query comes from Dublin: the")
	fmt.Println("resolvers' timeout-and-retry logic absorbs the failure at the cost")
	fmt.Println("of extra latency, and Frankfurt wins its traffic back afterwards.")
	fmt.Println("This is why operators run multiple authoritatives — and why the")
	fmt.Println("paper wants each of them strong enough to take the load.")
}
