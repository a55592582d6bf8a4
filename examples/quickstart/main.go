// The quickstart example runs one paper-style measurement (combination
// 2C: Frankfurt vs Sydney) on the simulated Internet and prints the
// headline findings: most recursives probe every authoritative, query
// share follows latency, and a large fraction of recursives develop a
// preference for the nearer site.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"ritw/internal/analysis"
	"ritw/internal/core"
	"ritw/internal/geo"
)

func main() {
	fmt.Println("Running combination 2C (FRA + SYD), 1 virtual hour, 2-minute probing...")
	ds, err := core.RunCombinationContext(context.Background(), "2C",
		core.WithSeed(1), core.WithScale(core.ScaleSmall))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %s\n\n", ds.Summary())

	// Replay the run's stored records through the aggregator that
	// finalizes every per-combination figure.
	agg := analysis.Aggregate(ds)

	probeAll := agg.ProbeAll()
	fmt.Printf("Do recursives query all authoritatives? (Figure 2)\n")
	fmt.Printf("  %.1f%% of %d vantage points reached both sites;\n",
		probeAll.PercentAll, probeAll.VPs)
	fmt.Printf("  median %.0f extra queries to see both (p90 %.0f)\n\n",
		probeAll.Box.Median, probeAll.Box.P90)

	fmt.Println("How are queries distributed? (Figure 3)")
	for _, s := range agg.ShareVsRTT() {
		fmt.Printf("  %s: median RTT %.0f ms -> %.0f%% of queries\n",
			s.Site, s.MedianRTT, 100*s.Share)
	}
	fmt.Println()

	pref := agg.Preference()
	fmt.Println("Per-recursive preference (Figure 4, VPs with a >=50 ms RTT gap):")
	fmt.Printf("  weak (>=60%% to one site):   %.0f%%\n", 100*pref.WeakFrac)
	fmt.Printf("  strong (>=90%% to one site): %.0f%%\n\n", 100*pref.StrongFrac)

	t2 := agg.Table2()
	fmt.Println("Per-continent split (Table 2):")
	for _, cont := range geo.Continents() {
		cells, ok := t2[cont]
		if !ok {
			continue
		}
		fmt.Printf("  %s: FRA %.0f%% (%.0f ms)  SYD %.0f%% (%.0f ms)\n", cont,
			cells["FRA"].SharePct, cells["FRA"].MedianRTT,
			cells["SYD"].SharePct, cells["SYD"].MedianRTT)
	}
	fmt.Println("\nEuropean recursives favour Frankfurt; Oceania favours Sydney —")
	fmt.Println("the paper's core observation, regenerated in seconds.")
}
