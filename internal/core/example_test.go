package core_test

import (
	"context"
	"fmt"
	"log"

	"ritw/internal/analysis"
	"ritw/internal/core"
	"ritw/internal/geo"
)

// ExampleRunCombinationContext reproduces the paper's headline
// measurement: deploy combination 2C (Frankfurt + Sydney), probe it
// for a virtual hour, and classify the per-recursive preferences.
func ExampleRunCombinationContext() {
	ds, err := core.RunCombinationContext(context.Background(), "2C",
		core.WithSeed(1), core.WithScale(core.ScaleSmall))
	if err != nil {
		log.Fatal(err)
	}
	pref := analysis.Aggregate(ds).Preference()
	fmt.Printf("qualified VPs: %d, weak: %.0f%%, strong: %.0f%%\n",
		pref.QualifiedVPs, 100*pref.WeakFrac, 100*pref.StrongFrac)
	// Not asserting exact output: the run is stochastic by seed.
}

// ExampleEvaluate applies the §7 deployment planner to the paper's
// .nl case study.
func ExampleEvaluate() {
	report, err := core.Evaluate(core.NLCurrent(), core.DefaultPlannerConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("worst authoritative: %s (unicast=%v)\n",
		report.WorstAuthName, !report.PerAuth[len(report.PerAuth)-1].Anycast)
	// Output: worst authoritative: ns5 (unicast=true)
}

// ExampleQueriesFromRegionShare quantifies how much of a unicast Dutch
// authoritative's traffic comes from across the Atlantic.
func ExampleQueriesFromRegionShare() {
	share, err := core.QueriesFromRegionShare(core.NLCurrent(), "ns1",
		geo.NorthAmerica, core.DefaultPlannerConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("meaningful share: %v\n", share > 0.03)
	// Output: meaningful share: true
}
