package analysis

import (
	"testing"
	"time"

	"ritw/internal/atlas"
	"ritw/internal/faults"
	"ritw/internal/measure"
)

// faultImpacts replays a finished run through a fresh exact
// FaultAggregator.
func faultImpacts(ds *measure.Dataset, windows []FaultWindow) []FaultImpact {
	agg := NewFaultAggregator(windows, 0, 0)
	ds.Replay(agg)
	return agg.Impacts()
}

// outageImpact is the single-window account of site being down during
// [start, end).
func outageImpact(ds *measure.Dataset, site string, start, end time.Duration) FaultImpact {
	return faultImpacts(ds, []FaultWindow{{Label: "outage " + site, Site: site, Start: start, End: end}})[0]
}

func TestOutageImpact(t *testing.T) {
	combo, err := measure.CombinationByID("2B")
	if err != nil {
		t.Fatal(err)
	}
	cfg := measure.DefaultRunConfig(combo, 37)
	pc := atlas.DefaultConfig(37)
	pc.NumProbes = 400
	cfg.Population = pc
	start, end := 20*time.Minute, 40*time.Minute
	cfg.Faults = &faults.Schedule{Outages: []faults.Outage{{Site: "FRA", Start: start, End: end}}}
	ds, err := measure.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	impact := outageImpact(ds, "FRA", start, end)
	if impact.Before.Queries == 0 || impact.During.Queries == 0 || impact.After.Queries == 0 {
		t.Fatalf("windows missing traffic: %+v", impact)
	}
	if share := impact.During.SiteShare["FRA"]; share != 0 {
		t.Errorf("failed site served %.2f of answered queries while down", share)
	}
	if impact.Before.SiteShare["FRA"] == 0 {
		t.Error("failed site should have served traffic beforehand")
	}
	// With hold-down failover the client failure rate barely moves
	// during a single-site outage (resolvers switch within the client
	// timeout); the robust client-visible fingerprints are the retry
	// latency penalty and the dead site's share dropping to zero.
	if impact.During.FailRate > 0.3 {
		t.Errorf("failover should bound the damage: fail rate %.2f", impact.During.FailRate)
	}
	if impact.During.MedianRTT < impact.Before.MedianRTT+5 {
		t.Errorf("outage retries should cost latency: median RTT %.1f -> %.1f",
			impact.Before.MedianRTT, impact.During.MedianRTT)
	}
	// After recovery the failure rate returns to baseline-ish.
	if impact.After.FailRate > impact.During.FailRate {
		t.Errorf("failure rate should recover: during=%.3f after=%.3f",
			impact.During.FailRate, impact.After.FailRate)
	}
}

func TestOutageImpactEmptyDataset(t *testing.T) {
	ds := &measure.Dataset{ComboID: "X", Sites: []string{"FRA", "DUB"}, Duration: time.Hour}
	impact := outageImpact(ds, "FRA", 10*time.Minute, 20*time.Minute)
	if impact.Before.Queries != 0 || impact.During.FailRate != 0 || impact.After.MedianRTT != 0 {
		t.Errorf("empty dataset impact = %+v", impact)
	}
}

// TestFaultImpactsMultiWindow runs a schedule with two overlapping
// faults on different sites and checks the per-window accounts.
func TestFaultImpactsMultiWindow(t *testing.T) {
	combo, err := measure.CombinationByID("2B")
	if err != nil {
		t.Fatal(err)
	}
	cfg := measure.DefaultRunConfig(combo, 41)
	pc := atlas.DefaultConfig(41)
	pc.NumProbes = 300
	cfg.Population = pc
	sched := &faults.Schedule{
		Outages: []faults.Outage{
			{Site: "FRA", Start: 15 * time.Minute, End: 35 * time.Minute},
			{Site: "DUB", Start: 30 * time.Minute, End: 45 * time.Minute},
		},
	}
	cfg.Faults = sched
	ds, err := measure.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	windows := WindowsFromSchedule(sched)
	if len(windows) != 2 {
		t.Fatalf("windows = %d", len(windows))
	}
	impacts := faultImpacts(ds, windows)
	for _, fi := range impacts {
		if fi.During.Queries == 0 || fi.Before.Queries == 0 {
			t.Fatalf("%s: empty phases: %+v", fi.Window.Label, fi)
		}
		if share := fi.During.SiteShare[fi.Window.Site]; share > 0.10 {
			t.Errorf("%s: dead site still served %.1f%% of answered queries",
				fi.Window.Label, 100*share)
		}
		if fi.Before.SiteShare[fi.Window.Site] == 0 {
			t.Errorf("%s: site served nothing before its fault", fi.Window.Label)
		}
	}
	// 30–35 min is a both-sites-dead overlap: clients must fail hard
	// there. Check via a dedicated window over the overlap.
	overlap := faultImpacts(ds, []FaultWindow{{
		Label: "overlap", Start: 30 * time.Minute, End: 35 * time.Minute,
	}})[0]
	if overlap.During.FailRate < 0.9 {
		t.Errorf("both sites down: fail rate %.2f, want near-total failure",
			overlap.During.FailRate)
	}

	// The run report carries the injector's cut timeline for each site.
	if ds.Faults == nil || len(ds.Faults.Cut["FRA"]) == 0 || len(ds.Faults.Cut["DUB"]) == 0 {
		t.Fatalf("dataset fault report incomplete: %+v", ds.Faults)
	}
	if len(ds.Faults.Transitions) != 4 {
		t.Errorf("transitions = %d, want 4", len(ds.Faults.Transitions))
	}
}
