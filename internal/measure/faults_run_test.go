package measure

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"ritw/internal/atlas"
	"ritw/internal/faults"
	"ritw/internal/resolver"
)

// faultedConfig builds a 2B run with a schedule exercising every fault
// kind that draws randomness (burst, flap) plus deterministic shaping.
func faultedConfig(seed int64, probes int) RunConfig {
	combo, _ := CombinationByID("2B")
	cfg := DefaultRunConfig(combo, seed)
	pc := atlas.DefaultConfig(seed)
	pc.NumProbes = probes
	cfg.Population = pc
	cfg.Faults = &faults.Schedule{
		Outages: []faults.Outage{{Site: "DUB", Start: 45 * time.Minute, End: 55 * time.Minute}},
		Flaps: []faults.Flap{{
			Site: "FRA", Start: 10 * time.Minute, End: 26 * time.Minute,
			Period: 4 * time.Minute, DownFrac: 0.5,
		}},
		Bursts: []faults.LossBurst{{
			Site: "DUB", Start: 5 * time.Minute, End: 25 * time.Minute, Rate: 0.3, Fraction: 0.5,
		}},
		Slowdowns: []faults.Slowdown{{
			Site: "FRA", Start: 30 * time.Minute, End: 40 * time.Minute, AddRTT: 100 * time.Millisecond,
		}},
		Partitions: []faults.Partition{{
			Site: "FRA", Start: 42 * time.Minute, End: 50 * time.Minute, Fraction: 0.5,
		}},
	}
	return cfg
}

// TestFaultScheduleDeterminism is the PR's acceptance gate: the same
// seed and the same fault schedule must reproduce the dataset byte for
// byte, fault report included — the injector draws from its own seeded
// stream (Seed+7), never from shared state.
func TestFaultScheduleDeterminism(t *testing.T) {
	t.Parallel()
	run := func() (*Dataset, []byte) {
		ds, err := Run(faultedConfig(23, 200))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ds.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return ds, buf.Bytes()
	}
	ds1, csv1 := run()
	ds2, csv2 := run()
	if !bytes.Equal(csv1, csv2) {
		t.Fatal("same seed + same fault schedule produced different datasets")
	}
	if ds1.Faults == nil || ds2.Faults == nil {
		t.Fatal("faulted runs should carry an injector report")
	}
	if !reflect.DeepEqual(ds1.Faults, ds2.Faults) {
		t.Fatalf("fault reports diverged:\n%+v\n%+v", ds1.Faults, ds2.Faults)
	}
	if ds1.Faults.Drops == 0 {
		t.Error("schedule with outage+flap+burst should cut packets")
	}
	if ds1.Faults.Delayed == 0 {
		t.Error("slowdown window should delay packets")
	}
}

// TestFaultSeedChangesOutcome guards against the injector accidentally
// ignoring its seed: a different run seed must perturb the burst draws.
func TestFaultSeedChangesOutcome(t *testing.T) {
	t.Parallel()
	ds1, err := Run(faultedConfig(23, 200))
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := Run(faultedConfig(24, 200))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(ds1.Faults, ds2.Faults) {
		t.Error("different seeds produced identical fault reports")
	}
}

// deadSiteRun executes 2B with FRA dead for the whole run and the
// given hold-down policy, returning the dataset.
func deadSiteRun(t *testing.T, backoff *resolver.BackoffConfig) *Dataset {
	t.Helper()
	combo, err := CombinationByID("2B")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultRunConfig(combo, 19)
	pc := atlas.DefaultConfig(19)
	pc.NumProbes = 300
	cfg.Population = pc
	cfg.Faults = &faults.Schedule{
		Outages: []faults.Outage{{Site: "FRA", Start: 0, End: 2 * time.Hour}},
	}
	cfg.Backoff = backoff
	ds, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Faults == nil {
		t.Fatal("faulted run should carry an injector report")
	}
	return ds
}

func answerRate(ds *Dataset) float64 {
	answered := 0
	for _, r := range ds.Records {
		if r.OK {
			answered++
		}
	}
	return float64(answered) / float64(max(1, len(ds.Records)))
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// TestBackoffShedsDeadSiteTraffic is the NXNSAttack-shaped acceptance
// criterion at the measurement layer: with one permanently dead site,
// hold-down backoff makes the dead site's query timeline decay
// geometrically instead of retrying at full rate, while the
// client-observed answer rate stays at or above the no-backoff
// baseline.
func TestBackoffShedsDeadSiteTraffic(t *testing.T) {
	t.Parallel()
	on := deadSiteRun(t, nil) // resolver.DefaultBackoff
	off := deadSiteRun(t, &resolver.BackoffConfig{Disabled: true})

	cutOn, cutOff := on.Faults.Cut["FRA"], off.Faults.Cut["FRA"]
	if len(cutOn) < 4 || len(cutOff) < 4 {
		t.Fatalf("expected multi-bucket cut timelines, got on=%v off=%v", cutOn, cutOff)
	}

	// Geometric decay: after the discovery spike, each later half of the
	// backoff timeline carries less traffic than the one before it, and
	// the tail is a small fraction of the head.
	head, tail := sum(cutOn[:len(cutOn)/2]), sum(cutOn[len(cutOn)/2:])
	if head == 0 {
		t.Fatalf("dead site saw no traffic at all: %v", cutOn)
	}
	if tail*2 > head {
		t.Errorf("backoff timeline not decaying: head=%d tail=%d (%v)", head, tail, cutOn)
	}
	if last := cutOn[len(cutOn)-1]; last*4 > cutOn[0] {
		t.Errorf("final bucket %d should be well below the initial spike %d (%v)",
			last, cutOn[0], cutOn)
	}

	// Shedding: backoff must cut materially fewer packets against the
	// dead site than full-rate retrying does.
	if totOn, totOff := sum(cutOn), sum(cutOff); totOn*2 > totOff {
		t.Errorf("backoff should shed dead-site retries: with=%d without=%d", totOn, totOff)
	}

	// Client view: skipping the dead site must not cost answers.
	rateOn, rateOff := answerRate(on), answerRate(off)
	if rateOn < rateOff {
		t.Errorf("answer rate with backoff %.4f fell below no-backoff baseline %.4f",
			rateOn, rateOff)
	}
	if rateOn < 0.9 {
		t.Errorf("answer rate with backoff %.4f; failover should absorb the dead site", rateOn)
	}
}

// TestOutagesOnTwoSites: outages of different sites compose into one
// injector that cuts both, and a same-site overlap is rejected by the
// run before any simulation starts.
func TestOutagesOnTwoSites(t *testing.T) {
	t.Parallel()
	combo, _ := CombinationByID("2B")
	cfg := DefaultRunConfig(combo, 11)
	pc := atlas.DefaultConfig(11)
	pc.NumProbes = 120
	cfg.Population = pc
	fra := faults.Outage{Site: "FRA", Start: 10 * time.Minute, End: 20 * time.Minute}
	cfg.Faults = &faults.Schedule{Outages: []faults.Outage{
		fra, {Site: "DUB", Start: 30 * time.Minute, End: 40 * time.Minute},
	}}
	ds, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Faults.Cut["FRA"]) == 0 || len(ds.Faults.Cut["DUB"]) == 0 {
		t.Errorf("schedule should cut both sites: %+v", ds.Faults.Cut)
	}

	cfg.Faults = &faults.Schedule{Outages: []faults.Outage{
		fra, {Site: "FRA", Start: 15 * time.Minute, End: 25 * time.Minute},
	}}
	if _, err := Run(cfg); err == nil {
		t.Error("overlapping outages on one site should fail validation")
	}
}
