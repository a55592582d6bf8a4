package measure

import (
	"bytes"
	"os"
	"reflect"
	"testing"
	"time"

	"ritw/internal/attacks"
	"ritw/internal/obs"
)

// attackCfg builds a 2B run carrying the given attack schedule and
// defense matrix.
func attackCfg(t *testing.T, probes int, seed int64, sched *attacks.Schedule, def attacks.Defenses) RunConfig {
	t.Helper()
	cfg := shardCfg(t, "2B", probes, seed)
	cfg.Attacks = sched
	cfg.Defense = def
	return cfg
}

// allKindsSchedule exercises every attack family in one run, with
// windows inside the 20-minute shardCfg duration.
func allKindsSchedule() *attacks.Schedule {
	return &attacks.Schedule{
		NXNS: []attacks.NXNS{{
			Start: 5 * time.Minute, End: 15 * time.Minute,
			Interval: 20 * time.Second, Fraction: 0.25, Fanout: 8,
		}},
		Floods: []attacks.Flood{{
			Start: 4 * time.Minute, End: 16 * time.Minute,
			Interval: 10 * time.Second, Fraction: 0.3, Names: 20,
		}},
		Reflections: []attacks.Reflection{{
			Start: 6 * time.Minute, End: 14 * time.Minute,
			Interval: 10 * time.Second, Fraction: 0.5,
		}},
	}
}

// TestAttackScheduleDeterminism pins the tentpole's contract: the same
// seed and the same attack schedule reproduce the dataset byte for
// byte, attack ledger included — campaigns compile on their own keyed
// stream (Seed+11) and never touch shared state.
func TestAttackScheduleDeterminism(t *testing.T) {
	t.Parallel()
	run := func() (*Dataset, []byte) {
		ds, err := Run(attackCfg(t, 150, 23, allKindsSchedule(), attacks.Defenses{MaxFetch: 3}))
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
		t.Fatal("same seed + same attack schedule produced different datasets")
	}
	if ds1.Attacks == nil || ds2.Attacks == nil {
		t.Fatal("attacked runs should carry an attack ledger")
	}
	if !reflect.DeepEqual(ds1.Attacks, ds2.Attacks) {
		t.Fatalf("attack ledgers diverged:\n%+v\n%+v", ds1.Attacks, ds2.Attacks)
	}
	if len(ds1.Attacks.Entries) != 3 {
		t.Fatalf("want one ledger entry per campaign, got %d", len(ds1.Attacks.Entries))
	}
	for _, e := range ds1.Attacks.Entries {
		if e.Bots == 0 || e.AttackQueries == 0 {
			t.Errorf("%s#%d: no attack traffic recorded: %+v", e.Kind, e.Index, e)
		}
	}
}

// TestAttackFreeRunUnchanged guards the gating: a nil schedule and an
// empty non-nil schedule must both skip attack setup entirely and
// reproduce the plain run's bytes — adding the attacks package must
// not perturb a single benign record.
func TestAttackFreeRunUnchanged(t *testing.T) {
	t.Parallel()
	plain := shardCfg(t, "2B", 120, 23)
	base, baseDS := runToCSV(t, plain)
	empty := attackCfg(t, 120, 23, &attacks.Schedule{}, attacks.Defenses{})
	got, gotDS := runToCSV(t, empty)
	if !bytes.Equal(base, got) {
		t.Errorf("empty attack schedule perturbed the run: %s", firstDiff(got, base))
	}
	if baseDS.Attacks != nil || gotDS.Attacks != nil {
		t.Errorf("attack-free runs should carry no ledger, got %+v and %+v", baseDS.Attacks, gotDS.Attacks)
	}
}

// floodVictim runs a water-torture-only config and returns the
// victim-side ledger entry plus the resolver negative-cache hit count.
func floodVictim(t *testing.T, noNegCache bool) (attacks.EntryReport, int64) {
	t.Helper()
	sched := &attacks.Schedule{
		Floods: []attacks.Flood{{
			Start: 2 * time.Minute, End: 18 * time.Minute,
			Interval: 5 * time.Second, Fraction: 0.4, Names: 10,
		}},
	}
	cfg := attackCfg(t, 150, 31, sched, attacks.Defenses{NoNegativeCache: noNegCache})
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	ds, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Attacks == nil || len(ds.Attacks.Entries) != 1 {
		t.Fatalf("want one flood ledger entry, got %+v", ds.Attacks)
	}
	return ds.Attacks.Entries[0], reg.Snapshot().Counter("resolver_negcache_hits_total")
}

// TestFloodNegativeCacheRegression is the negative-cache regression
// pin at the measurement level: a repeated-name water-torture flood
// against RFC 2308-faithful resolvers must be served mostly from
// negative cache entries (each of a bot's pool names costs one
// upstream query per negTTL, not one per query), while disabling the
// cache forwards the full flood to the victim's authoritatives.
func TestFloodNegativeCacheRegression(t *testing.T) {
	t.Parallel()
	defended, negHits := floodVictim(t, false)
	undefended, offHits := floodVictim(t, true)

	if negHits == 0 {
		t.Error("flood with negative caching recorded no resolver_negcache_hits_total")
	}
	if offHits != 0 {
		t.Errorf("flood with caching disabled still recorded %d negative-cache hits", offHits)
	}
	if defended.AttackQueries != undefended.AttackQueries {
		t.Fatalf("bot-side load should not depend on the defense: %d vs %d",
			defended.AttackQueries, undefended.AttackQueries)
	}
	if undefended.VictimQueries < defended.VictimQueries*2 {
		t.Errorf("negative caching absorbed too little: victim saw %d queries defended, %d undefended",
			defended.VictimQueries, undefended.VictimQueries)
	}
	// Every repeated name should be answered upstream at most once per
	// negTTL (300s here): the defended victim load stays a small
	// fraction of the bot load.
	if 2*defended.VictimQueries > undefended.VictimQueries+defended.VictimQueries {
		t.Errorf("defended victim load %d should be well under the undefended %d",
			defended.VictimQueries, undefended.VictimQueries)
	}
}

// Amplification bounds for the gated NXNS regression test. The
// undefended floor is paper-class: NXNSAttack reports per-query
// amplification proportional to the crafted referral fanout, so an
// undefended resolver chasing a fanout-12 referral must multiply the
// bot load by at least 10x (slack covers the campaign edge where a
// query lands after the window closes). The defended ceiling pins the
// MaxFetch budget: at MaxFetch=2 the victim sees at most 2 fetches per
// bot query plus rounding slack.
const (
	nxnsUndefendedFloor = 10.0
	nxnsMaxFetchCeiling = 2.05
)

// TestBenchGateAmplification is the CI amplification-bound gate: with
// the MaxFetch defense enabled, NXNS amplification stays under the
// checked-in ceiling, while the undefended run exceeds the paper-class
// floor — so a regression in either the attack generator (amplifier
// quietly weakened) or the defense (budget quietly bypassed) fails the
// gate. Gated behind RITW_BENCH_GATE=1.
func TestBenchGateAmplification(t *testing.T) {
	if os.Getenv("RITW_BENCH_GATE") == "" {
		t.Skip("set RITW_BENCH_GATE=1 to run the bench regression gate")
	}
	sched := &attacks.Schedule{
		NXNS: []attacks.NXNS{{
			Start: 2 * time.Minute, End: 18 * time.Minute,
			Interval: 10 * time.Second, Fraction: 0.3, Fanout: 12,
		}},
	}
	amp := func(def attacks.Defenses) float64 {
		ds, err := Run(attackCfg(t, 150, 47, sched, def))
		if err != nil {
			t.Fatal(err)
		}
		if ds.Attacks == nil || len(ds.Attacks.Entries) != 1 {
			t.Fatalf("want one nxns ledger entry, got %+v", ds.Attacks)
		}
		e := ds.Attacks.Entries[0]
		if e.AttackQueries == 0 {
			t.Fatal("nxns campaign generated no bot queries")
		}
		return e.AmpQueries()
	}

	undefended := amp(attacks.Defenses{})
	defended := amp(attacks.Defenses{MaxFetch: 2})
	t.Logf("nxns fanout 12: undefended %.2fx, maxfetch=2 %.2fx", undefended, defended)
	if undefended < nxnsUndefendedFloor {
		t.Errorf("undefended amplification %.2fx below the paper-class floor %.1fx", undefended, nxnsUndefendedFloor)
	}
	if defended > nxnsMaxFetchCeiling {
		t.Errorf("MaxFetch=2 amplification %.2fx above the ceiling %.2fx", defended, nxnsMaxFetchCeiling)
	}
	if defended >= undefended/3 {
		t.Errorf("defense barely helps: %.2fx defended vs %.2fx undefended", defended, undefended)
	}
}
