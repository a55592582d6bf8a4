package measure

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"ritw/internal/atlas"
	"ritw/internal/attacks"
	"ritw/internal/faults"
)

// shardCfg builds a scaled-down run config for the cross-check tests.
func shardCfg(t *testing.T, comboID string, probes int, seed int64) RunConfig {
	t.Helper()
	combo, err := CombinationByID(comboID)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultRunConfig(combo, seed)
	pc := atlas.DefaultConfig(seed)
	pc.NumProbes = probes
	cfg.Population = pc
	cfg.Duration = 20 * time.Minute
	return cfg
}

// runToCSV executes cfg into a CSV sink, returning the exact CSV bytes
// plus the dataset from a second, record-keeping run of the same
// config.
func runToCSV(t *testing.T, cfg RunConfig) ([]byte, *Dataset) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := runInto(cfg, NewCSVSink(&buf, cfg.Combo.ID)); err != nil {
		t.Fatal(err)
	}
	ds, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), ds
}

// fiveKindSchedule exercises every fault family against combination 3B
// (DUB/FRA/IAD).
func fiveKindSchedule() *faults.Schedule {
	return &faults.Schedule{
		Outages: []faults.Outage{{Site: "DUB", Start: 4 * time.Minute, End: 8 * time.Minute}},
		Flaps: []faults.Flap{{Site: "FRA", Start: 10 * time.Minute, End: 14 * time.Minute,
			Period: time.Minute, DownFrac: 0.5}},
		Bursts: []faults.LossBurst{{Site: "IAD", Start: 2 * time.Minute, End: 16 * time.Minute,
			Rate: 0.3, Fraction: 0.5}},
		Slowdowns: []faults.Slowdown{{Site: "FRA", Start: 1 * time.Minute, End: 9 * time.Minute,
			AddRTT: 80 * time.Millisecond, Fraction: 0.4}},
		Partitions: []faults.Partition{{Site: "IAD", Start: 6 * time.Minute, End: 12 * time.Minute,
			Fraction: 0.3}},
	}
}

// layoutCase is one row of the layout cross-check: a config builder and
// the shard counts whose output must match the single-lane run.
type layoutCase struct {
	name   string
	cfg    func(t *testing.T) RunConfig
	shards []int
}

// layoutCases is every feature's registration in the cross-check. A new
// stream-shaping feature adds a row here rather than its own copy of
// the comparison loop.
func layoutCases() []layoutCase {
	var cases []layoutCase
	for _, comboID := range []string{"2A", "3B", "4A"} {
		for _, seed := range []int64{1, 7, 42} {
			comboID, seed := comboID, seed
			cases = append(cases, layoutCase{
				name:   fmt.Sprintf("%s/seed%d", comboID, seed),
				cfg:    func(t *testing.T) RunConfig { return shardCfg(t, comboID, 150, seed) },
				shards: []int{2, 4, 8},
			})
		}
	}
	// Every fault family: the timer-heavy paths (retransmits, hold-downs,
	// flap edges, burst windows) and the merged injector report.
	for _, seed := range []int64{1, 7, 11, 42} {
		seed := seed
		cases = append(cases, layoutCase{
			name: fmt.Sprintf("faults/seed%d", seed),
			cfg: func(t *testing.T) RunConfig {
				cfg := shardCfg(t, "3B", 150, seed)
				cfg.Faults = fiveKindSchedule()
				return cfg
			},
			shards: []int{2, 4, 8},
		})
	}
	// Campaigns of every attack kind under a live defense matrix, and
	// the merged attack ledger.
	cases = append(cases, layoutCase{
		name: "attacks",
		cfg: func(t *testing.T) RunConfig {
			return attackCfg(t, 150, 23, allKindsSchedule(), attacks.Defenses{MaxFetch: 2})
		},
		shards: []int{4},
	})
	// A fleet mix including the singleflight and qname-minimization
	// segments: the entity-keyed assignment may not depend on lane
	// membership.
	cases = append(cases, layoutCase{
		name:   "mix",
		cfg:    func(t *testing.T) RunConfig { return mixCfg(t, 150, 23) },
		shards: []int{4},
	})
	return cases
}

// TestShardedMatchesSequential is the contract of the sharded engine:
// at the same seed, a run split across any number of shards emits the
// byte-for-byte identical record stream — and the identical
// materialized dataset, fault report and attack ledger — as the
// single-lane run. It sweeps layoutCases so a regression in any layer
// of the partition (address plan, churn, catchment pinning, keyed RNG,
// canonical merge, per-shard injectors and trackers) surfaces as a diff
// here.
func TestShardedMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many full simulations")
	}
	t.Parallel()
	for _, c := range layoutCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			seqCfg := c.cfg(t)
			wantCSV, wantDS := runToCSV(t, seqCfg)
			if len(wantDS.Records) == 0 {
				t.Fatal("sequential run produced no records")
			}
			if seqCfg.Faults != nil && (wantDS.Faults == nil || wantDS.Faults.Drops == 0) {
				t.Fatal("fault schedule had no effect; the case tests nothing")
			}
			if seqCfg.Attacks != nil && wantDS.Attacks == nil {
				t.Fatal("attack schedule left no ledger; the case tests nothing")
			}
			for _, shards := range c.shards {
				gotCfg := seqCfg
				gotCfg.Shards = shards
				gotCSV, gotDS := runToCSV(t, gotCfg)
				if !bytes.Equal(gotCSV, wantCSV) {
					t.Fatalf("shards=%d: CSV stream differs from sequential (%d vs %d bytes)\n%s",
						shards, len(gotCSV), len(wantCSV), firstDiff(gotCSV, wantCSV))
				}
				if !reflect.DeepEqual(gotDS.Records, wantDS.Records) {
					t.Fatalf("shards=%d: materialized query records differ", shards)
				}
				if !reflect.DeepEqual(gotDS.AuthRecords, wantDS.AuthRecords) {
					t.Fatalf("shards=%d: auth records differ", shards)
				}
				if gotDS.ActiveProbes != wantDS.ActiveProbes {
					t.Fatalf("shards=%d: active probes %d vs %d",
						shards, gotDS.ActiveProbes, wantDS.ActiveProbes)
				}
				if !reflect.DeepEqual(gotDS.Faults, wantDS.Faults) {
					t.Fatalf("shards=%d: merged fault report differs:\n%+v\nwant\n%+v",
						shards, gotDS.Faults, wantDS.Faults)
				}
				if !reflect.DeepEqual(gotDS.Attacks, wantDS.Attacks) {
					t.Fatalf("shards=%d: merged attack ledger differs:\n%+v\nwant\n%+v",
						shards, gotDS.Attacks, wantDS.Attacks)
				}
			}
		})
	}
}

// firstDiff renders the first line where two byte streams diverge.
func firstDiff(got, want []byte) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	i := 0
	for i < n && got[i] == want[i] {
		i++
	}
	lo := i - 120
	if lo < 0 {
		lo = 0
	}
	hiG, hiW := i+120, i+120
	if hiG > len(got) {
		hiG = len(got)
	}
	if hiW > len(want) {
		hiW = len(want)
	}
	return fmt.Sprintf("first divergence at byte %d:\n got: …%s…\nwant: …%s…",
		i, got[lo:hiG], want[lo:hiW])
}
