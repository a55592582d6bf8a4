package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ritw/internal/attacks"
	"ritw/internal/core"
)

// TestGoldenAttacks pins the exact text of the preset defense-matrix
// battery at a fixed seed against a checked-in golden:
// the campaign schedules, the attack ledgers (bots, packets,
// amplification factors), and the benign collateral impact tables.
// Any drift in attack traffic generation, the MaxFetch budget, or the
// negative cache shows up as a readable text diff in CI. Regenerate
// deliberately with: go test ./cmd/ritw -run TestGoldenAttacks -update
func TestGoldenAttacks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the attack battery")
	}
	runAttackGolden(t, 0, *updateGolden)
}

// TestGoldenAttacksSharded replays the battery split across simulation
// shards and demands the exact bytes of the sequential golden: attack
// traffic rides the same entity-keyed determinism contract as benign
// traffic, so shard layout must not change a single byte.
// RITW_CROSSCHECK_SHARDS elevates the shard count for the CI
// crosscheck job.
func TestGoldenAttacksSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the attack battery")
	}
	runAttackGolden(t, crosscheckShards(t, 4), false)
}

// runAttackGolden executes the preset battery at the pinned seed and
// compares (or rewrites) the golden. shards=0 runs the single
// sequential lane that defines the golden bytes.
func runAttackGolden(t *testing.T, shards int, update bool) {
	t.Helper()
	oldSeed, oldProbes, oldMaxMem := *seed, *probesFlag, *maxMem
	oldPlot, oldOut, oldParallel, oldShards := *plotDir, *outFile, *parallel, *shardsFlag
	defer func() {
		*seed, *probesFlag, *maxMem = oldSeed, oldProbes, oldMaxMem
		*plotDir, *outFile, *parallel, *shardsFlag = oldPlot, oldOut, oldParallel, oldShards
	}()
	*seed, *probesFlag, *maxMem = 7, 150, 0
	*plotDir, *outFile, *parallel, *shardsFlag = "", "", 4, shards

	got := captureStdout(t, func() error {
		return cmdAttacks(context.Background(), core.ScaleSmall)
	})
	path := filepath.Join("testdata", "golden", "attacks.txt")
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("attacks (shards=%d) output drifted from %s\n--- got ---\n%s--- want ---\n%s",
			shards, path, got, want)
	}
}

// TestParseAttackSpec covers the -attack DSL: every kind parses into
// the right campaign with defaults and overrides, and malformed specs
// name the offending part.
func TestParseAttackSpec(t *testing.T) {
	var s attacks.Schedule
	good := []string{
		"nxns:20m-40m:interval=10s,frac=0.2,fanout=12",
		"flood:10m-30m:interval=5s,frac=0.3,names=40",
		"reflect:15m-25m:interval=2s,frac=0.5",
		"nxns:0s-1h", // all-default params
	}
	for _, spec := range good {
		if err := parseAttackSpec(&s, spec); err != nil {
			t.Errorf("parseAttackSpec(%q) = %v", spec, err)
		}
	}
	if len(s.NXNS) != 2 || len(s.Floods) != 1 || len(s.Reflections) != 1 {
		t.Fatalf("schedule = %d nxns, %d floods, %d reflections", len(s.NXNS), len(s.Floods), len(s.Reflections))
	}
	if s.NXNS[0].Fanout != 12 || s.NXNS[0].Interval != 10*time.Second || s.NXNS[0].Fraction != 0.2 {
		t.Errorf("nxns[0] = %+v", s.NXNS[0])
	}
	if s.NXNS[1].Fanout != 10 || s.NXNS[1].Interval != 10*time.Second {
		t.Errorf("nxns defaults not applied: %+v", s.NXNS[1])
	}
	if s.Floods[0].Names != 40 || s.Floods[0].Start != 10*time.Minute {
		t.Errorf("flood[0] = %+v", s.Floods[0])
	}
	if err := s.Validate(); err != nil {
		t.Errorf("parsed schedule invalid: %v", err)
	}

	bad := []struct{ spec, wantErr string }{
		{"nxns", "want kind:start-end"},
		{"nxns:20m40m", "window"},
		{"nxns:xx-40m", "start"},
		{"nxns:20m-yy", "end"},
		{"nxns:20m-40m:fanout", "k=v"},
		{"smurf:20m-40m", "unknown -attack kind"},
	}
	for _, c := range bad {
		var s attacks.Schedule
		err := parseAttackSpec(&s, c.spec)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("parseAttackSpec(%q) = %v, want mention of %q", c.spec, err, c.wantErr)
		}
	}
}
