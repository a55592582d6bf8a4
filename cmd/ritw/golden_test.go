package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"ritw/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden outputs under testdata/golden")

// TestGoldenOutputs pins the exact text of every figure and table
// command at a fixed seed against checked-in goldens.
// Any numeric drift — an RNG stream reordered, a default changed, an
// aggregator losing exactness — shows up as a readable text diff in CI
// rather than as silently different science. Regenerate deliberately
// with: go test ./cmd/ritw -run TestGoldenOutputs -update
func TestGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full figure suite")
	}
	runGoldenSuite(t, 0, *updateGolden)
}

// crosscheckShards reads the CI shard-count override (default def).
func crosscheckShards(t *testing.T, def int) int {
	t.Helper()
	env := os.Getenv("RITW_CROSSCHECK_SHARDS")
	if env == "" {
		return def
	}
	n, err := strconv.Atoi(env)
	if err != nil || n < 1 {
		t.Fatalf("bad RITW_CROSSCHECK_SHARDS=%q", env)
	}
	return n
}

// TestGoldenOutputsSharded replays the full figure suite split across
// simulation shards and demands the exact bytes of the sequential
// goldens: the CLI-level pin of the sharded engine's byte-identity
// contract. An odd shard count stresses the canonical merge with
// uneven lanes. RITW_CROSSCHECK_SHARDS elevates the shard count for
// the CI race job.
func TestGoldenOutputsSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full figure suite")
	}
	runGoldenSuite(t, crosscheckShards(t, 3), false)
}

// runGoldenSuite executes every figure/table command at the pinned
// seed and compares (or, with update, rewrites) the goldens. shards=0
// runs the single sequential lane that defines the golden bytes.
func runGoldenSuite(t *testing.T, shards int, update bool) {
	t.Helper()
	oldSeed, oldProbes, oldMaxMem := *seed, *probesFlag, *maxMem
	oldPlot, oldOut, oldParallel, oldShards := *plotDir, *outFile, *parallel, *shardsFlag
	defer func() {
		*seed, *probesFlag, *maxMem = oldSeed, oldProbes, oldMaxMem
		*plotDir, *outFile, *parallel, *shardsFlag = oldPlot, oldOut, oldParallel, oldShards
		table1Cache = nil
	}()
	*seed, *probesFlag, *maxMem = 7, 150, 0
	*plotDir, *outFile, *parallel, *shardsFlag = "", "", 4, shards
	table1Cache = nil

	cmds := []struct {
		name string
		fn   func(context.Context, core.Scale) error
	}{
		{"table1", cmdTable1}, {"fig2", cmdFig2}, {"fig3", cmdFig3},
		{"fig4", cmdFig4}, {"table2", cmdTable2}, {"fig5", cmdFig5},
		{"fig6", cmdFig6}, {"fig7root", cmdFig7Root}, {"fig7nl", cmdFig7NL},
		{"middlebox", cmdMiddlebox}, {"ipv6", cmdIPv6}, {"hardening", cmdHardening},
		{"outage", cmdOutage}, {"openres", cmdOpenResolver}, {"scenarios", cmdScenarios},
	}
	for _, c := range cmds {
		got := captureStdout(t, func() error {
			return c.fn(context.Background(), core.ScaleSmall)
		})
		path := filepath.Join("testdata", "golden", c.name+".txt")
		if update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden (run with -update to create): %v", c.name, err)
		}
		if got != string(want) {
			t.Errorf("%s (shards=%d) output drifted from %s\n--- got ---\n%s--- want ---\n%s",
				c.name, shards, path, got, want)
		}
	}
}
