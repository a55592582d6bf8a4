package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ritw/internal/core"
	"ritw/internal/measure"
	"ritw/internal/obs"
)

func TestParseScale(t *testing.T) {
	cases := map[string]core.Scale{
		"small":  core.ScaleSmall,
		"medium": core.ScaleMedium,
		"full":   core.ScaleFull,
	}
	for name, want := range cases {
		got, err := parseScale(name)
		if err != nil || got != want {
			t.Errorf("parseScale(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := parseScale("planetary"); err == nil {
		t.Error("unknown scale should fail")
	}
}

// TestCommandTableCoversAll reads the table main dispatches from: every
// entry is runnable, no name is taken twice or collides with "all",
// and the usage line offers every one of them.
func TestCommandTableCoversAll(t *testing.T) {
	if len(commands) == 0 {
		t.Fatal("empty command table")
	}
	seen := map[string]bool{"all": true}
	u := usage()
	offered := strings.Split(strings.Trim(u[strings.Index(u, "<"):], "<>"), "|")
	for i, c := range commands {
		if c.run == nil {
			t.Errorf("command %q has no function", c.name)
		}
		if seen[c.name] {
			t.Errorf("command name %q is taken twice", c.name)
		}
		seen[c.name] = true
		if i >= len(offered) || offered[i] != c.name {
			t.Errorf("usage offers %v, want %q at position %d", offered, c.name, i)
		}
	}
	if len(offered) != len(commands)+1 || offered[len(offered)-1] != "all" {
		t.Errorf("usage offers %v, want the %d commands then all", offered, len(commands))
	}
}

// TestSingleRunCommandsFeedMetrics: the commands that build their own
// RunConfig instead of going through batchOpts hand the -metrics
// registry to the run, so the dump shows the records they streamed.
func TestSingleRunCommandsFeedMetrics(t *testing.T) {
	oldSeed, oldProbes, oldReg := *seed, *probesFlag, metricsReg
	defer func() { *seed, *probesFlag, metricsReg = oldSeed, oldProbes, oldReg }()
	*seed, *probesFlag = 7, 40
	for _, c := range []struct {
		name string
		run  func(context.Context, core.Scale) error
	}{{"outage", cmdOutage}, {"openres", cmdOpenResolver}, {"ipv6", cmdIPv6}} {
		metricsReg = obs.NewRegistry()
		captureStdout(t, func() error { return c.run(context.Background(), core.ScaleSmall) })
		if n := metricsReg.Snapshot().Counter("measure_records_streamed_total"); n <= 0 {
			t.Errorf("%s: measure_records_streamed_total = %d after the run, want > 0", c.name, n)
		}
	}
}

func TestValidateLayout(t *testing.T) {
	cases := []struct {
		name    string
		shards  int
		every   time.Duration
		resume  bool
		wantErr string
	}{
		{"defaults", 0, 0, false, ""},
		{"snapshot resume", 8, time.Minute, true, ""},
		{"negative shards", -1, 0, false, "-shards"},
		{"negative cadence", 0, -time.Second, false, "-snapshot-every"},
		{"resume without cadence", 0, 0, true, "-snapshot-every"},
	}
	for _, c := range cases {
		err := validateLayout(c.shards, c.every, c.resume)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error = %v, want mention of %q", c.name, err, c.wantErr)
		}
	}
}

// TestSpillSnapshotResume pins the CLI resume wiring end to end: a
// batch with -out and -snapshot-every leaves checkpoints; a
// rerun with -resume loads them, truncates the spill CSV back to the
// offset the last checkpoint durably covered (discarding the
// uncheckpointed tail a crash can leave), replays, and ends with a
// byte-identical dataset.
func TestSpillSnapshotResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the table-1 batch twice")
	}
	oldSeed, oldProbes, oldMaxMem := *seed, *probesFlag, *maxMem
	oldPlot, oldOut, oldParallel, oldCombo := *plotDir, *outFile, *parallel, *comboID
	oldEvery, oldDir, oldResume := *snapEvery, *snapDir, *resumeFlag
	defer func() {
		*seed, *probesFlag, *maxMem = oldSeed, oldProbes, oldMaxMem
		*plotDir, *outFile, *parallel, *comboID = oldPlot, oldOut, oldParallel, oldCombo
		*snapEvery, *snapDir, *resumeFlag = oldEvery, oldDir, oldResume
		table1Cache = nil
	}()
	dir := t.TempDir()
	out := filepath.Join(dir, "spill.csv")
	*seed, *probesFlag, *maxMem = 7, 120, 0
	*plotDir, *outFile, *parallel, *comboID = "", out, 4, "2A"
	*snapEvery, *snapDir, *resumeFlag = 10*time.Minute, dir, false

	table1Cache = nil
	if _, err := allSources(context.Background(), core.ScaleSmall); err != nil {
		t.Fatal(err)
	}
	control, err := os.ReadFile(out)
	if err != nil || len(control) == 0 {
		t.Fatalf("no spill written: %v (%d bytes)", err, len(control))
	}
	if _, err := measure.LoadSnapshot(snapPath("2A")); err != nil {
		t.Fatalf("no checkpoint for the spilled combo: %v", err)
	}
	// Simulate a crash that wrote past the last checkpoint: resume must
	// cut this tail before appending.
	f, err := os.OpenFile(out, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("garbage,tail,beyond,the,checkpoint\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	*resumeFlag = true
	table1Cache = nil
	if _, err := allSources(context.Background(), core.ScaleSmall); err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(control, resumed) {
		t.Fatalf("resumed spill differs from the original: %d vs %d bytes", len(resumed), len(control))
	}
}

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns everything it printed. The command functions write straight
// to stdout, so this is the CLI's observable output.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatalf("command failed: %v\noutput so far:\n%s", ferr, out)
	}
	return out
}
