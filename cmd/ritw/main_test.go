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

func TestCommandTableCoversAll(t *testing.T) {
	// The "all" ordering must reference only registered commands, and
	// every registered command should be reachable from "all" except
	// none (keep them in sync when adding subcommands).
	cmds := map[string]func(context.Context, core.Scale) error{
		"table1": cmdTable1, "fig2": cmdFig2, "fig3": cmdFig3,
		"fig4": cmdFig4, "table2": cmdTable2, "fig5": cmdFig5,
		"fig6": cmdFig6, "fig7root": cmdFig7Root, "fig7nl": cmdFig7NL,
		"middlebox": cmdMiddlebox, "ipv6": cmdIPv6, "hardening": cmdHardening,
		"planner": cmdPlanner, "outage": cmdOutage, "openres": cmdOpenResolver,
		"scenarios": cmdScenarios, "attacks": cmdAttacks,
	}
	order := []string{"table1", "fig2", "fig3", "fig4", "table2", "fig5", "fig6",
		"fig7root", "fig7nl", "middlebox", "ipv6", "hardening", "planner",
		"outage", "openres", "scenarios", "attacks"}
	if len(order) != len(cmds) {
		t.Fatalf("all-order has %d entries, command table %d", len(order), len(cmds))
	}
	for _, name := range order {
		if cmds[name] == nil {
			t.Errorf("ordering references unknown command %q", name)
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
// streaming batch with -out and -snapshot-every leaves checkpoints; a
// rerun with -resume loads them, truncates the spill CSV back to the
// offset the last checkpoint durably covered (discarding the
// uncheckpointed tail a crash can leave), replays, and ends with a
// byte-identical dataset.
func TestSpillSnapshotResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the table-1 batch twice")
	}
	oldSeed, oldProbes, oldStream, oldMaxMem := *seed, *probesFlag, *stream, *maxMem
	oldPlot, oldOut, oldParallel, oldCombo := *plotDir, *outFile, *parallel, *comboID
	oldEvery, oldDir, oldResume := *snapEvery, *snapDir, *resumeFlag
	defer func() {
		*seed, *probesFlag, *stream, *maxMem = oldSeed, oldProbes, oldStream, oldMaxMem
		*plotDir, *outFile, *parallel, *comboID = oldPlot, oldOut, oldParallel, oldCombo
		*snapEvery, *snapDir, *resumeFlag = oldEvery, oldDir, oldResume
		table1Cache = nil
	}()
	dir := t.TempDir()
	out := filepath.Join(dir, "spill.csv")
	*seed, *probesFlag, *stream, *maxMem = 7, 120, true, 0
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

// TestStreamOutputMatchesMaterialized is the refactor's contract: at
// the same seed, every figure and table command prints byte-identical
// output whether records are materialized into datasets or streamed
// into incremental aggregators (-stream, exact mode).
func TestStreamOutputMatchesMaterialized(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the figure suite twice")
	}
	oldSeed, oldProbes, oldStream, oldMaxMem := *seed, *probesFlag, *stream, *maxMem
	oldPlot, oldOut, oldParallel := *plotDir, *outFile, *parallel
	defer func() {
		*seed, *probesFlag, *stream, *maxMem = oldSeed, oldProbes, oldStream, oldMaxMem
		*plotDir, *outFile, *parallel = oldPlot, oldOut, oldParallel
		table1Cache = nil
	}()
	*seed, *probesFlag, *maxMem = 7, 150, 0
	*plotDir, *outFile, *parallel = "", "", 4

	cmds := []struct {
		name string
		fn   func(context.Context, core.Scale) error
	}{
		{"table1", cmdTable1}, {"fig2", cmdFig2}, {"fig3", cmdFig3},
		{"fig4", cmdFig4}, {"table2", cmdTable2}, {"fig5", cmdFig5},
		{"fig6", cmdFig6}, {"fig7root", cmdFig7Root}, {"fig7nl", cmdFig7NL},
		{"middlebox", cmdMiddlebox}, {"ipv6", cmdIPv6}, {"hardening", cmdHardening},
	}
	run := func(streamMode bool) map[string]string {
		*stream = streamMode
		table1Cache = nil
		out := make(map[string]string, len(cmds))
		for _, c := range cmds {
			out[c.name] = captureStdout(t, func() error {
				return c.fn(context.Background(), core.ScaleSmall)
			})
		}
		return out
	}
	mat := run(false)
	str := run(true)
	for _, c := range cmds {
		if mat[c.name] != str[c.name] {
			t.Errorf("%s output differs between modes\nmaterialized:\n%s\nstreaming:\n%s",
				c.name, mat[c.name], str[c.name])
		}
	}
}
