package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ritw/internal/analysis"
	"ritw/internal/atlas"
	"ritw/internal/core"
	"ritw/internal/measure"
	"ritw/internal/resolver"
)

// TestGoldenMix pins the exact text of the fleet-mix battery at a
// fixed seed against a checked-in golden: the
// per-policy and mixture Figure-4 preference rows, the paper-band
// verdicts, and the Table-2 breakouts for every preset (the calibrated
// paper mixture, the modern secDNS-flavoured fleet, and the
// public-resolver-centralization sweep). Any drift in the entity-keyed
// assignment, the policy engines, or the per-policy split shows up as
// a readable text diff in CI. Regenerate deliberately with:
// go test ./cmd/ritw -run TestGoldenMix -update
func TestGoldenMix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fleet-mix battery")
	}
	runMixGolden(t, 0, *updateGolden)
}

// TestGoldenMixSharded replays the battery split across simulation
// shards and demands the exact bytes of the sequential golden: the
// mix re-draw is entity-keyed, so shard layout must not move a single
// VP to a different policy. RITW_CROSSCHECK_SHARDS elevates the shard
// count for the CI crosscheck job.
func TestGoldenMixSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fleet-mix battery")
	}
	runMixGolden(t, crosscheckShards(t, 4), false)
}

// runMixGolden executes the preset battery at the pinned seed and
// compares (or rewrites) the golden. shards=0 runs the single
// sequential lane that defines the golden bytes.
func runMixGolden(t *testing.T, shards int, update bool) {
	t.Helper()
	oldSeed, oldProbes, oldMaxMem := *seed, *probesFlag, *maxMem
	oldPlot, oldOut, oldParallel, oldShards := *plotDir, *outFile, *parallel, *shardsFlag
	oldMix := mixShares
	defer func() {
		*seed, *probesFlag, *maxMem = oldSeed, oldProbes, oldMaxMem
		*plotDir, *outFile, *parallel, *shardsFlag = oldPlot, oldOut, oldParallel, oldShards
		mixShares = oldMix
	}()
	*seed, *probesFlag, *maxMem = 7, 150, 0
	*plotDir, *outFile, *parallel, *shardsFlag = "", "", 4, shards
	mixShares = nil

	got := captureStdout(t, func() error {
		return cmdMix(context.Background(), core.ScaleSmall)
	})
	path := filepath.Join("testdata", "golden", "mix.txt")
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
		t.Errorf("mix (shards=%d) output drifted from %s\n--- got ---\n%s--- want ---\n%s",
			shards, path, got, want)
	}
}

// TestPaperMixCalibrationInsideBands is the calibration acceptance
// gate: at the reference configuration (`ritw -scale small mix`,
// seed 42), the paper-calibrated mixture's weak/strong preference
// shares must land inside the paper's Figure-4 bands (59-69% weak,
// 10-37% strong). A change to atlas.PaperMix, the entity-keyed
// assignment, or any policy engine that pushes the mixture out of
// band fails here with the measured shares.
func TestPaperMixCalibrationInsideBands(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full reference-scale simulation")
	}
	t.Parallel()
	sc := core.Scenario{Name: "paper", ComboID: "2B", Mix: atlas.PaperMix()}
	opts := []core.Option{core.WithSeed(42), core.WithScale(core.ScaleSmall)}
	cfg, err := core.ScenarioRunConfig(sc, opts...)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := measure.PolicyAssignment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := analysis.NewMixBreakout(analysis.AggConfig{
		ComboID: sc.Name, Sites: cfg.Combo.Sites, Duration: cfg.Duration,
	}, assign)
	opts = append(opts, core.WithSink(func(string) measure.Sink { return b }))
	if _, err := core.RunScenariosContext(context.Background(), []core.Scenario{sc}, opts...); err != nil {
		t.Fatal(err)
	}
	p := b.Mixture().Preference()
	if p.QualifiedVPs < 50 {
		t.Fatalf("only %d qualified VPs; the reference scale should give a stable estimate", p.QualifiedVPs)
	}
	if !analysis.InPaperBands(p.WeakFrac, p.StrongFrac) {
		t.Errorf("paper mixture out of band: weak %.1f%% strong %.1f%%, want %.0f-%.0f%% / %.0f-%.0f%%",
			100*p.WeakFrac, 100*p.StrongFrac,
			100*analysis.PaperWeakShareLow, 100*analysis.PaperWeakShareHigh,
			100*analysis.PaperStrongShareLow, 100*analysis.PaperStrongShareHigh)
	}
}

// TestParseMixSpec covers the -mix DSL: kinds, shares, the sf/qmin
// engine options, per-kind infra defaults, and malformed specs naming
// the offending part.
func TestParseMixSpec(t *testing.T) {
	mix, err := parseMixSpec("probetopn:0.4:sf+qmin, bindlike:0.35 ,uniform:0.25,sticky:0")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 4 {
		t.Fatalf("parsed %d segments, want 4", len(mix))
	}
	if mix[0].Kind != resolver.KindProbeTopN || mix[0].Share != 0.4 ||
		!mix[0].Singleflight || !mix[0].QnameMinimize {
		t.Errorf("probetopn segment = %+v", mix[0])
	}
	if mix[1].Kind != resolver.KindBINDLike || mix[1].Singleflight || mix[1].QnameMinimize {
		t.Errorf("bindlike segment = %+v", mix[1])
	}
	if mix[1].InfraTTL != 10*time.Minute || mix[1].Retention != resolver.DecayKeep {
		t.Errorf("bindlike infra defaults = %+v", mix[1])
	}
	if mix[2].Retention != resolver.HardExpire {
		t.Errorf("uniform should hard-expire: %+v", mix[2])
	}
	if mix[3].Kind != resolver.KindSticky || mix[3].InfraTTL != 0 || mix[3].Share != 0 {
		t.Errorf("sticky segment = %+v", mix[3])
	}

	bad := []struct{ spec, wantErr string }{
		{"", "empty -mix"},
		{" , ", "empty -mix"},
		{"bindlike", "want kind:share"},
		{"smurf:0.5", "unknown policy kind"},
		{"bindlike:lots", "non-negative number"},
		{"bindlike:-0.2", "non-negative number"},
		{"bindlike:0.5:turbo", "want sf or qmin"},
	}
	for _, c := range bad {
		_, err := parseMixSpec(c.spec)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("parseMixSpec(%q) = %v, want mention of %q", c.spec, err, c.wantErr)
		}
	}
}

// TestDescribeMix pins the scenario-header rendering the golden
// depends on: normalized percentages and the engine-option suffixes.
func TestDescribeMix(t *testing.T) {
	mix, err := parseMixSpec("probetopn:2:sf+qmin,uniform:1:qmin,roundrobin:1")
	if err != nil {
		t.Fatal(err)
	}
	got := describeMix(mix)
	want := "probetopn:50%(sf+qmin) uniform:25%(qmin) roundrobin:25%"
	if got != want {
		t.Errorf("describeMix = %q, want %q", got, want)
	}
}
