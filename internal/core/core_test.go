package core

import (
	"context"
	"testing"
	"time"

	"ritw/internal/analysis"
	"ritw/internal/geo"
)

func TestScaleProbes(t *testing.T) {
	if ScaleSmall.Probes() >= ScaleMedium.Probes() || ScaleMedium.Probes() >= ScaleFull.Probes() {
		t.Error("scales must be ordered")
	}
	if ScaleFull.Probes() != 9700 {
		t.Errorf("full scale = %d, want the paper's 9700", ScaleFull.Probes())
	}
}

func TestRunCombinationSmall(t *testing.T) {
	ctx := context.Background()
	ds, err := RunCombinationContext(ctx, "2B", WithSeed(3), WithScale(ScaleSmall))
	if err != nil {
		t.Fatal(err)
	}
	if ds.ComboID != "2B" || len(ds.Records) == 0 {
		t.Fatalf("dataset = %s records=%d", ds.ComboID, len(ds.Records))
	}
	if _, err := RunCombinationContext(ctx, "9Z", WithSeed(3), WithScale(ScaleSmall)); err == nil {
		t.Error("unknown combination should fail")
	}
}

func TestFigure6Intervals(t *testing.T) {
	ivls := Figure6Intervals()
	if len(ivls) != 6 || ivls[0] != 2*time.Minute || ivls[5] != 30*time.Minute {
		t.Errorf("intervals = %v", ivls)
	}
	for i := 1; i < len(ivls); i++ {
		if ivls[i] <= ivls[i-1] {
			t.Error("intervals must increase")
		}
	}
}

func TestRunIntervalSweepTiny(t *testing.T) {
	dss, err := RunIntervalSweepContext(context.Background(),
		[]time.Duration{2 * time.Minute, 30 * time.Minute},
		WithSeed(5), WithScale(ScaleSmall))
	if err != nil {
		t.Fatal(err)
	}
	if len(dss) != 2 {
		t.Fatalf("datasets = %d", len(dss))
	}
	if dss[0].Interval != 2*time.Minute || dss[1].Interval != 30*time.Minute {
		t.Errorf("intervals = %v, %v", dss[0].Interval, dss[1].Interval)
	}
	// Figure 6's shape: the FRA preference is strongest at the fastest
	// cadence.
	fast := analysis.Aggregate(dss[0]).SiteShareByContinent("FRA")
	slow := analysis.Aggregate(dss[1]).SiteShareByContinent("FRA")
	euFast, euSlow := fast[geo.Europe], slow[geo.Europe]
	if euFast <= 0.5 {
		t.Errorf("EU share to FRA at 2min = %.2f, want majority", euFast)
	}
	if euSlow > euFast+0.02 {
		t.Errorf("preference should not strengthen with slower probing: 2min=%.2f 30min=%.2f",
			euFast, euSlow)
	}
}

func TestRunRootAndNLTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both DITL traces end to end")
	}
	trace, rb, err := RunRootTrace(11, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Observed) != 10 || rb.Recursives == 0 {
		t.Errorf("root trace observed=%d busy=%d", len(trace.Observed), rb.Recursives)
	}
	nlTrace, nlRB, err := RunNLTrace(11, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if len(nlTrace.Observed) != 4 || nlRB.Recursives == 0 {
		t.Errorf("nl trace observed=%d busy=%d", len(nlTrace.Observed), nlRB.Recursives)
	}
	// The paper's §5 contrast: far more .nl recursives use every
	// observed NS than root recursives use every letter.
	if nlRB.All <= rb.All {
		t.Errorf(".nl all-NS share %.2f should exceed root all-letter share %.2f",
			nlRB.All, rb.All)
	}
}
