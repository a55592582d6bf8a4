package measure

import (
	"testing"
	"time"

	"ritw/internal/atlas"
	"ritw/internal/faults"
	"ritw/internal/geo"
)

// outageOf is the one-site outage schedule.
func outageOf(site string, start, end time.Duration) *faults.Schedule {
	return &faults.Schedule{Outages: []faults.Outage{{Site: site, Start: start, End: end}}}
}

// outageRun executes 2B with FRA down for the middle 20 minutes.
func outageRun(t *testing.T) *Dataset {
	t.Helper()
	combo, err := CombinationByID("2B")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultRunConfig(combo, 31)
	pc := atlas.DefaultConfig(31)
	pc.NumProbes = 400
	cfg.Population = pc
	cfg.Faults = outageOf("FRA", 20*time.Minute, 40*time.Minute)
	ds, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestOutageFailover(t *testing.T) {
	t.Parallel()
	ds := outageRun(t)
	var during, before struct{ fra, dub, failed, total int }
	for _, r := range ds.Records {
		w := &before
		if r.SentAt >= 20*time.Minute && r.SentAt < 40*time.Minute {
			w = &during
		} else if r.SentAt >= 40*time.Minute {
			continue
		}
		w.total++
		switch {
		case !r.OK:
			w.failed++
		case r.Site == "FRA":
			w.fra++
		case r.Site == "DUB":
			w.dub++
		}
	}
	if during.fra != 0 {
		t.Errorf("FRA answered %d queries while down", during.fra)
	}
	if before.fra == 0 {
		t.Error("FRA should serve traffic before the outage")
	}
	// Resolvers fail over: most queries during the outage are still
	// answered, by the surviving site.
	if during.total == 0 || during.dub == 0 {
		t.Fatalf("no surviving traffic during outage: %+v", during)
	}
	failRate := float64(during.failed) / float64(during.total)
	if failRate > 0.25 {
		t.Errorf("fail rate during outage = %.2f; retry failover should absorb most", failRate)
	}
	baseFail := float64(before.failed) / float64(max(1, before.total))
	if failRate < baseFail {
		t.Errorf("outage should not reduce failures: during=%.3f before=%.3f", failRate, baseFail)
	}
}

func TestOutageRecovery(t *testing.T) {
	t.Parallel()
	ds := outageRun(t)
	var after struct{ fra, total int }
	for _, r := range ds.Records {
		// Give resolvers a grace period to rediscover FRA after the
		// timeout-inflated SRTT decays.
		if r.SentAt < 45*time.Minute || !r.OK {
			continue
		}
		after.total++
		if r.Site == "FRA" {
			after.fra++
		}
	}
	if after.total == 0 {
		t.Fatal("no post-outage traffic")
	}
	if after.fra == 0 {
		t.Error("FRA should win traffic back after recovering")
	}
}

func TestOutageValidation(t *testing.T) {
	combo, _ := CombinationByID("2B")
	cfg := DefaultRunConfig(combo, 1)
	pc := atlas.DefaultConfig(1)
	pc.NumProbes = 20
	cfg.Population = pc
	cfg.Faults = outageOf("SYD", 0, time.Minute)
	if _, err := Run(cfg); err == nil {
		t.Error("outage for a site not in the combination should fail")
	}
	cfg.Faults = outageOf("FRA", time.Minute, time.Minute)
	if _, err := Run(cfg); err == nil {
		t.Error("empty outage window should fail")
	}
}

func TestPathModelOverride(t *testing.T) {
	t.Parallel()
	combo, _ := CombinationByID("2B")
	model := geo.DefaultPathModel()
	model.JitterSlope = 0
	model.JitterBaseMs = 0
	cfg := DefaultRunConfig(combo, 6)
	pc := atlas.DefaultConfig(6)
	pc.NumProbes = 60
	cfg.Population = pc
	cfg.PathModel = &model
	cfg.LossRate = 0
	ds, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Without jitter, repeated RTTs from one VP to one site are
	// essentially constant.
	perVP := map[string]map[string][]float64{}
	for _, r := range ds.Records {
		if !r.OK {
			continue
		}
		if perVP[r.VPKey] == nil {
			perVP[r.VPKey] = map[string][]float64{}
		}
		perVP[r.VPKey][r.Site] = append(perVP[r.VPKey][r.Site], r.RTTms)
	}
	checked := 0
	for _, bySite := range perVP {
		for _, rtts := range bySite {
			if len(rtts) < 3 {
				continue
			}
			checked++
			min, maxv := rtts[0], rtts[0]
			for _, v := range rtts {
				if v < min {
					min = v
				}
				if v > maxv {
					maxv = v
				}
			}
			if maxv-min > 1.0 {
				t.Fatalf("jitter-free RTTs vary by %.2f ms: %v", maxv-min, rtts)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no VP series to check")
	}
}
