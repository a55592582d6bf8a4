package analysis

import (
	"sync"
	"testing"
	"time"

	"ritw/internal/atlas"
	"ritw/internal/geo"
	"ritw/internal/measure"
)

// Shared small datasets: generating them is the expensive part, so
// tests reuse one per combo.
var (
	dsOnce  sync.Once
	dsCache map[string]*measure.Dataset
)

func dataset(t *testing.T, comboID string) *measure.Dataset {
	t.Helper()
	dsOnce.Do(func() {
		dsCache = make(map[string]*measure.Dataset)
		for _, id := range []string{"2B", "2C", "4B"} {
			combo, err := measure.CombinationByID(id)
			if err != nil {
				panic(err)
			}
			cfg := measure.DefaultRunConfig(combo, 17)
			pc := atlas.DefaultConfig(17)
			pc.NumProbes = 800
			cfg.Population = pc
			ds, err := measure.Run(cfg)
			if err != nil {
				panic(err)
			}
			dsCache[id] = ds
		}
	})
	ds, ok := dsCache[comboID]
	if !ok {
		t.Fatalf("no cached dataset for %s", comboID)
	}
	return ds
}

// TestVPsGrouping pins the precondition the aggregator's per-VP state
// rests on: a run delivers each vantage point's records in send order,
// so no consumer needs to re-sort them.
func TestVPsGrouping(t *testing.T) {
	ds := dataset(t, "2B")
	last := make(map[string]measure.QueryRecord)
	for _, r := range ds.Records {
		if r.VPKey == "" {
			t.Fatal("empty VP key")
		}
		if prev, ok := last[r.VPKey]; ok && !sentBefore(prev, r) {
			t.Fatalf("VP %s: seq %d (sent %v) delivered after seq %d (sent %v)",
				r.VPKey, r.Seq, r.SentAt, prev.Seq, prev.SentAt)
		}
		last[r.VPKey] = r
	}
	a := Aggregate(ds)
	if a.NumRecords() != len(ds.Records) {
		t.Errorf("aggregated %d records, dataset has %d", a.NumRecords(), len(ds.Records))
	}
	if len(a.vps) != len(last) {
		t.Errorf("aggregator tracks %d VPs, dataset has %d", len(a.vps), len(last))
	}
	// Multi-resolver probes yield more VPs than probes.
	if len(last) <= ds.ActiveProbes {
		t.Errorf("VPs %d should exceed probes %d (multi-resolver effect)", len(last), ds.ActiveProbes)
	}
}

// sentBefore orders two records of one VP by send time, then sequence.
func sentBefore(a, b measure.QueryRecord) bool {
	if a.SentAt != b.SentAt {
		return a.SentAt < b.SentAt
	}
	return a.Seq < b.Seq
}

func TestProbeAllShape(t *testing.T) {
	ds2 := dataset(t, "2B")
	res2 := Aggregate(ds2).ProbeAll()
	// The paper: 75–96% of recursives query all authoritatives.
	if res2.PercentAll < 70 || res2.PercentAll > 99 {
		t.Errorf("2B percent-all = %.1f, want the paper's band (75–96)", res2.PercentAll)
	}
	// With two authoritatives, half the recursives probe the second on
	// their second query: median ≈ 1.
	if res2.Box.Median > 3 {
		t.Errorf("2B median queries-to-all = %.1f, want small (≈1)", res2.Box.Median)
	}

	ds4 := dataset(t, "4B")
	res4 := Aggregate(ds4).ProbeAll()
	if res4.Box.Median <= res2.Box.Median {
		t.Errorf("4 NSes should take more queries than 2: %v vs %v",
			res4.Box.Median, res2.Box.Median)
	}
	if res4.PercentAll >= res2.PercentAll {
		t.Errorf("4-NS coverage (%.1f) should fall below 2-NS (%.1f), as in Fig. 2",
			res4.PercentAll, res2.PercentAll)
	}
}

func TestShareVsRTTInverse(t *testing.T) {
	ds := dataset(t, "2C")
	shares := Aggregate(ds).ShareVsRTT()
	if len(shares) != 2 {
		t.Fatalf("shares = %+v", shares)
	}
	var fra, syd SiteShare
	for _, s := range shares {
		switch s.Site {
		case "FRA":
			fra = s
		case "SYD":
			syd = s
		}
	}
	// FRA has the lower median RTT (EU-heavy population) and must get
	// most queries — Figure 3's headline.
	if fra.MedianRTT >= syd.MedianRTT {
		t.Errorf("FRA median RTT %.0f should be below SYD %.0f", fra.MedianRTT, syd.MedianRTT)
	}
	if fra.Share <= syd.Share {
		t.Errorf("FRA share %.2f should exceed SYD %.2f", fra.Share, syd.Share)
	}
	if s := fra.Share + syd.Share; s < 0.999 || s > 1.001 {
		t.Errorf("shares should sum to 1: %v", s)
	}
}

func TestTable2Structure(t *testing.T) {
	ds := dataset(t, "2C")
	t2 := Aggregate(ds).Table2()
	eu, ok := t2[geo.Europe]
	if !ok {
		t.Fatal("no EU row")
	}
	// EU: strong preference for FRA with a much lower RTT (Table 2:
	// 83% FRA at 39ms vs 17% SYD at 355ms).
	if eu["FRA"].SharePct < 60 {
		t.Errorf("EU FRA share = %.1f%%, want strong majority", eu["FRA"].SharePct)
	}
	if eu["FRA"].MedianRTT >= eu["SYD"].MedianRTT {
		t.Errorf("EU RTT: FRA %.0f should be below SYD %.0f",
			eu["FRA"].MedianRTT, eu["SYD"].MedianRTT)
	}
	// Oceania prefers SYD (the mirror image).
	ocn, ok := t2[geo.Oceania]
	if !ok {
		t.Fatal("no OC row")
	}
	if ocn["SYD"].SharePct < 55 {
		t.Errorf("OC SYD share = %.1f%%, want majority", ocn["SYD"].SharePct)
	}
	// Shares per continent sum to 100.
	for cont, cells := range t2 {
		sum := 0.0
		for _, c := range cells {
			sum += c.SharePct
		}
		if sum < 99.9 || sum > 100.1 {
			t.Errorf("%v shares sum to %.1f", cont, sum)
		}
	}
}

func TestPreferenceBands(t *testing.T) {
	// 2B (small RTT gap): mostly weak preferences, few strong.
	p2b := Aggregate(dataset(t, "2B")).Preference()
	if p2b.QualifiedVPs == 0 {
		t.Fatal("no qualified VPs in 2B")
	}
	// 2C (large gap): both weak and strong preference shares rise
	// (the paper: weak 59→69%, strong 12→37%).
	p2c := Aggregate(dataset(t, "2C")).Preference()
	if p2c.StrongFrac <= p2b.StrongFrac {
		t.Errorf("strong preference should rise with the RTT gap: 2B=%.2f 2C=%.2f",
			p2b.StrongFrac, p2c.StrongFrac)
	}
	if p2c.WeakFrac < 0.45 || p2c.WeakFrac > 0.95 {
		t.Errorf("2C weak fraction = %.2f, want the paper's band (≈0.69)", p2c.WeakFrac)
	}
	if p2b.StrongFrac > 0.40 {
		t.Errorf("2B strong fraction = %.2f, should be small (paper: 0.12)", p2b.StrongFrac)
	}
	// Curves exist for Europe and are sorted descending.
	cur := p2c.Curves[geo.Europe]["FRA"]
	if len(cur) == 0 {
		t.Fatal("no EU curve")
	}
	for i := 1; i < len(cur); i++ {
		if cur[i] > cur[i-1] {
			t.Fatal("curve not sorted descending")
		}
	}
}

func TestRTTSensitivity(t *testing.T) {
	points := Aggregate(dataset(t, "2B")).RTTSensitivity()
	if len(points) == 0 {
		t.Fatal("no sensitivity points")
	}
	byCont := map[geo.Continent][]RTTSensitivityPoint{}
	for _, p := range points {
		byCont[p.Continent] = append(byCont[p.Continent], p)
		if p.Fraction < 0 || p.Fraction > 1 {
			t.Fatalf("fraction out of range: %+v", p)
		}
	}
	eu := byCont[geo.Europe]
	if len(eu) != 2 {
		t.Fatalf("EU points = %d", len(eu))
	}
	// The Figure-5 effect: Europe (close) shows a wider preference
	// spread than Asia (far), despite comparable RTT gaps.
	var euSpread, asSpread float64
	euSpread = abs(eu[0].Fraction - eu[1].Fraction)
	if as := byCont[geo.Asia]; len(as) == 2 {
		asSpread = abs(as[0].Fraction - as[1].Fraction)
		if asSpread > euSpread {
			t.Errorf("far continents should split more evenly: EU spread %.2f, AS spread %.2f",
				euSpread, asSpread)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestSiteShareByContinent(t *testing.T) {
	ds := dataset(t, "2C")
	shares := Aggregate(ds).SiteShareByContinent("FRA")
	if shares[geo.Europe] < 0.5 {
		t.Errorf("EU share to FRA = %.2f, want majority", shares[geo.Europe])
	}
	if shares[geo.Oceania] > 0.5 {
		t.Errorf("OC share to FRA = %.2f, want minority", shares[geo.Oceania])
	}
	inv := Aggregate(ds).SiteShareByContinent("SYD")
	for cont := range shares {
		if s := shares[cont] + inv[cont]; s < 0.999 || s > 1.001 {
			t.Errorf("%v shares don't sum to 1: %v", cont, s)
		}
	}
}

func TestPreferenceHardening(t *testing.T) {
	res := Aggregate(dataset(t, "2C")).PreferenceHardening()
	if res.VPs == 0 {
		t.Skip("no weak-preference VPs in the small dataset")
	}
	// §4.3: preferences strengthen in the second half hour.
	if res.SecondHalf < res.FirstHalf-0.05 {
		t.Errorf("preference weakened: first=%.3f second=%.3f", res.FirstHalf, res.SecondHalf)
	}
}

func TestAuthSidePreferenceAgreesWithClientSide(t *testing.T) {
	ds := dataset(t, "2C")
	a := Aggregate(ds)
	cw, cs := a.Preference().WeakFrac, a.Preference().StrongFrac
	aw, as, n := a.AuthSidePreference(5)
	if n == 0 {
		t.Fatal("no auth-side resolvers")
	}
	// §3.1: the two views are "basically equivalent" — allow a loose
	// band since qualification filters differ.
	if abs(aw-cw) > 0.35 {
		t.Errorf("weak: auth %.2f vs client %.2f diverge", aw, cw)
	}
	if abs(as-cs) > 0.35 {
		t.Errorf("strong: auth %.2f vs client %.2f diverge", as, cs)
	}
}

func TestRanks(t *testing.T) {
	per := map[string]map[string]int{
		"r1": {"a": 300},                                              // one letter only
		"r2": {"a": 100, "b": 50, "c": 40, "d": 30, "e": 20, "f": 60}, // six letters
		"r3": {"a": 50, "b": 50, "c": 50, "d": 50, "e": 50, "f": 50, "g": 50, "h": 50, "i": 50, "j": 50},
		"r4": {"a": 3}, // under threshold
	}
	rb := Ranks(per, 10, 250)
	if rb.Recursives != 3 {
		t.Fatalf("recursives = %d", rb.Recursives)
	}
	if rb.OnlyOne < 0.33 || rb.OnlyOne > 0.34 {
		t.Errorf("only-one = %.3f", rb.OnlyOne)
	}
	if rb.AtLeast6 < 0.66 || rb.AtLeast6 > 0.67 {
		t.Errorf("at-least-6 = %.3f", rb.AtLeast6)
	}
	if rb.All < 0.33 || rb.All > 0.34 {
		t.Errorf("all = %.3f", rb.All)
	}
	if rb.MeanTopShare <= 0 || rb.MeanTopShare > 1 {
		t.Errorf("mean top share = %.3f", rb.MeanTopShare)
	}
	empty := Ranks(nil, 10, 250)
	if empty.Recursives != 0 || empty.OnlyOne != 0 {
		t.Errorf("empty ranks = %+v", empty)
	}
}

func TestPreferenceRejectsNonPairDatasets(t *testing.T) {
	ds := dataset(t, "4B")
	res := Aggregate(ds).Preference()
	if res.QualifiedVPs != 0 || len(res.Curves) != 0 {
		t.Error("preference analysis is defined for two-site combos only")
	}
	h := Aggregate(ds).PreferenceHardening()
	if h.VPs != 0 {
		t.Error("hardening analysis is defined for two-site combos only")
	}
}

func TestProbeAllEmptyDataset(t *testing.T) {
	ds := &measure.Dataset{ComboID: "X", Sites: []string{"FRA"}, Duration: time.Hour}
	res := Aggregate(ds).ProbeAll()
	if res.VPs != 0 || res.PercentAll != 0 {
		t.Errorf("empty dataset result = %+v", res)
	}
}

func TestPreferenceCI(t *testing.T) {
	ds := dataset(t, "2C")
	point := Aggregate(ds).Preference()
	weak, strong, err := Aggregate(ds).PreferenceCI(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if weak.Lo > point.WeakFrac || weak.Hi < point.WeakFrac {
		t.Errorf("weak CI [%.3f, %.3f] misses point %.3f", weak.Lo, weak.Hi, point.WeakFrac)
	}
	if strong.Lo > point.StrongFrac || strong.Hi < point.StrongFrac {
		t.Errorf("strong CI [%.3f, %.3f] misses point %.3f", strong.Lo, strong.Hi, point.StrongFrac)
	}
	if weak.Hi-weak.Lo <= 0 || weak.Hi-weak.Lo > 0.25 {
		t.Errorf("weak CI width = %.3f, implausible", weak.Hi-weak.Lo)
	}
	// Four-site datasets are rejected.
	if _, _, err := Aggregate(dataset(t, "4B")).PreferenceCI(100, 1); err == nil {
		t.Error("non-pair dataset should fail")
	}
}
