package analysis

import (
	"fmt"
	"testing"
	"time"

	"ritw/internal/geo"
	"ritw/internal/measure"
)

// craftedDataset builds a dataset by hand so each analysis function's
// exact semantics can be pinned, independent of the simulator.
func craftedDataset(sites []string) *measure.Dataset {
	return &measure.Dataset{
		ComboID:  "crafted",
		Sites:    sites,
		Interval: 2 * time.Minute,
		Duration: time.Hour,
	}
}

// addVP appends a VP's query sequence: each element names the
// answering site ("" = failed query). RTTs are fixed per site.
func addVP(ds *measure.Dataset, probe int, cont geo.Continent, rtts map[string]float64, seq []string) {
	vp := fmt.Sprintf("%d/10.0.0.1", probe)
	for i, site := range seq {
		rec := measure.QueryRecord{
			ProbeID:   probe,
			VPKey:     vp,
			Continent: cont,
			Seq:       i,
			SentAt:    time.Duration(i) * 2 * time.Minute,
			Site:      site,
			OK:        site != "",
		}
		if site != "" {
			rec.RTTms = rtts[site]
		}
		ds.Records = append(ds.Records, rec)
	}
}

func TestProbeAllExactSemantics(t *testing.T) {
	ds := craftedDataset([]string{"A", "B"})
	rtts := map[string]float64{"A": 10, "B": 100}
	// VP 1: sees B on its 3rd query -> reaches all at index 2 (i.e. 2
	// queries after the first).
	addVP(ds, 1, geo.Europe, rtts, []string{"A", "A", "B", "A", "A"})
	// VP 2: never sees B.
	addVP(ds, 2, geo.Europe, rtts, []string{"A", "A", "A", "A", "A"})
	// VP 3: only 3 answered queries -> excluded by the >=5 filter.
	addVP(ds, 3, geo.Europe, rtts, []string{"A", "B", "A"})
	// VP 4: failures don't count as coverage or answered queries.
	addVP(ds, 4, geo.Europe, rtts, []string{"A", "", "B", "A", "A", "A"})

	res := Aggregate(ds).ProbeAll()
	if res.VPs != 3 {
		t.Fatalf("considered VPs = %d, want 3 (VP 3 filtered)", res.VPs)
	}
	if res.PercentAll < 66.6 || res.PercentAll > 66.7 {
		t.Errorf("percent-all = %.2f, want 2/3", res.PercentAll)
	}
	// VP 1 reached all at record index 2; VP 4 at index 2 as well.
	if res.Box.Median != 2 {
		t.Errorf("median queries-to-all = %v, want 2", res.Box.Median)
	}
}

func TestShareVsRTTHotCacheSemantics(t *testing.T) {
	ds := craftedDataset([]string{"A", "B"})
	rtts := map[string]float64{"A": 10, "B": 100}
	// Queries before the VP has seen both sites are excluded: the
	// first A and the first B warm the cache; only the last three
	// count (A, A, B).
	addVP(ds, 1, geo.Europe, rtts, []string{"A", "B", "A", "A", "B"})
	shares := Aggregate(ds).ShareVsRTT()
	bySite := map[string]SiteShare{}
	for _, s := range shares {
		bySite[s.Site] = s
	}
	if bySite["A"].Queries != 2 || bySite["B"].Queries != 1 {
		t.Fatalf("hot-cache counts = A:%d B:%d, want 2/1",
			bySite["A"].Queries, bySite["B"].Queries)
	}
	if bySite["A"].Share < 0.66 || bySite["A"].Share > 0.67 {
		t.Errorf("A share = %v", bySite["A"].Share)
	}
	if bySite["A"].MedianRTT != 10 || bySite["B"].MedianRTT != 100 {
		t.Errorf("median RTTs = %v/%v", bySite["A"].MedianRTT, bySite["B"].MedianRTT)
	}
}

func TestPreferenceExactThresholds(t *testing.T) {
	ds := craftedDataset([]string{"A", "B"})
	fast := map[string]float64{"A": 10, "B": 100} // 90 ms gap: qualified
	near := map[string]float64{"A": 10, "B": 30}  // 20 ms gap: not qualified

	// VP 1: 9 of 10 to A = 90% -> strong (and weak).
	addVP(ds, 1, geo.Europe, fast, []string{"A", "A", "A", "A", "A", "A", "A", "A", "A", "B"})
	// VP 2: 6 of 10 to A = 60% -> weak only.
	addVP(ds, 2, geo.Europe, fast, []string{"A", "A", "A", "A", "A", "A", "B", "B", "B", "B"})
	// VP 3: 5 of 10 -> no preference.
	addVP(ds, 3, geo.Europe, fast, []string{"A", "B", "A", "B", "A", "B", "A", "B", "A", "B"})
	// VP 4: gap below 50 ms -> not qualified despite 100% preference.
	addVP(ds, 4, geo.Europe, near, []string{"A", "A", "A", "A", "A", "B", "A", "A", "A", "A"})
	// VP 5: never saw B -> no measurable gap, not qualified.
	addVP(ds, 5, geo.Europe, fast, []string{"A", "A", "A", "A", "A", "A"})

	res := Aggregate(ds).Preference()
	if res.QualifiedVPs != 3 {
		t.Fatalf("qualified = %d, want 3", res.QualifiedVPs)
	}
	if res.WeakFrac < 0.66 || res.WeakFrac > 0.67 {
		t.Errorf("weak = %v, want 2/3", res.WeakFrac)
	}
	if res.StrongFrac < 0.33 || res.StrongFrac > 0.34 {
		t.Errorf("strong = %v, want 1/3", res.StrongFrac)
	}
	// Curves include every VP with >=5 answered queries, qualified or
	// not (VP 4 and 5 included): 5 entries per site for EU.
	if got := len(res.Curves[geo.Europe]["A"]); got != 5 {
		t.Errorf("curve length = %d, want 5", got)
	}
}

func TestTable2ExactCells(t *testing.T) {
	ds := craftedDataset([]string{"A", "B"})
	rtts := map[string]float64{"A": 10, "B": 100}
	addVP(ds, 1, geo.Europe, rtts, []string{"A", "A", "A", "B"})
	addVP(ds, 2, geo.Oceania, rtts, []string{"B", "B"})
	t2 := Aggregate(ds).Table2()
	eu := t2[geo.Europe]
	if eu["A"].SharePct != 75 || eu["B"].SharePct != 25 {
		t.Errorf("EU shares = %v/%v", eu["A"].SharePct, eu["B"].SharePct)
	}
	if eu["A"].MedianRTT != 10 {
		t.Errorf("EU A RTT = %v", eu["A"].MedianRTT)
	}
	oc := t2[geo.Oceania]
	if oc["B"].SharePct != 100 || oc["A"].Queries != 0 {
		t.Errorf("OC cells = %+v", oc)
	}
}

func TestSiteShareByContinentIgnoresFailures(t *testing.T) {
	ds := craftedDataset([]string{"A", "B"})
	rtts := map[string]float64{"A": 10, "B": 100}
	addVP(ds, 1, geo.Asia, rtts, []string{"A", "", "B", ""})
	shares := Aggregate(ds).SiteShareByContinent("A")
	if shares[geo.Asia] != 0.5 {
		t.Errorf("AS share = %v, want 0.5 (failures excluded)", shares[geo.Asia])
	}
}

func TestPreferenceHardeningExactSplit(t *testing.T) {
	ds := craftedDataset([]string{"A", "B"})
	rtts := map[string]float64{"A": 10, "B": 100}
	// 12 queries spanning the hour (24 min of sends at 2-min cadence
	// would all fall in the first half, so space them manually).
	vp := "7/10.0.0.1"
	seq := []string{"A", "B", "A", "B", "A", "A", "A", "A", "A", "B", "A", "A"}
	for i, site := range seq {
		ds.Records = append(ds.Records, measure.QueryRecord{
			ProbeID: 7, VPKey: vp, Continent: geo.Europe, Seq: i,
			SentAt: time.Duration(i) * 5 * time.Minute, // 0..55 min
			Site:   site, OK: true, RTTms: rtts[site],
		})
	}
	res := Aggregate(ds).PreferenceHardening()
	if res.VPs != 1 {
		t.Fatalf("VPs = %d (top share %v)", res.VPs, res)
	}
	// First half (0..<30min): indices 0-5: A,B,A,B,A,A -> 4/6 to A.
	// Second half: indices 6-11: A,A,A,B,A,A -> 5/6 to A.
	if res.FirstHalf < 0.66 || res.FirstHalf > 0.67 {
		t.Errorf("first half = %v, want 4/6", res.FirstHalf)
	}
	if res.SecondHalf < 0.83 || res.SecondHalf > 0.84 {
		t.Errorf("second half = %v, want 5/6", res.SecondHalf)
	}
}
