package analysis

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"ritw/internal/geo"
	"ritw/internal/measure"
	"ritw/internal/obs"
)

// figures renders every per-combo result an aggregator finalizes, so
// two aggregators compare with one string equality. %v prints floats
// in their shortest round-trip form and maps in key order, so equal
// strings mean bit-equal results, NaN cells included.
func figures(a *Aggregator) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "records %d/%d\n", a.NumRecords(), a.NumAuthRecords())
	fmt.Fprintf(&sb, "ProbeAll %+v\n", a.ProbeAll())
	fmt.Fprintf(&sb, "ShareVsRTT %+v\n", a.ShareVsRTT())
	fmt.Fprintf(&sb, "Table2 %+v\n", a.Table2())
	fmt.Fprintf(&sb, "Preference %+v\n", a.Preference())
	weak, strong, err := a.PreferenceCI(200, 1)
	fmt.Fprintf(&sb, "PreferenceCI %+v %+v %v\n", weak, strong, err)
	fmt.Fprintf(&sb, "RTTSensitivity %+v\n", a.RTTSensitivity())
	for _, site := range a.Sites() {
		fmt.Fprintf(&sb, "SiteShare %s %+v\n", site, a.SiteShareByContinent(site))
	}
	fmt.Fprintf(&sb, "Hardening %+v\n", a.PreferenceHardening())
	aw, as, n := a.AuthSidePreference(5)
	fmt.Fprintf(&sb, "AuthSide %v %v %d\n", aw, as, n)
	return sb.String()
}

// checkOrderInvariant feeds ds to three aggregators — in stored
// (arrival) order, VP by VP in sorted-key order with each VP's records
// sorted by send time, and round-robin across the VPs in reverse key
// order with the auth records reversed — and demands identical
// results: the aggregator needs each VP's records in send order and
// nothing else about the interleaving.
func checkOrderInvariant(t *testing.T, name string, ds *measure.Dataset) {
	t.Helper()
	byVP := make(map[string][]measure.QueryRecord)
	for _, r := range ds.Records {
		byVP[r.VPKey] = append(byVP[r.VPKey], r)
	}
	keys := make([]string, 0, len(byVP))
	longest := 0
	for k, recs := range byVP {
		keys = append(keys, k)
		sort.SliceStable(recs, func(i, j int) bool { return sentBefore(recs[i], recs[j]) })
		if len(recs) > longest {
			longest = len(recs)
		}
	}
	sort.Strings(keys)

	arrival := Aggregate(ds)

	grouped := AggregatorFor(ds)
	for _, k := range keys {
		for _, r := range byVP[k] {
			grouped.OnQuery(r)
		}
	}
	for _, ar := range ds.AuthRecords {
		grouped.OnAuth(ar)
	}

	interleaved := AggregatorFor(ds)
	for i := 0; i < longest; i++ {
		for k := len(keys) - 1; k >= 0; k-- {
			if recs := byVP[keys[k]]; i < len(recs) {
				interleaved.OnQuery(recs[i])
			}
		}
	}
	for i := len(ds.AuthRecords) - 1; i >= 0; i-- {
		interleaved.OnAuth(ds.AuthRecords[i])
	}

	want := figures(arrival)
	if got := figures(grouped); got != want {
		t.Errorf("%s: per-VP-sorted feed differs from arrival order\n got %s\nwant %s", name, got, want)
	}
	if got := figures(interleaved); got != want {
		t.Errorf("%s: reverse-interleaved feed differs from arrival order\n got %s\nwant %s", name, got, want)
	}
}

// TestAggregatorOrderInvariant is the property every consumer of the
// record path relies on: a run's figures do not depend on how its
// vantage points interleave, so a live sink, a Replay of stored
// records and a merge of sharded lanes all finalize the same bytes.
func TestAggregatorOrderInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("aggregates three runs three times each")
	}
	for _, id := range []string{"2B", "2C", "4B"} {
		checkOrderInvariant(t, id, dataset(t, id))
	}
}

// TestAggregatorAsRunSink drives the aggregator directly from a run —
// no record ever stored — and checks it agrees with replaying the
// records of the same run kept in its Dataset.
func TestAggregatorAsRunSink(t *testing.T) {
	combo, err := measure.CombinationByID("2C")
	if err != nil {
		t.Fatal(err)
	}
	cfg := measure.DefaultRunConfig(combo, 23)
	pc := cfg.Population
	pc.NumProbes = 150
	cfg.Population = pc

	ds, err := measure.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAggregator(AggConfig{ComboID: combo.ID, Sites: combo.Sites, Duration: cfg.Duration})
	cfg.Sink = a
	if _, err := measure.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if got, want := figures(a), figures(Aggregate(ds)); got != want {
		t.Errorf("run sink differs from replay\n got %s\nwant %s", got, want)
	}
	if a.NumRecords() != len(ds.Records) || a.NumAuthRecords() != len(ds.AuthRecords) {
		t.Errorf("streamed %d/%d records, want %d/%d",
			a.NumRecords(), a.NumAuthRecords(), len(ds.Records), len(ds.AuthRecords))
	}
	if a.Size() == 0 {
		t.Error("aggregator retained no state")
	}
}

// TestAggregatorCrafted puts the crafted-semantics scenarios — failed
// queries, a VP below the five-answer floor, late coverage — through
// the order-invariance property.
func TestAggregatorCrafted(t *testing.T) {
	ds := craftedDataset([]string{"A", "B"})
	fast := map[string]float64{"A": 10, "B": 100}
	addVP(ds, 1, geo.Europe, fast, []string{"A", "A", "B", "A", "A", "A", "A", "A", "A", "B"})
	addVP(ds, 2, geo.Oceania, fast, []string{"B", "", "B", "A", "B", "B", "B", "B", "B", "B"})
	addVP(ds, 3, geo.Europe, fast, []string{"A", "B", "A"})
	addVP(ds, 4, geo.Asia, fast, []string{"A", "", "B", "A", "A", "A", "B", "B", "A", "A", "A", "A"})
	checkOrderInvariant(t, "crafted", ds)
}

// TestAggregatorBoundedMode checks MaxSamples caps retained samples
// while keeping medians close, and that it strictly shrinks the state.
func TestAggregatorBoundedMode(t *testing.T) {
	ds := dataset(t, "2C")
	exact := Aggregate(ds)

	bounded := NewAggregator(AggConfig{
		ComboID: ds.ComboID, Sites: ds.Sites, Duration: ds.Duration,
		MaxSamples: 128, Seed: 42,
	})
	ds.Replay(bounded)

	if bounded.Size() >= exact.Size() {
		t.Errorf("bounded size %d not below exact %d", bounded.Size(), exact.Size())
	}
	eShares, bShares := exact.ShareVsRTT(), bounded.ShareVsRTT()
	for i := range eShares {
		// Counts are exact either way; only sampled medians move.
		if bShares[i].Queries != eShares[i].Queries || bShares[i].Share != eShares[i].Share {
			t.Errorf("bounded counts drifted: %+v vs %+v", bShares[i], eShares[i])
		}
		if e, b := eShares[i].MedianRTT, bShares[i].MedianRTT; !math.IsNaN(e) {
			if rel := math.Abs(b-e) / math.Max(e, 1); rel > 0.25 {
				t.Errorf("site %s bounded median %.1f vs exact %.1f", eShares[i].Site, b, e)
			}
		}
	}
	// Preference is per-VP state, untouched by the sample cap.
	if !reflect.DeepEqual(bounded.Preference(), exact.Preference()) {
		t.Error("bounded mode changed the preference result")
	}
}

// TestAggregatorMetrics checks the peak-size gauge lands in the
// registry at Close.
func TestAggregatorMetrics(t *testing.T) {
	ds := dataset(t, "2B")
	reg := obs.NewRegistry()
	a := NewAggregator(AggConfig{
		ComboID: ds.ComboID, Sites: ds.Sites, Duration: ds.Duration, Metrics: reg,
	})
	ds.Replay(a)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	g := reg.Snapshot().Gauge(`analysis_aggregator_peak_size{combo="2B"}`)
	if g != float64(a.Size()) || g == 0 {
		t.Errorf("peak gauge = %v, want %d", g, a.Size())
	}
}

func TestAggregatorEmpty(t *testing.T) {
	a := NewAggregator(AggConfig{ComboID: "X", Sites: []string{"FRA"}, Duration: time.Hour})
	if res := a.ProbeAll(); res.VPs != 0 || res.PercentAll != 0 {
		t.Errorf("empty ProbeAll = %+v", res)
	}
	if res := a.Preference(); res.QualifiedVPs != 0 {
		t.Errorf("empty Preference = %+v", res)
	}
	if _, _, n := a.AuthSidePreference(1); n != 0 {
		t.Errorf("empty AuthSidePreference resolvers = %d", n)
	}
	if a.Size() != 0 {
		t.Errorf("empty size = %d", a.Size())
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRankAggMatchesRanks(t *testing.T) {
	per := map[string]map[string]int{
		"r1": {"a": 300},
		"r2": {"a": 100, "b": 50, "c": 40, "d": 30, "e": 20, "f": 60},
		"r3": {"a": 50, "b": 50, "c": 50, "d": 50, "e": 50, "f": 50, "g": 50, "h": 50, "i": 50, "j": 50},
		"r4": {"a": 3},
	}
	agg := NewRankAgg()
	total := 0
	for rec, byServer := range per {
		for srv, n := range byServer {
			// Split one count across two observations: they must merge.
			agg.Observe(rec, srv, n/2)
			agg.Observe(rec, srv, n-n/2)
			total += n
		}
	}
	if agg.TotalQueries() != total {
		t.Errorf("total = %d, want %d", agg.TotalQueries(), total)
	}
	if agg.Recursives() != len(per) {
		t.Errorf("recursives = %d, want %d", agg.Recursives(), len(per))
	}
	if got, want := agg.Bands(10, 250), Ranks(per, 10, 250); got != want {
		t.Errorf("bands\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(agg.PerRecursive(), per) {
		t.Error("per-recursive pivot differs")
	}
}
