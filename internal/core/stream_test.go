package core

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"ritw/internal/analysis"
	"ritw/internal/ditl"
	"ritw/internal/measure"
)

// aggregated runs one combination with an aggregator as its sink — the
// bounded-memory way to get a run's figures — and returns the
// aggregator with the run's summary dataset.
func aggregated(ctx context.Context, comboID string, aggCfg analysis.AggConfig, opts ...Option) (*analysis.Aggregator, *measure.Dataset, error) {
	combo, err := measure.CombinationByID(comboID)
	if err != nil {
		return nil, nil, err
	}
	aggCfg.ComboID, aggCfg.Sites = combo.ID, combo.Sites
	aggCfg.Duration = measure.DefaultRunConfig(combo, 0).Duration
	agg := analysis.NewAggregator(aggCfg)
	summary, err := RunCombinationContext(ctx, comboID,
		append(opts, WithSink(func(string) measure.Sink { return agg }))...)
	return agg, summary, err
}

// TestRunCombinationAggregated: a run handed an aggregator through
// WithSink returns the summary alone, and the aggregator finalizes the
// same figures as a replay of the records the run keeps without one.
func TestRunCombinationAggregated(t *testing.T) {
	ctx := context.Background()
	ds, err := RunCombinationContext(ctx, "2C", tinyOpts(31)...)
	if err != nil {
		t.Fatal(err)
	}
	agg, summary, err := aggregated(ctx, "2C", analysis.AggConfig{}, tinyOpts(31)...)
	if err != nil {
		t.Fatal(err)
	}
	if len(summary.Records) != 0 || len(summary.AuthRecords) != 0 {
		t.Errorf("run with a sink also kept %d/%d records",
			len(summary.Records), len(summary.AuthRecords))
	}
	if summary.ActiveProbes != ds.ActiveProbes {
		t.Errorf("summary probes = %d, want %d", summary.ActiveProbes, ds.ActiveProbes)
	}
	replayed := analysis.Aggregate(ds)
	if got, want := agg.ProbeAll(), replayed.ProbeAll(); got != want {
		t.Errorf("ProbeAll\n got %+v\nwant %+v", got, want)
	}
	if got, want := agg.PreferenceHardening(), replayed.PreferenceHardening(); got != want {
		t.Errorf("Hardening\n got %+v\nwant %+v", got, want)
	}
	if agg.NumRecords() != len(ds.Records) {
		t.Errorf("streamed %d records, want %d", agg.NumRecords(), len(ds.Records))
	}
}

// TestTable1WithSinks: the batch API fans each combination's stream
// into its own sink, keyed by combination ID.
func TestTable1WithSinks(t *testing.T) {
	var mu sync.Mutex
	bufs := make(map[string]*bytes.Buffer)
	sinkFor := func(key string) measure.Sink {
		mu.Lock()
		defer mu.Unlock()
		buf := &bytes.Buffer{}
		bufs[key] = buf
		return measure.NewCSVSink(buf, key)
	}
	dss, err := RunTable1Context(context.Background(),
		append(tinyOpts(11), WithSink(sinkFor))...)
	if err != nil {
		t.Fatal(err)
	}
	if len(bufs) != 7 {
		t.Fatalf("sinks created for %d keys, want 7: %v", len(bufs), keys(bufs))
	}
	for id, ds := range dss {
		if len(ds.Records) != 0 {
			t.Errorf("%s: run with a sink also kept %d records", id, len(ds.Records))
		}
		if ds.ActiveProbes == 0 {
			t.Errorf("%s: summary lost", id)
		}
		buf, ok := bufs[id]
		if !ok || buf.Len() == 0 {
			t.Errorf("%s: no spilled CSV", id)
			continue
		}
		// Spilled rows carry the run's records.
		lines := strings.Count(buf.String(), "\n")
		if lines < ds.ActiveProbes {
			t.Errorf("%s: only %d CSV lines for %d probes", id, lines, ds.ActiveProbes)
		}
	}
}

func keys(m map[string]*bytes.Buffer) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestRanksFromTraceCSV: streaming a trace file reproduces the
// materialized pivot's bands.
func TestRanksFromTraceCSV(t *testing.T) {
	trace := &ditl.Trace{
		Observed: []string{"a-root", "b-root", "c-root"},
		Counts: map[string]map[string]int{
			"a-root": {"r1": 300, "r2": 100, "r3": 80},
			"b-root": {"r2": 90, "r3": 80},
			"c-root": {"r3": 90, "r4": 3},
		},
	}
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := analysis.Ranks(trace.PerRecursive(), 3, 200)
	got, err := RanksFromTraceCSV(bytes.NewReader(buf.Bytes()), 3, 200)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("bands\n got %+v\nwant %+v", got, want)
	}
	// totalServers <= 0 derives the server count from the file.
	derived, err := RanksFromTraceCSV(bytes.NewReader(buf.Bytes()), 0, 200)
	if err != nil {
		t.Fatal(err)
	}
	if derived != want {
		t.Errorf("derived-server bands\n got %+v\nwant %+v", derived, want)
	}
	if _, err := RanksFromTraceCSV(strings.NewReader(""), 0, 1); err == nil {
		t.Error("empty trace should fail")
	}
}
