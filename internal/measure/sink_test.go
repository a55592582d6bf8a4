package measure

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"ritw/internal/atlas"
	"ritw/internal/entrada"
	"ritw/internal/obs"
)

// smallCfg mirrors smallRun but returns the config so tests can run
// the same measurement through different sinks.
func smallCfg(t *testing.T, comboID string, probes int, seed int64) RunConfig {
	t.Helper()
	combo, err := CombinationByID(comboID)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultRunConfig(combo, seed)
	pc := atlas.DefaultConfig(seed)
	pc.NumProbes = probes
	cfg.Population = pc
	return cfg
}

// runInto runs cfg with its records delivered to sink.
func runInto(cfg RunConfig, sink Sink) (*Dataset, error) {
	cfg.Sink = sink
	return Run(cfg)
}

// TestStreamingMatchesMaterialized: a run delivers the same record
// sequence to a configured sink as to the Dataset it returns without
// one, and with a sink the returned Dataset is the summary alone.
func TestStreamingMatchesMaterialized(t *testing.T) {
	t.Parallel()
	cfg := smallCfg(t, "2C", 100, 21)

	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	got := &Dataset{}
	summary, err := runInto(cfg, got)
	if err != nil {
		t.Fatal(err)
	}

	// The streamed record sequence is exactly the materialized one.
	if len(got.Records) != len(want.Records) {
		t.Fatalf("streamed %d records, want %d", len(got.Records), len(want.Records))
	}
	for i := range got.Records {
		if got.Records[i] != want.Records[i] {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, got.Records[i], want.Records[i])
		}
	}
	if len(got.AuthRecords) != len(want.AuthRecords) {
		t.Fatalf("streamed %d auth records, want %d", len(got.AuthRecords), len(want.AuthRecords))
	}
	for i := range got.AuthRecords {
		if got.AuthRecords[i] != want.AuthRecords[i] {
			t.Fatalf("auth record %d differs", i)
		}
	}

	// The sink received the run summary too (Dataset implements MetaSink).
	if got.ComboID != want.ComboID || got.ActiveProbes != want.ActiveProbes ||
		got.Interval != want.Interval || got.Duration != want.Duration {
		t.Errorf("sink metadata = %s/%d, want %s/%d",
			got.ComboID, got.ActiveProbes, want.ComboID, want.ActiveProbes)
	}

	// The returned dataset is summary-only but fully described.
	if len(summary.Records) != 0 || len(summary.AuthRecords) != 0 {
		t.Errorf("run with a sink also kept %d/%d records",
			len(summary.Records), len(summary.AuthRecords))
	}
	if summary.ActiveProbes != want.ActiveProbes || len(summary.SiteAddr) != 2 {
		t.Errorf("summary dataset incomplete: %+v", summary)
	}
}

func TestCSVSinkMatchesWriteCSV(t *testing.T) {
	t.Parallel()
	cfg := smallCfg(t, "2B", 80, 5)
	var streamed bytes.Buffer
	ds, err := Run(cfg) // Dataset-sink reference
	if err != nil {
		t.Fatal(err)
	}
	sink := NewCSVSink(&streamed, cfg.Combo.ID)
	if _, err := runInto(cfg, sink); err != nil {
		t.Fatal(err)
	}
	var batch bytes.Buffer
	if err := ds.WriteCSV(&batch); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), batch.Bytes()) {
		t.Error("streamed CSV differs from WriteCSV")
	}
	if sink.Bytes() != int64(streamed.Len()) {
		t.Errorf("Bytes() = %d, wrote %d", sink.Bytes(), streamed.Len())
	}
	// An empty sink still emits the header on Close.
	var empty bytes.Buffer
	es := NewCSVSink(&empty, "X")
	if err := es.Close(); err != nil {
		t.Fatal(err)
	}
	if got := empty.String(); got != "combo,probe,resolver,vp,continent,seq,sent_ms,rtt_ms,site,ok\n" {
		t.Errorf("empty sink output = %q", got)
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	cfg := smallCfg(t, "2C", 60, 13)
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf, cfg.Combo.ID)
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runInto(cfg, sink); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// The summary line trails the stream but must still be applied.
	if got.ComboID != want.ComboID || got.Interval != want.Interval ||
		got.Duration != want.Duration || got.ActiveProbes != want.ActiveProbes {
		t.Errorf("metadata lost in streamed JSONL: %+v", got.meta())
	}
	if len(got.Records) != len(want.Records) || len(got.AuthRecords) != len(want.AuthRecords) {
		t.Fatalf("records %d/%d, want %d/%d", len(got.Records), len(got.AuthRecords),
			len(want.Records), len(want.AuthRecords))
	}
	if sink.Bytes() != int64(buf.Len()) {
		t.Errorf("Bytes() = %d, wrote %d", sink.Bytes(), buf.Len())
	}
}

func TestEntradaSinkSpillsAuthStream(t *testing.T) {
	t.Parallel()
	ds := smallRun(t, "2B", 60, 3)
	var buf bytes.Buffer
	sink := NewEntradaSink(&buf)
	for _, r := range ds.Records {
		sink.OnQuery(r) // ignored: entrada stores the server-side view
	}
	for _, a := range ds.AuthRecords {
		sink.OnAuth(a)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.Bytes() != int64(buf.Len()) || buf.Len() == 0 {
		t.Fatalf("Bytes() = %d, wrote %d", sink.Bytes(), buf.Len())
	}
	qs, err := entrada.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != len(ds.AuthRecords) {
		t.Fatalf("spilled %d queries, want %d", len(qs), len(ds.AuthRecords))
	}
	for i, q := range qs {
		a := ds.AuthRecords[i]
		if q.Server != a.Site || q.Src != a.Src {
			t.Fatalf("query %d: %+v vs auth record %+v", i, q, a)
		}
		// The format delta-encodes microsecond timestamps, so each
		// record may lose up to 1µs; the drift stays tiny and one-sided.
		if d := a.At - q.At; d < 0 || d > 10*time.Millisecond {
			t.Fatalf("query %d timestamp drift %v", i, d)
		}
	}
}

func TestTeeAndInstrumentSink(t *testing.T) {
	cfg := smallCfg(t, "2B", 50, 8)
	reg := obs.NewRegistry()
	cfg.Metrics = reg

	var csvBuf bytes.Buffer
	left := &Dataset{}
	right := InstrumentSink(NewCSVSink(&csvBuf, cfg.Combo.ID), reg, "csv")
	if _, err := runInto(cfg, Tee(left, right)); err != nil {
		t.Fatal(err)
	}
	if len(left.Records) == 0 {
		t.Fatal("tee starved the dataset branch")
	}
	snap := reg.Snapshot()
	if n := snap.Counter("measure_records_streamed_total"); n != int64(len(left.Records)) {
		t.Errorf("records counter = %d, want %d", n, len(left.Records))
	}
	if n := snap.Counter("measure_auth_records_streamed_total"); n != int64(len(left.AuthRecords)) {
		t.Errorf("auth counter = %d, want %d", n, len(left.AuthRecords))
	}
	if n := snap.Counter("measure_sink_records_streamed_total"); n != int64(len(left.Records)) {
		t.Errorf("sink records counter = %d, want %d", n, len(left.Records))
	}
	if g := snap.Gauge(`measure_sink_spilled_bytes{sink="csv"}`); g != float64(csvBuf.Len()) {
		t.Errorf("spilled gauge = %v, wrote %d", g, csvBuf.Len())
	}
	// Tee metadata fans out to meta-aware branches.
	if left.ComboID != "2B" || left.ActiveProbes == 0 {
		t.Errorf("tee dropped metadata: %+v", left.meta())
	}
	// A nil registry leaves the sink unwrapped.
	plain := NewCSVSink(&bytes.Buffer{}, "X")
	if InstrumentSink(plain, nil, "csv") != Sink(plain) {
		t.Error("nil registry should return the sink unchanged")
	}
}

func TestOpenResolverStreaming(t *testing.T) {
	t.Parallel()
	combo, err := CombinationByID("2C")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultOpenResolverConfig(combo, 4)
	cfg.NumResolvers = 40
	cfg.Duration = 10 * time.Minute

	want, err := RunOpenResolvers(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := &Dataset{}
	cfg.Sink = got
	summary, err := RunOpenResolvers(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(summary.Records) != 0 {
		t.Errorf("open-resolver run with a sink also kept %d records", len(summary.Records))
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("streamed %d records, want %d", len(got.Records), len(want.Records))
	}
	for i := range got.Records {
		if got.Records[i] != want.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

// errDiskFull simulates the filesystem giving out mid-run.
var errDiskFull = errors.New("disk full")

// brimWriter accepts the first cap bytes and then fails every write,
// the shape ENOSPC takes: early records land, late ones (including the
// final buffered flush at Close) do not.
type brimWriter struct {
	cap int
	n   int
}

func (w *brimWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.cap {
		room := w.cap - w.n
		if room < 0 {
			room = 0
		}
		w.n = w.cap
		return room, errDiskFull
	}
	w.n += len(p)
	return len(p), nil
}

// TestSinkWriteErrorsSurfaceAtClose pins the full-disk contract for
// the file-backed sinks: record callbacks cannot return errors, so a
// failed write must stick inside the sink and come back out of Close —
// which is how a truncated CSV turns into a non-zero ritw exit instead
// of a silently short dataset.
func TestSinkWriteErrorsSurfaceAtClose(t *testing.T) {
	t.Parallel()
	sinks := []struct {
		name string
		make func(w io.Writer) Sink
	}{
		{"csv", func(w io.Writer) Sink { return NewCSVSink(w, "2A") }},
		{"jsonl", func(w io.Writer) Sink { return NewJSONLSink(w, "2A") }},
	}
	for _, tc := range sinks {
		// Unit level: feed records straight into the sink until the
		// writer brims; Close must report the sticky error.
		sink := tc.make(&brimWriter{cap: 256})
		for i := 0; i < 200; i++ {
			sink.OnQuery(QueryRecord{VPKey: "vp", Site: "AMS", Seq: i, OK: true})
		}
		if err := sink.Close(); !errors.Is(err, errDiskFull) {
			t.Errorf("%s: Close() = %v, want the swallowed write error", tc.name, err)
		}
		// Run level: the same failure must surface as the run's error.
		cfg := smallCfg(t, "2A", 60, 33)
		cfg.Duration = 10 * time.Minute
		cfg.Sink = tc.make(&brimWriter{cap: 512})
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "closing sink") {
			t.Errorf("%s: full-disk run error = %v, want a closing-sink failure", tc.name, err)
		}
	}
}

// TestSinkWriteErrorAtCloseOnly drives the buffered-tail case: the
// writer has room for every record but fails on the final flush, so
// the only chance to see the error is Close's return value.
func TestSinkWriteErrorAtCloseOnly(t *testing.T) {
	t.Parallel()
	sink := NewJSONLSink(failOnFlush{}, "2A")
	sink.OnQuery(QueryRecord{VPKey: "vp", Site: "AMS", OK: true})
	if err := sink.Close(); !errors.Is(err, errDiskFull) {
		t.Errorf("Close() = %v, want the flush error", err)
	}
}

// failOnFlush absorbs nothing: every write fails, but the JSONL sink's
// bufio layer defers the first real write until its buffer fills or
// Close flushes.
type failOnFlush struct{}

func (failOnFlush) Write(p []byte) (int, error) { return 0, errDiskFull }
