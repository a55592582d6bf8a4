package measure

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ritw/internal/geo"
)

// countSink counts delivered records; the cancellation tests use it to
// show how far a failed run got.
type countSink struct{ queries, auths int64 }

func (c *countSink) OnQuery(QueryRecord) { c.queries++ }
func (c *countSink) OnAuth(AuthRecord)   { c.auths++ }
func (c *countSink) Close() error        { return nil }

// TestLaneFailureCancelsSiblings injects a failure into one lane three
// virtual minutes into a half-hour run and requires (a) the run to
// surface exactly that error and (b) the sibling lanes to have been
// cancelled promptly rather than simulating to completion — measured
// by how many records reached the sink.
func TestLaneFailureCancelsSiblings(t *testing.T) {
	// Not parallel: uses the process-global testLaneFail hook.
	const magicSeed = 424242
	errBoom := errors.New("injected lane failure")
	testLaneFail = func(cfg RunConfig, lane int) (time.Duration, error) {
		if cfg.Seed == magicSeed && lane == 2 {
			return 3 * time.Minute, errBoom
		}
		return 0, nil
	}
	defer func() { testLaneFail = nil }()

	control := shardCfg(t, "2A", 120, 3)
	control.Duration = 30 * time.Minute
	control.Shards = 4
	var full countSink
	if _, err := runInto(control, &full); err != nil {
		t.Fatal(err)
	}
	if full.queries == 0 {
		t.Fatal("control run produced no records")
	}

	failed := control
	failed.Seed = magicSeed
	var partial countSink
	_, err := runInto(failed, &partial)
	if !errors.Is(err, errBoom) {
		t.Fatalf("run error = %v, want the injected lane failure", err)
	}
	// The failure hit at 3 of 30 virtual minutes. Generously allowing
	// for merge lookahead, a promptly-cancelled run delivers well under
	// half of the control's records; lanes left to finish would deliver
	// all of them.
	if partial.queries*2 >= full.queries {
		t.Fatalf("failed run delivered %d of %d records: siblings were not cancelled promptly",
			partial.queries, full.queries)
	}
}

// snapshotRun executes cfg streaming CSV into path, with checkpointing
// into snapPath every `every` of virtual time. With resume it loads the
// snapshot first, truncates the output to the checkpointed offset and
// skips the already-durable prefix — the exact wiring ritw uses.
func snapshotRun(t *testing.T, cfg RunConfig, path, snapPath string, every time.Duration, resume bool) error {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var base int64
	var skip int64
	if resume {
		snap, err := LoadSnapshot(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		if snap.OutBytes < 0 {
			t.Fatal("snapshot has no output offset to resume from")
		}
		base, skip = snap.OutBytes, snap.Records
		if err := f.Truncate(base); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Seek(base, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	csv := NewCSVSink(f, cfg.Combo.ID)
	if base > 0 {
		csv.SkipHeader()
	}
	cfg.Snapshot = &SnapshotSpec{
		Path:   snapPath,
		Every:  every,
		Resume: resume,
		Sync: func() (int64, error) {
			if err := csv.Flush(); err != nil {
				return 0, err
			}
			return base + csv.Bytes(), nil
		},
	}
	_, runErr := runInto(cfg, SkipRecords(csv, skip))
	return runErr
}

// TestLaneFailResume is the crash-recovery acceptance test: a run whose
// lane fails mid-flight leaves a checkpoint (snapshotter.
// failureCheckpoint) from which a resumed run — under a different shard
// count — completes the output file byte-identically to a run that was
// never interrupted.
func TestLaneFailResume(t *testing.T) {
	// Not parallel: uses the process-global testLaneFail hook.
	cfg := shardCfg(t, "2B", 600, 9)

	dir := t.TempDir()
	control := filepath.Join(dir, "control.csv")
	if err := snapshotRun(t, cfg, control, filepath.Join(dir, "control.snap"), time.Minute, false); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(control)
	if err != nil {
		t.Fatal(err)
	}

	// The failing run is a single lane, which makes the pre-failure
	// delivery deterministic enough to assert on: by virtual minute 15
	// the lane has shipped far more batches than its channel can buffer,
	// so the merge — and therefore the checkpoint — must have progressed.
	// With several lanes the merge cannot deliver until every stream has
	// produced a record, a wall-clock race.
	errBoom := errors.New("injected lane failure")
	testLaneFail = func(c RunConfig, lane int) (time.Duration, error) {
		if c.Seed == cfg.Seed {
			return 15 * time.Minute, errBoom
		}
		return 0, nil
	}
	out := filepath.Join(dir, "resumed.csv")
	snap := filepath.Join(dir, "resumed.snap")
	err = snapshotRun(t, cfg, out, snap, time.Minute, false)
	testLaneFail = nil
	if !errors.Is(err, errBoom) {
		t.Fatalf("run error = %v, want the injected lane failure", err)
	}
	loaded, err := LoadSnapshot(snap)
	if err != nil {
		t.Fatalf("interrupted run left no usable checkpoint: %v", err)
	}
	if loaded.Records == 0 || loaded.OutBytes <= 0 {
		t.Fatalf("checkpoint should cover progress, got %+v", loaded)
	}

	// Resuming at 4 shards is the checkpoint's layout portability (the
	// shard count is deliberately outside the fingerprint).
	resumed := cfg
	resumed.Shards = 4
	if err := snapshotRun(t, resumed, out, snap, time.Minute, true); err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed output differs from uninterrupted control (%d vs %d bytes)\n%s",
			len(got), len(want), firstDiff(got, want))
	}
}

// TestSnapshotRejectsOldVersion: a version-1 checkpoint (written before
// the fingerprint changed shape) fails to load with the version error
// instead of a misleading fingerprint mismatch.
func TestSnapshotRejectsOldVersion(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "old.snap")
	if err := os.WriteFile(path, []byte(`{"Version":1,"Fingerprint":1,"Records":10,"OutBytes":-1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadSnapshot(path)
	if err == nil || !strings.Contains(err.Error(), "is version 1") {
		t.Fatalf("LoadSnapshot of a version-1 file = %v, want the version error", err)
	}
}

// TestAppendEmittedEncoding pins the bytes StreamCRC hashes per record
// against encodings captured at the commit before snapshot.go owned
// the format, so the checkpoint CRC of a given stream is unchanged.
func TestAppendEmittedEncoding(t *testing.T) {
	t.Parallel()
	cases := []struct {
		rec  emitted
		want string
	}{
		{emitted{at: 1234567 * time.Microsecond, query: true, q: QueryRecord{
			ProbeID: 4711, Resolver: netip.MustParseAddr("10.0.3.9"), VPKey: "4711/10.0.3.9",
			Continent: geo.Europe, Seq: 17, SentAt: 1200 * time.Millisecond, RTTms: 34.567, Site: "FRA", OK: true}},
			"d8fed7cc0401e724040a0003090d343731312f31302e302e332e39021180989abc047f6abc74934841400346524101"},
		{emitted{at: 4 * time.Second, query: true, q: QueryRecord{
			ProbeID: 3, Resolver: netip.MustParseAddr("2001:db8::53"), VPKey: "3/2001:db8::53",
			Continent: geo.Oceania, Seq: 0, SentAt: 0, RTTms: 4000, Site: "", OK: false}},
			"80d0acf30e01031020010db80000000000000000000000530e332f323030313a6462383a3a3533040000000000000040af400000"},
		{emitted{at: 90 * time.Minute, a: AuthRecord{Site: "DUB", Src: netip.MustParseAddr("10.0.0.77"),
			QName: "p12x3.ourtestdomain.nl.", At: 90 * time.Minute}},
			"80e0d3c8949d010003445542040a00004d1770313278332e6f757274657374646f6d61696e2e6e6c2e80e0d3c8949d01"},
	}
	for i, c := range cases {
		if got := hex.EncodeToString(appendEmitted(nil, &c.rec)); got != c.want {
			t.Errorf("record %d encodes as\n%s\nwant\n%s", i, got, c.want)
		}
	}
}

// TestSnapshotExtendAcrossLayouts pins the deterministic resume path
// end to end: a short run finishes cleanly (leaving its final
// checkpoint), then a resumed run extends it to a longer duration —
// under a different shard layout — and must produce a file
// byte-identical to an uninterrupted long run. This exercises the
// CRC-verified prefix replay, SkipRecords, SkipHeader and the
// checkpoint's layout portability (shard count and duration are
// deliberately outside the fingerprint).
func TestSnapshotExtendAcrossLayouts(t *testing.T) {
	t.Parallel()
	long := shardCfg(t, "2A", 120, 13)
	long.Shards = 4
	short := long
	short.Duration = 10 * time.Minute

	dir := t.TempDir()
	control := filepath.Join(dir, "control.csv")
	if err := snapshotRun(t, long, control, filepath.Join(dir, "control.snap"), time.Minute, false); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(control)
	if err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(dir, "extended.csv")
	snap := filepath.Join(dir, "extended.snap")
	if err := snapshotRun(t, short, out, snap, time.Minute, false); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Records == 0 || loaded.OutBytes <= 0 {
		t.Fatalf("short run's final checkpoint should cover its records, got %+v", loaded)
	}
	// Extend under a different layout: 2 shards instead of 4.
	extended := long
	extended.Shards = 2
	if err := snapshotRun(t, extended, out, snap, time.Minute, true); err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("extended output differs from uninterrupted control\n%s", firstDiff(got, want))
	}
}

// TestSnapshotFingerprintMismatch pins that resuming under a config
// producing a different record stream is refused up front.
func TestSnapshotFingerprintMismatch(t *testing.T) {
	t.Parallel()
	cfg := shardCfg(t, "2A", 60, 17)
	cfg.Duration = 6 * time.Minute
	dir := t.TempDir()
	out := filepath.Join(dir, "run.csv")
	snap := filepath.Join(dir, "run.snap")
	if err := snapshotRun(t, cfg, out, snap, time.Minute, false); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed = 18
	other.Population.Seed = 18
	err := snapshotRun(t, other, out, snap, time.Minute, true)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("fingerprint")) {
		t.Fatalf("resume under a different seed = %v, want a fingerprint mismatch", err)
	}
	// A longer run at the same seed, however, resumes fine: Duration is
	// deliberately outside the fingerprint (causality makes the shorter
	// run's stream a prefix of the longer one's).
	longer := cfg
	longer.Duration = 8 * time.Minute
	if err := snapshotRun(t, longer, out, snap, time.Minute, true); err != nil {
		t.Fatalf("extending a finished run should resume cleanly, got %v", err)
	}
}
