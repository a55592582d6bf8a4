package measure

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"net/netip"
	"os"
	"time"

	"ritw/internal/atlas"
	"ritw/internal/attacks"
	"ritw/internal/faults"
	"ritw/internal/geo"
	"ritw/internal/resolver"
)

// SnapshotSpec configures run checkpointing (RunConfig.Snapshot). The
// engine cannot serialize a live lane — the event queue holds Go
// closures — so a snapshot is an emission-frontier checkpoint instead:
// how far the canonical record stream has progressed, verified by a
// running CRC. Resuming re-simulates deterministically (keyed RNG
// means there is no RNG state to save), CRC-checks the replayed prefix
// against the snapshot, and the caller skips re-delivering it to
// durable sinks (see SkipRecords). Checkpoints land only at instant
// boundaries — after every record of a virtual instant is delivered,
// before the first of the next — because an instant is the smallest
// unit whose record set is layout-independent; see DESIGN.md §8.7.
type SnapshotSpec struct {
	// Path is the snapshot file (written atomically via rename).
	Path string
	// Every is the minimum virtual-time distance between checkpoints
	// (0 = only the final checkpoint at run completion).
	Every time.Duration
	// Resume loads Path before the run, verifies its fingerprint
	// against the config and its CRC against the replayed stream, and
	// marks the prefix as already durable.
	Resume bool
	// Sync, if set, is called at each checkpoint to flush the caller's
	// durable output sink; the returned byte offset is recorded as
	// Snapshot.OutBytes so a resume can truncate a partially-written
	// tail. Without it OutBytes is -1 (no durable output tracked).
	Sync func() (int64, error)
}

// snapshotVersion guards the snapshot file layout.
const snapshotVersion = 2

// Snapshot is the on-disk checkpoint state. Fingerprint covers every
// config field that shapes the record stream (see runFingerprint).
type Snapshot struct {
	Version     int
	Fingerprint uint64
	// Frontier is the last fully-delivered virtual instant.
	Frontier time.Duration
	// Records counts canonical records delivered up to the frontier.
	Records int64
	// StreamCRC is the running CRC-32 (IEEE) of the appendEmitted
	// encoding of those records, in canonical order.
	StreamCRC uint32
	// LaneRecords are per-lane record tallies at the checkpoint —
	// diagnostic only, since the shard count may legally differ on
	// resume.
	LaneRecords []int64
	// OutBytes is the durable output offset reported by Sync (-1 when
	// no Sync hook was configured).
	OutBytes int64
	// Shards records the layout that wrote the checkpoint
	// (informational; resume does not require it to match).
	Shards int
}

// LoadSnapshot reads and validates a snapshot file.
func LoadSnapshot(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("measure: reading snapshot: %w", err)
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("measure: parsing snapshot %s: %w", path, err)
	}
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("measure: snapshot %s is version %d, this build writes %d", path, s.Version, snapshotVersion)
	}
	return &s, nil
}

func writeSnapshot(path string, s *Snapshot) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("measure: writing snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("measure: committing snapshot: %w", err)
	}
	return nil
}

// runFingerprint hashes exactly the parameters that shape the record
// stream, for snapshot compatibility checks. The shard count is
// excluded because byte-identity makes layouts interchangeable, and
// Duration is excluded because the simulation is causal: a longer run
// reproduces a shorter run's stream as a prefix, which is what allows
// extending a finished replay from its snapshot. Population and Model
// are the resolved values from the plan, not cfg's possibly-zero ones.
func runFingerprint(cfg RunConfig, pl *runPlan) uint64 {
	fp := struct {
		Combo         Combination
		Interval      time.Duration
		Seed          int64
		Population    atlas.Config
		ChurnRate     float64
		LossRate      float64
		ClientTimeout time.Duration
		IPv6Subset    bool
		Model         geo.PathModel
		Faults        *faults.Schedule
		Backoff       *resolver.BackoffConfig
		Attacks       *attacks.Schedule
		Defense       attacks.Defenses
		Mix           []atlas.PolicyShare
	}{
		Combo:         cfg.Combo,
		Interval:      cfg.Interval,
		Seed:          cfg.Seed,
		Population:    pl.popCfg,
		ChurnRate:     cfg.ChurnRate,
		LossRate:      cfg.LossRate,
		ClientTimeout: cfg.ClientTimeout,
		IPv6Subset:    cfg.IPv6Subset,
		Model:         pl.model,
		Faults:        cfg.Faults,
		Backoff:       cfg.Backoff,
		Defense:       cfg.Defense,
		Mix:           cfg.Mix,
	}
	if !cfg.Attacks.Empty() {
		// An empty schedule produces the attack-free stream, so it must
		// fingerprint like nil.
		fp.Attacks = cfg.Attacks
	}
	b, err := json.Marshal(&fp)
	if err != nil {
		// Every field is a plain value; Marshal cannot fail on them.
		panic("measure: fingerprinting run config: " + err.Error())
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

var crcTable = crc32.MakeTable(crc32.IEEE)

// appendEmitted appends rec's binary encoding to b — the unit
// StreamCRC hashes. Integers that are non-negative by construction
// (IDs, sequence numbers, virtual times) are uvarints; RTTms is its
// exact IEEE-754 bit pattern; addresses are length-prefixed netip
// marshal form (which preserves the 4-byte/16-byte distinction).
func appendEmitted(b []byte, rec *emitted) []byte {
	appendString := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	appendAddr := func(a netip.Addr) {
		raw, _ := a.MarshalBinary() // never fails for zoneless addrs
		b = append(b, byte(len(raw)))
		b = append(b, raw...)
	}
	b = binary.AppendUvarint(b, uint64(rec.at))
	if !rec.query {
		b = append(b, 0)
		appendString(rec.a.Site)
		appendAddr(rec.a.Src)
		appendString(rec.a.QName)
		return binary.AppendUvarint(b, uint64(rec.a.At))
	}
	b = append(b, 1)
	b = binary.AppendUvarint(b, uint64(rec.q.ProbeID))
	appendAddr(rec.q.Resolver)
	appendString(rec.q.VPKey)
	b = append(b, byte(rec.q.Continent))
	b = binary.AppendUvarint(b, uint64(rec.q.Seq))
	b = binary.AppendUvarint(b, uint64(rec.q.SentAt))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(rec.q.RTTms))
	appendString(rec.q.Site)
	if rec.q.OK {
		return append(b, 1)
	}
	return append(b, 0)
}

// snapshotter observes the merged canonical stream inside runShards:
// it maintains the record count and running CRC, writes checkpoints at
// instant boundaries, and — on resume — verifies the replayed prefix
// against the loaded snapshot. Errors abort the run promptly via the
// lane-cancel hook rather than after a full (possibly week-long)
// drain.
type snapshotter struct {
	spec   *SnapshotSpec
	fp     uint64
	every  time.Duration
	nextAt time.Duration
	verify *Snapshot // loaded snapshot being re-verified, nil otherwise
	shards int

	n       int64
	crc     uint32
	lastAt  time.Duration
	perLane []int64
	buf     []byte
	err     error
	abort   func(error) // cancels the lanes; set by runShards
}

// newSnapshotter returns nil when the run has no snapshot spec.
func newSnapshotter(cfg RunConfig, pl *runPlan) (*snapshotter, error) {
	spec := cfg.Snapshot
	if spec == nil {
		return nil, nil
	}
	if spec.Path == "" {
		return nil, fmt.Errorf("measure: snapshot spec needs a path")
	}
	if spec.Every < 0 {
		return nil, fmt.Errorf("measure: snapshot interval must be >= 0, got %v", spec.Every)
	}
	sn := &snapshotter{
		spec:   spec,
		fp:     runFingerprint(cfg, pl),
		every:  spec.Every,
		nextAt: spec.Every,
		shards: pl.nShards,
	}
	if spec.Resume {
		snap, err := LoadSnapshot(spec.Path)
		if err != nil {
			return nil, err
		}
		if snap.Fingerprint != sn.fp {
			return nil, fmt.Errorf("measure: snapshot %s was taken under a different run config (fingerprint %016x, this run %016x)",
				spec.Path, snap.Fingerprint, sn.fp)
		}
		sn.verify = snap
	}
	return sn, nil
}

func (sn *snapshotter) fail(err error) {
	if sn.err == nil {
		sn.err = err
		if sn.abort != nil {
			sn.abort(err)
		}
	}
}

// observe is called for every merged record, in canonical order.
func (sn *snapshotter) observe(stream int, rec emitted) {
	if sn.err != nil {
		return
	}
	if sn.every > 0 {
		for rec.at >= sn.nextAt {
			// The previous instant is complete: everything before
			// nextAt has been delivered. Skip rewriting checkpoints
			// inside a verified prefix — they would be identical.
			if sn.verify == nil || sn.n >= sn.verify.Records {
				if err := sn.checkpoint(); err != nil {
					sn.fail(err)
					return
				}
			}
			sn.nextAt += sn.every
		}
	}
	sn.buf = appendEmitted(sn.buf[:0], &rec)
	sn.crc = crc32.Update(sn.crc, crcTable, sn.buf)
	sn.n++
	sn.lastAt = rec.at
	for stream >= len(sn.perLane) {
		sn.perLane = append(sn.perLane, 0)
	}
	sn.perLane[stream]++
	if v := sn.verify; v != nil && sn.n == v.Records {
		if sn.crc != v.StreamCRC {
			sn.fail(fmt.Errorf("measure: resume: replayed stream diverges from snapshot %s at record %d (crc %08x, snapshot %08x)",
				sn.spec.Path, sn.n, sn.crc, v.StreamCRC))
		}
	}
}

func (sn *snapshotter) checkpoint() error {
	snap := &Snapshot{
		Version:     snapshotVersion,
		Fingerprint: sn.fp,
		Frontier:    sn.lastAt,
		Records:     sn.n,
		StreamCRC:   sn.crc,
		LaneRecords: append([]int64(nil), sn.perLane...),
		OutBytes:    -1,
		Shards:      sn.shards,
	}
	if sn.spec.Sync != nil {
		off, err := sn.spec.Sync()
		if err != nil {
			return fmt.Errorf("measure: snapshot output sync: %w", err)
		}
		snap.OutBytes = off
	}
	return writeSnapshot(sn.spec.Path, snap)
}

// failureCheckpoint persists the delivered prefix when the run fails
// mid-flight: everything the merge handed to the sink before the
// cancellation is a canonical prefix (deliveries stop the instant a
// stream fails), so it is safe to resume from even when no periodic
// boundary was crossed. Best-effort — the run's primary error stands
// regardless — and never on a still-inside-verified-prefix resume,
// where rewriting would regress the checkpoint it was loaded from.
func (sn *snapshotter) failureCheckpoint() {
	if sn.err != nil || sn.n == 0 {
		return
	}
	if v := sn.verify; v != nil && sn.n < v.Records {
		return
	}
	_ = sn.checkpoint()
}

// finish runs after a successful merge: it validates that a resumed
// run actually covered the snapshot's prefix and writes the final
// checkpoint.
func (sn *snapshotter) finish() error {
	if sn.err != nil {
		return sn.err
	}
	if v := sn.verify; v != nil && sn.n < v.Records {
		return fmt.Errorf("measure: resume: run produced %d records but snapshot %s covers %d — was the run shortened?",
			sn.n, sn.spec.Path, v.Records)
	}
	return sn.checkpoint()
}

// SkipRecords wraps sink so the first n records (query and auth, in
// delivery order) are dropped and the rest pass through: the resume
// adapter for durable output sinks whose prefix already made it to
// disk. Meta and Close always pass through.
func SkipRecords(sink Sink, n int64) Sink {
	if n <= 0 {
		return sink
	}
	return &skipSink{inner: sink, left: n}
}

type skipSink struct {
	inner Sink
	left  int64
}

func (s *skipSink) OnQuery(r QueryRecord) {
	if s.left > 0 {
		s.left--
		return
	}
	s.inner.OnQuery(r)
}

func (s *skipSink) OnAuth(a AuthRecord) {
	if s.left > 0 {
		s.left--
		return
	}
	s.inner.OnAuth(a)
}

func (s *skipSink) OnMeta(m Meta) {
	if ms, ok := s.inner.(MetaSink); ok {
		ms.OnMeta(m)
	}
}

func (s *skipSink) Close() error { return s.inner.Close() }
