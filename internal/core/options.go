package core

import (
	"runtime"
	"time"

	"ritw/internal/atlas"
	"ritw/internal/faults"
	"ritw/internal/measure"
	"ritw/internal/obs"
	"ritw/internal/resolver"
)

// RunOpts is the shared configuration surface of every experiment
// entry point: single combinations, the Table-1 batch, the Figure-6
// interval sweep, ablation grids and bootstrap replicates all read
// the same knobs. Construct it with NewRunOpts and the With* options;
// the zero value of each field means "use the paper's default".
type RunOpts struct {
	// Seed drives all randomness. Batch entry points derive per-run
	// seeds from it (run i gets Seed+i), so one seed pins an entire
	// grid.
	Seed int64
	// Scale selects the probe population size (default ScaleSmall).
	Scale Scale
	// Probes overrides Scale's probe count when positive.
	Probes int
	// Parallelism bounds how many independent runs execute
	// concurrently (default GOMAXPROCS). It affects wall-clock time
	// only, never results: each run is deterministic in its seed.
	Parallelism int
	// Interval overrides the probing cadence (default: the paper's
	// 2 minutes, via measure.DefaultRunConfig).
	Interval time.Duration
	// Metrics, if set, aggregates obs counters across every run in the
	// batch (simulator events, packets, engine counters, runner job
	// counts). Counters are additive so concurrent runs can share it;
	// it never influences results.
	Metrics *obs.Registry
	// Progress, if set, is called after every job in a batch finishes.
	// Calls are serialized by the runner.
	Progress func(BatchProgress)
	// SinkFor, if set, supplies a sink per run: records are pushed into
	// it as they complete and the run returns a summary-only dataset,
	// so peak memory stops scaling with population size (see
	// measure.RunConfig.Sink). A nil sink leaves that run's records in
	// its returned dataset. The key is the run's identity within its
	// batch: the combination ID for Table-1 runs, the interval string
	// for the Figure-6 sweep, the scenario name for scenario batches,
	// and "<combo>/<index>" for replicates. Each run closes its own
	// sink, and batch runs call SinkFor concurrently, so it must be safe
	// for concurrent use and return independent sinks.
	SinkFor func(key string) measure.Sink
	// Faults applies a fault schedule to every run in the batch (see
	// measure.RunConfig.Faults). Scenario batches override it per run.
	Faults *faults.Schedule
	// Backoff overrides the resolver population's hold-down policy for
	// every run (nil keeps resolver.DefaultBackoff).
	Backoff *resolver.BackoffConfig
	// Mix, if non-empty, re-draws every resolver's behaviour from this
	// share table on the run's entity-keyed mix stream (see
	// measure.RunConfig.Mix). nil keeps the population's own kinds.
	Mix []atlas.PolicyShare
	// Shards splits each run's VP population into that many concurrent
	// simulation lanes (see measure.RunConfig.Shards). Results are
	// byte-identical at any shard count; shards only change wall-clock
	// time, which is what makes million-VP runs tractable.
	Shards int
	// SnapshotFor, if set, supplies a snapshot/resume spec per run,
	// keyed like SinkFor (see measure.RunConfig.Snapshot and the key
	// scheme on SinkFor). Returning nil leaves that run without
	// checkpointing. Like SinkFor it is called once per run,
	// concurrently across a batch.
	SnapshotFor func(key string) *measure.SnapshotSpec
}

// Option mutates RunOpts; the With* constructors below are the public
// vocabulary.
type Option func(*RunOpts)

// NewRunOpts applies opts over the defaults (seed 0, ScaleSmall,
// paper probing cadence, GOMAXPROCS-wide parallelism).
func NewRunOpts(opts ...Option) RunOpts {
	var o RunOpts
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithSeed pins the run's randomness.
func WithSeed(seed int64) Option {
	return func(o *RunOpts) { o.Seed = seed }
}

// WithScale selects the probe population size.
func WithScale(s Scale) Option {
	return func(o *RunOpts) { o.Scale = s }
}

// WithProbes overrides the scale's probe count exactly; n <= 0 keeps
// the scale's default.
func WithProbes(n int) Option {
	return func(o *RunOpts) { o.Probes = n }
}

// WithParallelism bounds concurrent runs in batch entry points; n <= 0
// restores the GOMAXPROCS default.
func WithParallelism(n int) Option {
	return func(o *RunOpts) { o.Parallelism = n }
}

// WithInterval overrides the probing cadence of every run (the
// interval sweep sets per-run intervals itself and ignores this).
func WithInterval(d time.Duration) Option {
	return func(o *RunOpts) { o.Interval = d }
}

// WithMetrics aggregates batch-wide obs counters into r.
func WithMetrics(r *obs.Registry) Option {
	return func(o *RunOpts) { o.Metrics = r }
}

// WithProgress reports live batch completion to fn (serialized).
func WithProgress(fn func(BatchProgress)) Option {
	return func(o *RunOpts) { o.Progress = fn }
}

// WithSink streams every run's records into the sink f returns for the
// run's batch key (see RunOpts.SinkFor for the key scheme). f is
// called once per run, concurrently across a batch.
func WithSink(f func(key string) measure.Sink) Option {
	return func(o *RunOpts) { o.SinkFor = f }
}

// WithFaults applies a fault schedule to every run in the batch.
func WithFaults(s *faults.Schedule) Option {
	return func(o *RunOpts) { o.Faults = s }
}

// WithBackoff overrides the resolvers' hold-down policy in every run.
func WithBackoff(b *resolver.BackoffConfig) Option {
	return func(o *RunOpts) { o.Backoff = b }
}

// WithMix re-draws every resolver's behaviour (kind, infra cache,
// singleflight, qname minimization) from the share table, entity-keyed
// so datasets stay byte-identical at any shard count
// (see measure.RunConfig.Mix). nil keeps the population's own kinds.
func WithMix(mix []atlas.PolicyShare) Option {
	return func(o *RunOpts) { o.Mix = mix }
}

// WithShards runs each simulation split across n concurrent lanes
// (n <= 1 keeps the single lane). Datasets are byte-identical at any
// shard count; only wall-clock time changes.
func WithShards(n int) Option {
	return func(o *RunOpts) { o.Shards = n }
}

// WithSnapshot checkpoints every run at instant boundaries using the
// spec f returns for the run's batch key (nil skips that run). A spec
// whose Resume flag is set continues an interrupted run from its last
// checkpoint instead of starting over; see measure.SnapshotSpec.
func WithSnapshot(f func(key string) *measure.SnapshotSpec) Option {
	return func(o *RunOpts) { o.SnapshotFor = f }
}

// probes resolves the effective probe count.
func (o RunOpts) probes() int {
	if o.Probes > 0 {
		return o.Probes
	}
	return o.Scale.Probes()
}

// parallelism resolves the effective worker count.
func (o RunOpts) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// runConfig builds the measure.RunConfig for one run of combo at
// seed offset off (batch entry points space runs by their index).
// key identifies the run to SinkFor.
func (o RunOpts) runConfig(combo measure.Combination, off int64, key string) measure.RunConfig {
	seed := o.Seed + off
	cfg := measure.DefaultRunConfig(combo, seed)
	pc := atlas.DefaultConfig(seed)
	pc.NumProbes = o.probes()
	cfg.Population = pc
	if o.Interval > 0 {
		cfg.Interval = o.Interval
	}
	cfg.Metrics = o.Metrics
	if o.SinkFor != nil {
		cfg.Sink = o.SinkFor(key)
	}
	cfg.Faults = o.Faults
	cfg.Backoff = o.Backoff
	cfg.Mix = o.Mix
	cfg.Shards = o.Shards
	if o.SnapshotFor != nil {
		cfg.Snapshot = o.SnapshotFor(key)
	}
	return cfg
}
