package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ritw/internal/atlas"
	"ritw/internal/attacks"
	"ritw/internal/faults"
	"ritw/internal/measure"
	"ritw/internal/obs"
	"ritw/internal/resolver"
)

// Job is one independent simulation run inside a batch: a Table-1
// combination, one interval of the Figure-6 sweep, one cell of an
// ablation grid, or one bootstrap replicate. Jobs must be independent
// — each owns its simulator, RNGs and dataset — which is what makes
// fanning them out across cores safe and bit-for-bit reproducible.
type Job struct {
	// Name labels the job in errors ("2C", "interval 30m0s", ...).
	Name string
	// Run executes the job. It must honour ctx cancellation.
	Run func(ctx context.Context) (*measure.Dataset, error)
}

// Runner executes batches of independent measurement runs on a
// bounded worker pool. Every batch entry point in this package
// (Table-1, the interval sweep, replicate grids) is built on it, so
// `ritw all` and the benchmarks saturate the machine instead of
// walking seven virtual hours one after another.
//
// Results never depend on the pool width: each run is seeded
// independently and simulated in its own virtual timeline, so the
// dataset for a given seed is byte-identical at parallelism 1 and N.
type Runner struct {
	// Parallelism is the worker-pool width (<= 0 means GOMAXPROCS).
	Parallelism int
	// Metrics, if set, receives batch counters (jobs started/finished/
	// failed, per-batch wall-clock) and is handed to every run so the
	// whole stack aggregates into one registry.
	Metrics *obs.Registry
	// Progress, if set, is called after each job completes. Calls are
	// serialized, so a terminal reporter needs no locking of its own.
	Progress func(BatchProgress)
}

// BatchProgress is one live progress tick from a batch entry point.
type BatchProgress struct {
	// Batch names the batch ("table1", "interval sweep", ...).
	Batch string
	// Job names the job that just finished.
	Job string
	// Done and Total count completed and scheduled jobs; Failed is how
	// many of Done failed.
	Done, Total, Failed int
	// Err is the finished job's error, nil on success.
	Err error
}

// NewRunner builds a Runner from the shared options surface
// (WithParallelism, WithMetrics, WithProgress).
func NewRunner(opts ...Option) *Runner {
	o := NewRunOpts(opts...)
	return &Runner{Parallelism: o.parallelism(), Metrics: o.Metrics, Progress: o.Progress}
}

// RunJobs executes the jobs with at most Parallelism in flight and
// returns their datasets in job order. The first failure cancels the
// remaining jobs and is returned wrapped with the job's name; a
// cancelled ctx surfaces as ctx.Err().
func (r *Runner) RunJobs(ctx context.Context, jobs []Job) ([]*measure.Dataset, error) {
	return runJobs(ctx, r.Parallelism, "jobs", jobs, r.Metrics, r.Progress)
}

// runJobs is the pool core shared by Runner and the batch helpers.
// reg and progress may be nil; both observe only and never affect the
// datasets.
func runJobs(ctx context.Context, parallelism int, batch string, jobs []Job, reg *obs.Registry, progress func(BatchProgress)) ([]*measure.Dataset, error) {
	if parallelism <= 0 {
		parallelism = NewRunOpts().parallelism()
	}
	if parallelism > len(jobs) {
		parallelism = len(jobs)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, nil
	}

	started := reg.Counter("runner_jobs_started_total")
	finished := reg.Counter("runner_jobs_finished_total")
	failedC := reg.Counter("runner_jobs_failed_total")
	t0 := time.Now()
	defer func() {
		reg.Gauge(obs.LabelName("runner_batch_wallclock_ms", "batch", batch)).
			Set(float64(time.Since(t0)) / float64(time.Millisecond))
	}()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		out      = make([]*measure.Dataset, len(jobs))
		next     = make(chan int)
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error

		progMu       sync.Mutex
		done, failed int
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel() // abandon the rest of the batch
		})
	}
	finishJob := func(name string, err error) {
		if err != nil {
			failedC.Inc()
		} else {
			finished.Inc()
		}
		if progress == nil {
			return
		}
		progMu.Lock()
		done++
		if err != nil {
			failed++
		}
		progress(BatchProgress{
			Batch: batch, Job: name,
			Done: done, Total: len(jobs), Failed: failed, Err: err,
		})
		progMu.Unlock()
	}
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				started.Inc()
				ds, err := jobs[i].Run(ctx)
				finishJob(jobs[i].Name, err)
				if err != nil {
					if ctx.Err() != nil {
						fail(ctx.Err())
					} else {
						fail(fmt.Errorf("core: %s: %w", jobs[i].Name, err))
					}
					continue
				}
				out[i] = ds
			}
		}()
	}
	for i := range jobs {
		if ctx.Err() != nil {
			break // a job failed; stop feeding the pool
		}
		next <- i
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// obsFor resolves a batch's registry and progress hook: per-call
// options win over the Runner's own settings.
func (r *Runner) obsFor(o RunOpts) (*obs.Registry, func(BatchProgress)) {
	reg, progress := r.Metrics, r.Progress
	if o.Metrics != nil {
		reg = o.Metrics
	}
	if o.Progress != nil {
		progress = o.Progress
	}
	return reg, progress
}

// parallelismFor resolves the batch's pool width: a WithParallelism
// passed to the call wins, otherwise the Runner's own setting.
func (r *Runner) parallelismFor(o RunOpts) int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return r.Parallelism
}

// Combination runs one Table-1 combination under the shared options.
func (r *Runner) Combination(ctx context.Context, comboID string, opts ...Option) (*measure.Dataset, error) {
	o := NewRunOpts(opts...)
	o.Metrics, _ = r.obsFor(o)
	combo, err := measure.CombinationByID(comboID)
	if err != nil {
		return nil, err
	}
	return measure.RunContext(ctx, o.runConfig(combo, 0, combo.ID))
}

// Table1 executes all seven Table-1 combinations concurrently and
// returns their datasets keyed by combination ID. Combination i runs
// at seed Seed+i, matching the serial API of earlier versions.
func (r *Runner) Table1(ctx context.Context, opts ...Option) (map[string]*measure.Dataset, error) {
	o := NewRunOpts(opts...)
	reg, progress := r.obsFor(o)
	o.Metrics = reg // flow the resolved registry into each run config
	combos := measure.Table1()
	jobs := make([]Job, len(combos))
	for i, combo := range combos {
		cfg := o.runConfig(combo, int64(i), combo.ID)
		jobs[i] = Job{Name: "combination " + combo.ID, Run: func(ctx context.Context) (*measure.Dataset, error) {
			return measure.RunContext(ctx, cfg)
		}}
	}
	dss, err := runJobs(ctx, r.parallelismFor(o), "table1", jobs, reg, progress)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*measure.Dataset, len(combos))
	for i, combo := range combos {
		out[combo.ID] = dss[i]
	}
	return out, nil
}

// IntervalSweep re-runs combination 2C at each probing interval
// (Figure 6) concurrently and returns the datasets in interval order.
// Interval i runs at seed Seed+i, matching the serial API of earlier
// versions.
func (r *Runner) IntervalSweep(ctx context.Context, intervals []time.Duration, opts ...Option) ([]*measure.Dataset, error) {
	o := NewRunOpts(opts...)
	reg, progress := r.obsFor(o)
	o.Metrics = reg
	combo, err := measure.CombinationByID("2C")
	if err != nil {
		return nil, err
	}
	jobs := make([]Job, len(intervals))
	for i, ivl := range intervals {
		cfg := o.runConfig(combo, int64(i), ivl.String())
		cfg.Interval = ivl
		jobs[i] = Job{Name: fmt.Sprintf("interval %v", ivl), Run: func(ctx context.Context) (*measure.Dataset, error) {
			return measure.RunContext(ctx, cfg)
		}}
	}
	return runJobs(ctx, r.parallelismFor(o), "interval sweep", jobs, reg, progress)
}

// Replicates runs the same combination n times at seeds Seed..Seed+n-1
// — the fan-out behind bootstrap confidence intervals and variance
// studies — and returns the datasets in seed order.
func (r *Runner) Replicates(ctx context.Context, comboID string, n int, opts ...Option) ([]*measure.Dataset, error) {
	o := NewRunOpts(opts...)
	reg, progress := r.obsFor(o)
	o.Metrics = reg
	combo, err := measure.CombinationByID(comboID)
	if err != nil {
		return nil, err
	}
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		cfg := o.runConfig(combo, int64(i), fmt.Sprintf("%s/%d", comboID, i))
		jobs[i] = Job{Name: fmt.Sprintf("%s replicate %d", comboID, i), Run: func(ctx context.Context) (*measure.Dataset, error) {
			return measure.RunContext(ctx, cfg)
		}}
	}
	return runJobs(ctx, r.parallelismFor(o), fmt.Sprintf("%s replicates", comboID), jobs, reg, progress)
}

// Scenario is one named fault experiment: a combination, a fault
// schedule, and optionally a resolver backoff override. Scenario
// batches run every entry at the SAME seed (offset 0), so the
// populations and healthy traffic are identical across scenarios and
// any difference in outcome is attributable to the schedule alone.
type Scenario struct {
	// Name labels the scenario and is its SinkFor key.
	Name string
	// ComboID selects the authoritative deployment (default "2B").
	ComboID string
	// Faults is the scenario's fault schedule (nil = healthy baseline).
	Faults *faults.Schedule
	// Backoff overrides the resolvers' hold-down policy for this
	// scenario only (nil = the batch default from WithBackoff, or
	// resolver.DefaultBackoff).
	Backoff *resolver.BackoffConfig
	// Attacks is the scenario's adversarial traffic schedule (nil = no
	// attacks). Attack campaigns compile on their own keyed stream, so
	// adding one leaves the benign traffic byte-identical.
	Attacks *attacks.Schedule
	// Defense configures the resolvers' attack mitigations (MaxFetch
	// budget, negative-cache toggle) for this scenario.
	Defense attacks.Defenses
	// Mix re-draws every resolver's behaviour from this share table for
	// this scenario only (see measure.RunConfig.Mix). The re-draw is
	// entity-keyed and consumes no population randomness, so scenarios
	// differing only in Mix share identical topologies and traffic
	// schedules — differences in outcome are the fleet's alone.
	Mix []atlas.PolicyShare
	// PublicDNSShare, when positive, overrides the population's
	// public-resolver share for this scenario — the centralization
	// battery's knob (30–70% of VPs behind shared anycast resolvers).
	// Unlike Mix this regenerates the population, so it changes the
	// topology; compare such scenarios by their aggregate shapes, not
	// record-for-record.
	PublicDNSShare float64
}

// scenarioConfig resolves the exact measure.RunConfig a scenario batch
// executes for sc: the shared options surface, then the scenario's own
// overrides on top.
func (o RunOpts) scenarioConfig(sc Scenario) (measure.RunConfig, error) {
	comboID := sc.ComboID
	if comboID == "" {
		comboID = "2B"
	}
	combo, err := measure.CombinationByID(comboID)
	if err != nil {
		return measure.RunConfig{}, fmt.Errorf("core: scenario %s: %w", sc.Name, err)
	}
	cfg := o.runConfig(combo, 0, sc.Name)
	cfg.Faults = sc.Faults
	cfg.Attacks = sc.Attacks
	cfg.Defense = sc.Defense
	if sc.Backoff != nil {
		cfg.Backoff = sc.Backoff
	}
	if len(sc.Mix) > 0 {
		cfg.Mix = sc.Mix
	}
	if sc.PublicDNSShare > 0 {
		cfg.Population.PublicDNSShare = sc.PublicDNSShare
	}
	if err := sc.Faults.Validate(); err != nil {
		return measure.RunConfig{}, fmt.Errorf("core: scenario %s: %w", sc.Name, err)
	}
	if err := sc.Attacks.Validate(); err != nil {
		return measure.RunConfig{}, fmt.Errorf("core: scenario %s: %w", sc.Name, err)
	}
	return cfg, nil
}

// ScenarioRunConfig exposes the resolved per-scenario RunConfig so
// callers can replay a scenario's plan stage without running it —
// notably measure.PolicyAssignment, which per-policy analyses need to
// classify a mixed run's vantage points. Sink-related options are
// ignored: the returned config never owns a sink.
func ScenarioRunConfig(sc Scenario, opts ...Option) (measure.RunConfig, error) {
	o := NewRunOpts(opts...)
	o.SinkFor = nil
	return o.scenarioConfig(sc)
}

// Scenarios executes the fault scenarios concurrently and returns
// their datasets in scenario order.
func (r *Runner) Scenarios(ctx context.Context, scenarios []Scenario, opts ...Option) ([]*measure.Dataset, error) {
	o := NewRunOpts(opts...)
	reg, progress := r.obsFor(o)
	o.Metrics = reg
	jobs := make([]Job, len(scenarios))
	for i, sc := range scenarios {
		cfg, err := o.scenarioConfig(sc)
		if err != nil {
			return nil, err
		}
		jobs[i] = Job{Name: "scenario " + sc.Name, Run: func(ctx context.Context) (*measure.Dataset, error) {
			return measure.RunContext(ctx, cfg)
		}}
	}
	return runJobs(ctx, r.parallelismFor(o), "scenarios", jobs, reg, progress)
}

// RunScenariosContext executes the fault scenarios, fanned out across
// cores, and returns their datasets in scenario order.
func RunScenariosContext(ctx context.Context, scenarios []Scenario, opts ...Option) ([]*measure.Dataset, error) {
	return NewRunner(opts...).Scenarios(ctx, scenarios, opts...)
}

// RunCombinationContext executes the paper's standard measurement for
// the named Table-1 combination under the options surface.
func RunCombinationContext(ctx context.Context, comboID string, opts ...Option) (*measure.Dataset, error) {
	return NewRunner(opts...).Combination(ctx, comboID, opts...)
}

// RunTable1Context executes all seven Table-1 combinations, fanned out
// across cores, and returns their datasets keyed by combination ID.
func RunTable1Context(ctx context.Context, opts ...Option) (map[string]*measure.Dataset, error) {
	return NewRunner(opts...).Table1(ctx, opts...)
}

// RunIntervalSweepContext runs the Figure-6 interval sweep, fanned out
// across cores, and returns the datasets in interval order.
func RunIntervalSweepContext(ctx context.Context, intervals []time.Duration, opts ...Option) ([]*measure.Dataset, error) {
	return NewRunner(opts...).IntervalSweep(ctx, intervals, opts...)
}
