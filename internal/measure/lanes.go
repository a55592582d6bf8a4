package measure

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"time"

	"ritw/internal/attacks"
	"ritw/internal/faults"
	"ritw/internal/obs"
)

// laneReport bundles the per-lane side reports a lane produces besides
// its record stream: the fault-injection ledger and the attack-traffic
// ledger. Either is nil when the run has no corresponding schedule.
type laneReport struct {
	Faults  *faults.Report
	Attacks *attacks.Report
}

// runLanes executes every lane of the planned run, one goroutine per
// shard, sending each lane's canonically-ordered batches into outs[s]
// and closing the channel when lane s ends. It returns per-lane reports
// (zero-valued entries when the run has no fault or attack schedule)
// and the run's primary error. ctx is the run's shared cancellable
// context and cancel its cause-carrying cancel: a failing lane calls
// cancel(err) — before its stream closes — so siblings stop promptly
// (first-error-wins, errgroup style) AND the merge sees ctx cancelled
// before any stream ends, which is what keeps post-failure records out
// of sinks and snapshots.
func runLanes(ctx context.Context, cancel context.CancelCauseFunc, cfg RunConfig, pl *runPlan, outs []chan []emitted, metrics *obs.Registry) ([]laneReport, error) {
	reports := make([]laneReport, pl.nShards)
	errs := make([]error, pl.nShards)
	var wg sync.WaitGroup
	for s := 0; s < pl.nShards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			defer close(outs[s])
			start := time.Now()
			var n int64
			reports[s], n, errs[s] = runOneShard(ctx, cfg, pl, s, outs[s], metrics)
			observeLane(metrics, s, n, time.Since(start))
			if errs[s] != nil {
				// First failure aborts the siblings instead of letting
				// them simulate to completion before the error surfaces.
				// Cancelling before the deferred close also tells the
				// merge to stop delivering before this stream ends.
				cancel(errs[s])
			}
		}(s)
	}
	wg.Wait()
	return reports, firstLaneError(ctx, errs)
}

// firstLaneError resolves a lane batch's primary error: the
// cancellation cause when a lane (or the snapshotter) aborted the run,
// otherwise the first recorded error (which covers plain parent-ctx
// cancellation, whose cause is context.Canceled).
func firstLaneError(ctx context.Context, errs []error) error {
	if cause := context.Cause(ctx); cause != nil && !errors.Is(cause, context.Canceled) {
		return cause
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// observeLane records one finished lane in the run's registry: a
// per-lane record counter and wall-clock gauge, plus the lane total.
func observeLane(reg *obs.Registry, lane int, records int64, wall time.Duration) {
	if reg == nil {
		return
	}
	l := strconv.Itoa(lane)
	reg.Counter("lane_runs_total").Inc()
	reg.Counter(obs.LabelName("lane_records_total", "lane", l)).Add(records)
	reg.Gauge(obs.LabelName("lane_wallclock_ms", "lane", l)).Set(float64(wall) / float64(time.Millisecond))
}

// testLaneFail, when set (tests only), lets a lane inject a failure at
// a virtual instant: runOneShard asks it once per lane and schedules
// the returned error at the returned time. The hook receives cfg so a
// test can scope the injection to its own runs (the hook is process
// global and tests run in parallel).
var testLaneFail func(cfg RunConfig, lane int) (time.Duration, error)
