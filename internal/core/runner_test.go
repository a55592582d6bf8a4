package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"ritw/internal/measure"
	"ritw/internal/obs"
)

// datasetBytes serializes everything in a dataset that analysis can
// see, so determinism checks compare byte-for-byte, not just field
// spot checks.
func datasetBytes(t *testing.T, ds *measure.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	for _, ar := range ds.AuthRecords {
		fmt.Fprintf(&buf, "%s %s %s %d\n", ar.Site, ar.Src, ar.QName, ar.At)
	}
	fmt.Fprintf(&buf, "active=%d interval=%s sites=%v\n", ds.ActiveProbes, ds.Interval, ds.Sites)
	return buf.Bytes()
}

// tinyOpts keeps pool tests fast: a few hundred probes and a short
// virtual run still exercise every moving part.
func tinyOpts(seed int64) []Option {
	return []Option{WithSeed(seed), WithProbes(200), WithInterval(5 * time.Minute)}
}

// TestTable1ParallelDeterminism is the Runner's core guarantee: the
// same seed yields byte-identical datasets at parallelism 1 and N.
func TestTable1ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Table-1 batch twice")
	}
	ctx := context.Background()
	serial, err := RunTable1Context(ctx, append(tinyOpts(77), WithParallelism(1))...)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunTable1Context(ctx, append(tinyOpts(77), WithParallelism(8))...)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 7 || len(parallel) != 7 {
		t.Fatalf("combos: serial=%d parallel=%d, want 7", len(serial), len(parallel))
	}
	for id, ds := range serial {
		got, want := datasetBytes(t, parallel[id]), datasetBytes(t, ds)
		if !bytes.Equal(got, want) {
			t.Errorf("combination %s differs between parallelism 1 and 8", id)
		}
	}
}

// TestIntervalSweepParallelDeterminism covers the Figure-6 path and
// the deep comparison including SiteAddr.
func TestIntervalSweepParallelDeterminism(t *testing.T) {
	ctx := context.Background()
	intervals := []time.Duration{5 * time.Minute, 30 * time.Minute}
	serial, err := RunIntervalSweepContext(ctx, intervals, append(tinyOpts(5), WithParallelism(1))...)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunIntervalSweepContext(ctx, intervals, append(tinyOpts(5), WithParallelism(4))...)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("lengths differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("interval %v dataset differs between parallelism 1 and 4", intervals[i])
		}
	}
}

// TestRunCancellation: a cancelled context must abandon a long run
// promptly with context.Canceled, through every layer of the API.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the batch even starts
	if _, err := RunTable1Context(ctx, tinyOpts(1)...); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled Table1 err = %v, want context.Canceled", err)
	}

	// Cancel mid-flight: full-size runs take seconds; cancellation must
	// return orders of magnitude faster.
	ctx, cancel = context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := RunTable1Context(ctx, WithSeed(3), WithScale(ScaleFull), WithParallelism(2))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("mid-flight cancel err = %v, want context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("cancellation took %v, want prompt return", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run did not return within 10s")
	}
}

// TestRunnerFirstErrorCancelsBatch: one failing job aborts the batch
// and surfaces its name.
func TestRunnerFirstErrorCancelsBatch(t *testing.T) {
	boom := errors.New("boom")
	var jobs []Job
	jobs = append(jobs, Job{Name: "bad", Run: func(context.Context) (*measure.Dataset, error) {
		return nil, boom
	}})
	for i := 0; i < 10; i++ {
		jobs = append(jobs, Job{Name: fmt.Sprintf("slow-%d", i), Run: func(ctx context.Context) (*measure.Dataset, error) {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(30 * time.Second):
				return &measure.Dataset{}, nil
			}
		}})
	}
	r := &Runner{Parallelism: 4}
	start := time.Now()
	_, err := r.RunJobs(context.Background(), jobs)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("failed batch took %v, want fast abort", elapsed)
	}
}

// TestRunnerJobOrder: results come back in job order regardless of
// completion order.
func TestRunnerJobOrder(t *testing.T) {
	const n = 16
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		jobs[i] = Job{Name: fmt.Sprintf("j%d", i), Run: func(context.Context) (*measure.Dataset, error) {
			// Later jobs finish first, exercising the reordering.
			time.Sleep(time.Duration(n-i) * time.Millisecond)
			return &measure.Dataset{ComboID: fmt.Sprintf("j%d", i)}, nil
		}}
	}
	out, err := (&Runner{Parallelism: 8}).RunJobs(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, ds := range out {
		if want := fmt.Sprintf("j%d", i); ds == nil || ds.ComboID != want {
			t.Errorf("slot %d = %v, want %s", i, ds, want)
		}
	}
}

// TestOptionsDefaults pins the option surface semantics.
func TestOptionsDefaults(t *testing.T) {
	o := NewRunOpts()
	if o.probes() != ScaleSmall.Probes() {
		t.Errorf("default probes = %d, want ScaleSmall's %d", o.probes(), ScaleSmall.Probes())
	}
	if o.parallelism() < 1 {
		t.Errorf("default parallelism = %d, want >= 1", o.parallelism())
	}
	o = NewRunOpts(WithScale(ScaleFull), WithProbes(123), WithParallelism(3))
	if o.probes() != 123 {
		t.Errorf("WithProbes should win over scale: got %d", o.probes())
	}
	if o.parallelism() != 3 {
		t.Errorf("parallelism = %d, want 3", o.parallelism())
	}
	cfg := NewRunOpts(WithSeed(7), WithInterval(9*time.Minute)).runConfig(measure.Combination{ID: "2B", Sites: []string{"DUB", "FRA"}}, 2, "2B")
	if cfg.Seed != 9 {
		t.Errorf("runConfig seed = %d, want base+offset = 9", cfg.Seed)
	}
	if cfg.Interval != 9*time.Minute {
		t.Errorf("runConfig interval = %v, want 9m", cfg.Interval)
	}
}

// TestReplicates: the bootstrap fan-out returns n independent datasets
// in seed order.
func TestReplicates(t *testing.T) {
	r := NewRunner()
	dss, err := r.Replicates(context.Background(), "2B", 2, tinyOpts(21)...)
	if err != nil {
		t.Fatal(err)
	}
	if len(dss) != 2 {
		t.Fatalf("replicates = %d, want 2", len(dss))
	}
	// Different seeds must actually differ; same seed must match the
	// single-run API.
	if bytes.Equal(datasetBytes(t, dss[0]), datasetBytes(t, dss[1])) {
		t.Error("replicates with different seeds are identical")
	}
	single, err := RunCombinationContext(context.Background(), "2B", tinyOpts(21)...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(datasetBytes(t, dss[0]), datasetBytes(t, single)) {
		t.Error("replicate 0 differs from the single-run API at the same seed")
	}
}

// TestRunnerMetricsAndProgress asserts the batch observability wiring:
// job counters, the batch wall-clock gauge, and serialized progress
// callbacks with a monotonically increasing done count.
func TestRunnerMetricsAndProgress(t *testing.T) {
	reg := obs.NewRegistry()
	var mu sync.Mutex
	var events []BatchProgress
	r := &Runner{
		Parallelism: 4,
		Metrics:     reg,
		Progress: func(p BatchProgress) {
			mu.Lock()
			events = append(events, p)
			mu.Unlock()
		},
	}
	const n = 6
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		jobs[i] = Job{Name: fmt.Sprintf("j%d", i), Run: func(context.Context) (*measure.Dataset, error) {
			if i == 3 {
				return nil, errors.New("boom")
			}
			return &measure.Dataset{ComboID: fmt.Sprintf("j%d", i)}, nil
		}}
	}
	_, err := r.RunJobs(context.Background(), jobs)
	if err == nil {
		t.Fatal("expected the failing job's error")
	}

	s := reg.Snapshot()
	if got := s.Counter("runner_jobs_started_total"); got < 1 || got > n {
		t.Errorf("started = %d, want 1..%d", got, n)
	}
	finished := s.Counter("runner_jobs_finished_total")
	failed := s.Counter("runner_jobs_failed_total")
	if failed != 1 {
		t.Errorf("failed = %d, want 1", failed)
	}
	if finished+failed != int64(len(events)) {
		t.Errorf("finished=%d failed=%d but %d progress events", finished, failed, len(events))
	}
	if _, ok := s.Gauges[`runner_batch_wallclock_ms{batch="jobs"}`]; !ok {
		t.Error("batch wall-clock gauge missing")
	}

	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	sawErr := false
	for i, p := range events {
		if p.Batch != "jobs" || p.Total != n {
			t.Fatalf("event %d = %+v", i, p)
		}
		if p.Done != i+1 {
			t.Errorf("event %d done = %d, want %d (serialized, monotonic)", i, p.Done, i+1)
		}
		if p.Err != nil {
			sawErr = true
			if p.Job != "j3" || p.Failed < 1 {
				t.Errorf("error event = %+v", p)
			}
		}
	}
	if !sawErr {
		t.Error("failing job never reported through progress")
	}
}
