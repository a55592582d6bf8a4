package core

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"

	"ritw/internal/analysis"
)

// benchScale picks the population for the streaming benchmark from
// RITW_BENCH_SCALE (small, medium, full). The default is small so the
// CI bench smoke stays cheap; the numbers recorded in BENCH.md come
// from a full-scale run.
func benchScale(b *testing.B) Scale {
	switch s := os.Getenv("RITW_BENCH_SCALE"); s {
	case "", "small":
		return ScaleSmall
	case "medium":
		return ScaleMedium
	case "full":
		return ScaleFull
	default:
		b.Fatalf("RITW_BENCH_SCALE=%q, want small|medium|full", s)
		return 0
	}
}

// liveHeap forces a full collection and returns the live heap, so the
// deltas below count retained bytes, not allocation churn.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func heapDelta(base uint64) int64 {
	d := int64(liveHeap()) - int64(base)
	if d < 0 {
		return 0
	}
	return d
}

// figureSet is what a figure pipeline actually keeps after a run: the
// computed results, not the raw records.
type figureSet struct {
	probeAll  analysis.ProbeAllResult
	shares    []analysis.SiteShare
	pref      analysis.PreferenceResult
	hardening analysis.HardeningResult
}

func figuresOf(a *analysis.Aggregator) figureSet {
	return figureSet{
		probeAll:  a.ProbeAll(),
		shares:    a.ShareVsRTT(),
		pref:      a.Preference(),
		hardening: a.PreferenceHardening(),
	}
}

// BenchmarkShardedRun times the same 2B run single-lane and split
// across 8 simulation shards. The datasets are byte-identical (pinned
// by TestShardedMatchesSequential and the sharded golden suite), so
// the time ratio is the pure parallel speedup of closure sharding on
// this host. On a single-core container the ratio only reflects the
// smaller per-lane event heaps; record multi-core numbers in BENCH.md
// from real hardware.
func BenchmarkShardedRun(b *testing.B) {
	scale := benchScale(b)
	ctx := context.Background()
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var probes int
			for i := 0; i < b.N; i++ {
				ds, err := RunCombinationContext(ctx, "2B",
					WithSeed(42), WithScale(scale), WithShards(shards))
				if err != nil {
					b.Fatal(err)
				}
				probes = ds.ActiveProbes
			}
			b.ReportMetric(float64(probes), "VPs")
		})
	}
}

// BenchmarkStreamingVsMaterialized compares the peak retained heap of
// the two sinks a run can feed while producing the same 2C figures: the
// Dataset sink holds every QueryRecord and AuthRecord until they are
// replayed, while the Aggregator sink holds only its per-VP state. The live-MiB metric is the
// retained-heap delta with the artifacts still referenced.
func BenchmarkStreamingVsMaterialized(b *testing.B) {
	scale := benchScale(b)
	ctx := context.Background()

	b.Run("materialized", func(b *testing.B) {
		var peak int64
		for i := 0; i < b.N; i++ {
			base := liveHeap()
			ds, err := RunCombinationContext(ctx, "2C", WithSeed(42), WithScale(scale))
			if err != nil {
				b.Fatal(err)
			}
			res := figuresOf(analysis.Aggregate(ds))
			if d := heapDelta(base); d > peak {
				peak = d
			}
			runtime.KeepAlive(ds)
			runtime.KeepAlive(res)
		}
		b.ReportMetric(float64(peak)/(1<<20), "live-MiB")
	})

	b.Run("streaming", func(b *testing.B) {
		var peak int64
		for i := 0; i < b.N; i++ {
			base := liveHeap()
			agg, _, err := aggregated(ctx, "2C",
				analysis.AggConfig{MaxSamples: 1024, Seed: 42},
				WithSeed(42), WithScale(scale))
			if err != nil {
				b.Fatal(err)
			}
			res := figuresOf(agg)
			if d := heapDelta(base); d > peak {
				peak = d
			}
			runtime.KeepAlive(agg)
			runtime.KeepAlive(res)
		}
		b.ReportMetric(float64(peak)/(1<<20), "live-MiB")
	})
}
