package stats

import (
	"math"
	"math/rand"
	"sort"
)

// This file holds the streaming counterparts of the batch summaries:
// accumulators that consume one sample at a time and never hold more
// state than a configured bound. They back the analysis aggregators,
// which turn the record stream of a run into the paper's figures
// without materializing the dataset.

// Running accumulates count, mean, variance and extrema online using
// Welford's algorithm. The zero value is ready to use. Unlike the batch
// helpers it never stores samples, so its memory is O(1) regardless of
// how many values are observed.
type Running struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Observe folds one sample into the accumulator.
func (r *Running) Observe(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of samples observed.
func (r *Running) N() int { return r.n }

// Mean returns the running mean, NaN before any sample.
func (r *Running) Mean() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.mean
}

// Variance returns the population variance, NaN before any sample.
func (r *Running) Variance() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.m2 / float64(r.n)
}

// Stddev returns the population standard deviation, NaN before any
// sample — the streaming twin of Stddev.
func (r *Running) Stddev() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return math.Sqrt(r.Variance())
}

// Min returns the smallest sample seen, NaN before any sample.
func (r *Running) Min() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.min
}

// Max returns the largest sample seen, NaN before any sample.
func (r *Running) Max() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.max
}

// QuantileSketch estimates quantiles of a stream. Below the cap it
// keeps every sample, so quantiles are exact and bit-for-bit equal to
// Percentile over the same values; past the cap it degrades to uniform
// reservoir sampling (Vitter's algorithm R) with a deterministic,
// seeded generator, bounding memory at cap samples. Cap <= 0 means
// "no cap": the sketch stays exact forever, which is what the analysis
// aggregators use (unless ritw -maxmem caps them) so figure output is
// byte-identical across runs and layouts.
//
// Error bound in sampled mode: the reservoir is a uniform sample of
// size cap, so the estimate of the p-th quantile sits at a true rank
// whose error has standard deviation sqrt(p(1-p)/cap) rank units —
// at most 1/(2*sqrt(cap)), e.g. ±3.1 percentile points (one sigma)
// at the median with cap 256. TestQuantileSketchRankErrorProperty
// pins estimates within four sigmas of this bound on random streams;
// callers needing tighter figures raise the cap (error shrinks as
// 1/sqrt(cap)) or use exact mode.
type QuantileSketch struct {
	cap     int
	n       int64
	samples []float64
	rng     *rand.Rand
	seed    int64
}

// NewQuantileSketch returns a sketch bounded at cap retained samples
// (cap <= 0 keeps everything). The seed fixes the reservoir's
// replacement choices so runs are reproducible.
func NewQuantileSketch(cap int, seed int64) *QuantileSketch {
	return &QuantileSketch{cap: cap, seed: seed}
}

// Observe folds one sample into the sketch.
func (q *QuantileSketch) Observe(x float64) {
	q.n++
	if q.cap <= 0 || len(q.samples) < q.cap {
		q.samples = append(q.samples, x)
		return
	}
	if q.rng == nil {
		q.rng = rand.New(rand.NewSource(q.seed))
	}
	if i := q.rng.Int63n(q.n); i < int64(q.cap) {
		q.samples[i] = x
	}
}

// N returns the number of samples observed (not retained).
func (q *QuantileSketch) N() int64 { return q.n }

// Retained returns how many samples the sketch currently holds.
func (q *QuantileSketch) Retained() int { return len(q.samples) }

// Exact reports whether the sketch still holds every observed sample,
// i.e. quantile answers are exact rather than sampled estimates.
func (q *QuantileSketch) Exact() bool { return q.n == int64(len(q.samples)) }

// Quantile returns the p-th percentile (0..100) of the sketch, NaN
// before any sample. In exact mode it equals Percentile over the
// observed values.
func (q *QuantileSketch) Quantile(p float64) float64 {
	return q.Summary().Percentile(p)
}

// Median returns the sketch's median, NaN before any sample.
func (q *QuantileSketch) Median() float64 { return q.Quantile(50) }

// Samples returns a copy of the retained samples, in observation order.
// Callers use it to merge several sketches (concatenate and re-summarize):
// the merge is exact while every input sketch is exact; past the cap the
// concatenation is a union of uniform samples with per-sketch weights
// proportional to retained/observed, so merge sketches of similar N or
// keep them exact when the merged quantiles must be precise.
func (q *QuantileSketch) Samples() []float64 {
	return append([]float64(nil), q.samples...)
}

// Summary sorts the retained samples once and returns the sorted view,
// for callers that probe several ranks.
func (q *QuantileSketch) Summary() Summary {
	if len(q.samples) == 0 {
		return Summary{}
	}
	sorted := make([]float64, len(q.samples))
	copy(sorted, q.samples)
	sort.Float64s(sorted)
	return SummaryOfSorted(sorted)
}
