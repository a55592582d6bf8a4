// Package obs is the cross-layer observability substrate: named atomic
// counters, gauges and fixed-bucket histograms in a registry, plus a
// lightweight per-query trace hook. It exists so the serving and
// orchestration layers (authserver, resolver, netsim, core.Runner) can
// be watched live under load — the operational visibility the paper's
// authoritative operators rely on — without perturbing what they
// measure.
//
// Design constraints, in order:
//
//  1. Hot-path instruments are update-only and lock-free: Counter.Inc,
//     Gauge.Set and Histogram.Observe are single atomic operations (a
//     short CAS loop for the histogram sum) and never allocate.
//  2. Every instrument method is nil-safe: a nil *Counter (etc.) is a
//     no-op, so engines instrument unconditionally and pay one
//     predictable branch when metrics are disabled. Benchmarks pin the
//     enabled-path overhead (see BENCH.md).
//  3. Zero dependencies beyond the standard library. The text
//     exposition follows the Prometheus format closely enough that a
//     real scraper ingests it, but nothing here imports one.
//
// Registration (Registry.Counter, .Gauge, .Histogram) takes a mutex
// and may allocate; engines register once at construction and hold the
// returned pointers.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil Counter is a no-op sink.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 value that can go up and down (an SRTT
// snapshot, a pool depth). A nil Gauge is a no-op sink.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta with a CAS loop (lock-free, no allocation).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution. Bounds are inclusive upper
// edges in ascending order; an implicit +Inf bucket catches the rest.
// Observe is a linear scan over the (small, fixed) bound slice plus
// two atomic adds and a CAS — no locks, no allocation. A nil Histogram
// is a no-op sink.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64
}

// newHistogram copies bounds and validates ordering.
func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// snapshot copies the histogram state. Buckets are read without a
// barrier against concurrent Observe, so a snapshot taken mid-update
// can be off by in-flight samples — fine for monitoring.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is the point-in-time state of one histogram.
type HistogramSnapshot struct {
	// Bounds are the inclusive upper bucket edges; Counts has one more
	// entry than Bounds (the +Inf bucket).
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// Quantile returns an estimate of quantile q in [0,1] by linear
// interpolation inside the winning bucket (the +Inf bucket reports the
// last finite bound). It returns 0 when the histogram is empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var seen int64
	for i, c := range s.Counts {
		if float64(seen+c) >= rank && c > 0 {
			if i >= len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			frac := (rank - float64(seen)) / float64(c)
			return lo + frac*(s.Bounds[i]-lo)
		}
		seen += c
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Registry is a named collection of instruments. A name may carry a
// Prometheus-style label suffix (`rrl_action_total{action="slip"}`);
// the text exposition keeps it intact. Get-or-create methods return
// the same instrument for the same name, so engines sharing a registry
// aggregate into shared counters. All methods are safe for concurrent
// use, and every method on a nil *Registry returns a nil instrument,
// which is itself a no-op — "metrics off" needs no conditionals at the
// call sites.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use. Later calls return the existing
// histogram regardless of bounds (first registration wins).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every instrument, the form tests
// assert against.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// Counter returns the named counter's value (0 when absent), a
// convenience for assertions.
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns the named gauge's value (0 when absent).
func (s Snapshot) Gauge(name string) float64 { return s.Gauges[name] }

// Snapshot copies the registry. A nil registry snapshots empty.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// WriteText writes the registry in Prometheus text exposition format:
// counters and gauges as `name value`, histograms as cumulative
// `_bucket{le="..."}` series plus `_sum` and `_count`. Instrument
// names that already carry a `{label="..."}` suffix keep their labels
// merged with `le`. Output is sorted by name so scrapes and golden
// tests are stable.
func (r *Registry) WriteText(w io.Writer) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms))
	for n := range snap.Counters {
		names = append(names, n)
	}
	for n := range snap.Gauges {
		names = append(names, n)
	}
	for n := range snap.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		if v, ok := snap.Counters[name]; ok {
			if _, err := fmt.Fprintf(w, "%s %d\n", name, v); err != nil {
				return err
			}
		}
		if v, ok := snap.Gauges[name]; ok {
			if _, err := fmt.Fprintf(w, "%s %g\n", name, v); err != nil {
				return err
			}
		}
		if h, ok := snap.Histograms[name]; ok {
			if err := writeHistogramText(w, name, h); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogramText emits one histogram's bucket/sum/count series.
func writeHistogramText(w io.Writer, name string, h HistogramSnapshot) error {
	base, labels := splitLabels(name)
	var cum int64
	for i, c := range h.Counts {
		cum += c
		le := "+Inf"
		if i < len(h.Bounds) {
			le = fmt.Sprintf("%g", h.Bounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", base, labels, le, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", base, bracket(labels), h.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", base, bracket(labels), h.Count)
	return err
}

// splitLabels separates `name{a="b"}` into `name` and `a="b",` (with a
// trailing comma ready for merging, empty when unlabeled).
func splitLabels(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	inner := name[i+1 : len(name)-1]
	if inner == "" {
		return name[:i], ""
	}
	return name[:i], inner + ","
}

// bracket re-wraps a merged label fragment for non-bucket series.
func bracket(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + strings.TrimSuffix(labels, ",") + "}"
}

// Handler returns an http.Handler serving the text exposition — the
// `-metrics-addr` endpoint of cmd/authd and cmd/resolvd.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}

// LabelName builds `base{key="value"}` — the one sanctioned way to
// label an instrument, so call sites do not hand-roll quoting. Quotes
// and backslashes in value are escaped.
func LabelName(base, key, value string) string {
	v := strings.NewReplacer(`\`, `\\`, `"`, `\"`).Replace(value)
	return base + "{" + key + `="` + v + `"}`
}

// ListenAndServe serves the registry's text snapshot over HTTP on addr
// (at /metrics and /) until the listener fails. Daemons run it on its
// own goroutine:
//
//	go func() { log.Println(obs.ListenAndServe(addr, reg)) }()
func ListenAndServe(addr string, r *Registry) error {
	mux := http.NewServeMux()
	h := r.Handler()
	mux.Handle("/metrics", h)
	mux.Handle("/", h)
	return http.ListenAndServe(addr, mux)
}
