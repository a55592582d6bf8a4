package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("q_total")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters only go up
	if c.Value() != 5 {
		t.Errorf("value = %d, want 5", c.Value())
	}
	if again := r.Counter("q_total"); again != c {
		t.Error("get-or-create must return the same counter")
	}
	if r.Counter("other") == c {
		t.Error("distinct names must be distinct counters")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("srtt_ms")
	g.Set(42.5)
	if g.Value() != 42.5 {
		t.Errorf("value = %v", g.Value())
	}
	g.Add(-2.5)
	if g.Value() != 40 {
		t.Errorf("after Add: %v", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_us", []float64{10, 100, 1000})
	for _, v := range []float64{5, 10, 11, 99, 500, 5000} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["lat_us"]
	want := []int64{2, 2, 1, 1} // (..10] (10..100] (100..1000] (1000..]
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 6 {
		t.Errorf("count = %d", s.Count)
	}
	if math.Abs(s.Sum-5625) > 1e-9 {
		t.Errorf("sum = %v, want 5625", s.Sum)
	}
	if q := s.Quantile(0.5); q <= 0 || q > 100 {
		t.Errorf("median estimate = %v, want in (0,100]", q)
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unsorted bounds should panic at registration")
		}
	}()
	NewRegistry().Histogram("bad", []float64{10, 5})
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", []float64{1})
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments must be inert")
	}
	if n := len(r.Snapshot().Counters); n != 0 {
		t.Errorf("nil registry snapshot has %d counters", n)
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	s := r.Snapshot()
	r.Counter("a").Inc()
	if s.Counter("a") != 1 {
		t.Errorf("snapshot moved: %d", s.Counter("a"))
	}
	if got := r.Snapshot().Counter("a"); got != 2 {
		t.Errorf("registry = %d", got)
	}
	if s.Counter("missing") != 0 || s.Gauge("missing") != 0 {
		t.Error("absent names must read 0")
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Gauge("a_gauge").Set(1.5)
	r.Histogram(LabelName("lat_us", "site", "fra1"), []float64{10, 100}).Observe(50)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"a_gauge 1.5\n",
		"b_total 2\n",
		`lat_us_bucket{site="fra1",le="10"} 0` + "\n",
		`lat_us_bucket{site="fra1",le="100"} 1` + "\n",
		`lat_us_bucket{site="fra1",le="+Inf"} 1` + "\n",
		`lat_us_sum{site="fra1"} 50` + "\n",
		`lat_us_count{site="fra1"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Sorted output: the gauge line precedes the counter line.
	if strings.Index(out, "a_gauge") > strings.Index(out, "b_total") {
		t.Error("output not sorted by name")
	}
}

func TestUnlabeledHistogramText(t *testing.T) {
	r := NewRegistry()
	r.Histogram("plain", []float64{1}).Observe(0.5)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`plain_bucket{le="1"} 1`, `plain_bucket{le="+Inf"} 1`, "plain_sum 0.5", "plain_count 1",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("missing %q in:\n%s", want, b.String())
		}
	}
}

func TestHandlerServesText(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total").Add(7)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "served_total 7") {
		t.Errorf("body = %q", rec.Body.String())
	}
}

func TestLabelNameEscapes(t *testing.T) {
	if got := LabelName("m", "k", `a"b\c`); got != `m{k="a\"b\\c"}` {
		t.Errorf("LabelName = %q", got)
	}
}

func TestTraceOutcomeStrings(t *testing.T) {
	cases := map[TraceOutcome]string{
		OutcomeAnswered: "answered", OutcomeCacheHit: "cachehit",
		OutcomeLocal: "local", OutcomeServFail: "servfail",
		TraceOutcome(99): "unknown",
	}
	for o, want := range cases {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), want)
		}
	}
	var got []QueryTrace
	TraceFunc(func(q QueryTrace) { got = append(got, q) }).TraceQuery(QueryTrace{QName: "x."})
	if len(got) != 1 || got[0].QName != "x." {
		t.Errorf("TraceFunc adapter: %+v", got)
	}
}

// TestConcurrentInstruments hammers one registry from many goroutines;
// run under -race it pins the lock-free update claims, and the final
// values pin that no increments are lost.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Mix registration (locked) and updates (lock-free).
				r.Counter("c_total").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", []float64{0.5, 10, 1000}).Observe(float64(i % 20))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	s := r.Snapshot()
	const total = goroutines * perG
	if s.Counter("c_total") != total {
		t.Errorf("counter = %d, want %d", s.Counter("c_total"), total)
	}
	if s.Gauge("g") != total {
		t.Errorf("gauge = %v, want %d", s.Gauge("g"), total)
	}
	h := s.Histograms["h"]
	if h.Count != total {
		t.Errorf("histogram count = %d, want %d", h.Count, total)
	}
	var bucketSum int64
	for _, c := range h.Counts {
		bucketSum += c
	}
	if bucketSum != total {
		t.Errorf("bucket sum = %d, want %d", bucketSum, total)
	}
}
