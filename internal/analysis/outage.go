package analysis

import (
	"fmt"
	"math"
	"time"

	"ritw/internal/faults"
	"ritw/internal/measure"
	"ritw/internal/stats"
)

// FaultWindow is one labelled time window whose client-side impact the
// analysis reports on: typically the envelope of a scheduled fault.
type FaultWindow struct {
	// Label names the window in reports ("outage FRA", "flap GRU"...).
	Label string
	// Site is the fault's subject site; its traffic share is tracked
	// explicitly across the phases ("" for site-less windows).
	Site string
	// Start and End bound the window, [Start, End).
	Start, End time.Duration
}

// WindowsFromSchedule converts a fault schedule's events into labelled
// analysis windows, one per configured fault in schedule order.
func WindowsFromSchedule(s *faults.Schedule) []FaultWindow {
	evs := s.EventWindows()
	out := make([]FaultWindow, len(evs))
	for i, ev := range evs {
		out[i] = FaultWindow{
			Label: ev.Kind + " " + ev.Site,
			Site:  ev.Site,
			Start: ev.Start,
			End:   ev.End,
		}
	}
	return out
}

// PhaseStats summarizes the client-observed behaviour of one phase
// (before/during/after) of a fault window.
type PhaseStats struct {
	// Queries is the number of client queries sent in the phase.
	Queries int
	// Answered is how many of them got an answer.
	Answered int
	// FailRate is 1 - Answered/Queries (0 for an empty phase).
	FailRate float64
	// MedianRTT is the median client RTT over answered queries.
	MedianRTT float64
	// SiteShare is each answering site's share of the answered queries
	// — the traffic-redistribution picture.
	SiteShare map[string]float64
}

// FaultImpact is the before/during/after account of one fault window:
// client-observed failure rate, failover latency penalty, and how the
// answered traffic redistributed across sites.
type FaultImpact struct {
	Window                FaultWindow
	Before, During, After PhaseStats
	// FailoverPenaltyMs is During.MedianRTT - Before.MedianRTT: the
	// extra client latency paid while resolvers routed around the
	// fault (0 when either phase answered nothing).
	FailoverPenaltyMs float64
}

// phaseAgg accumulates one phase of one window incrementally.
type phaseAgg struct {
	queries  int
	answered int
	toSite   map[string]int
	rtt      *stats.QuantileSketch
}

func (p *phaseAgg) observe(r measure.QueryRecord) {
	p.queries++
	if !r.OK {
		return
	}
	p.answered++
	p.rtt.Observe(r.RTTms)
	if r.Site != "" {
		p.toSite[r.Site]++
	}
}

func (p *phaseAgg) stats() PhaseStats {
	out := PhaseStats{
		Queries:   p.queries,
		Answered:  p.answered,
		SiteShare: make(map[string]float64, len(p.toSite)),
	}
	if p.queries > 0 {
		out.FailRate = 1 - float64(p.answered)/float64(p.queries)
	}
	if m := p.rtt.Median(); !math.IsNaN(m) {
		out.MedianRTT = m
	}
	for site, n := range p.toSite {
		out.SiteShare[site] = float64(n) / float64(p.answered)
	}
	return out
}

// FaultAggregator accounts for each window's impact one record at a
// time: a measure.Sink, so fault experiments stream into it and never
// hold record slices. Records are bucketed by client send time: before
// [0,Start), during [Start,End), after [End,∞). With maxSamples <= 0
// the per-phase RTT sketches are exact; a positive cap bounds memory
// via reservoir sampling (seeded for reproducibility).
type FaultAggregator struct {
	windows []FaultWindow
	phases  [][3]*phaseAgg // per window: before, during, after
}

// NewFaultAggregator builds an aggregator over the given windows.
func NewFaultAggregator(windows []FaultWindow, maxSamples int, seed int64) *FaultAggregator {
	a := &FaultAggregator{
		windows: append([]FaultWindow(nil), windows...),
		phases:  make([][3]*phaseAgg, len(windows)),
	}
	for i := range a.phases {
		for j := 0; j < 3; j++ {
			a.phases[i][j] = &phaseAgg{
				toSite: make(map[string]int),
				rtt:    stats.NewQuantileSketch(maxSamples, seed+int64(i*3+j)),
			}
		}
	}
	return a
}

// OnQuery buckets one client record into each window's phase.
func (a *FaultAggregator) OnQuery(r measure.QueryRecord) {
	for i, w := range a.windows {
		switch {
		case r.SentAt < w.Start:
			a.phases[i][0].observe(r)
		case r.SentAt < w.End:
			a.phases[i][1].observe(r)
		default:
			a.phases[i][2].observe(r)
		}
	}
}

// OnAuth is a no-op: fault impact is a client-side view.
func (a *FaultAggregator) OnAuth(measure.AuthRecord) {}

// Close implements measure.Sink.
func (a *FaultAggregator) Close() error { return nil }

// Impacts finalizes the per-window accounts.
func (a *FaultAggregator) Impacts() []FaultImpact {
	out := make([]FaultImpact, len(a.windows))
	for i, w := range a.windows {
		fi := FaultImpact{
			Window: w,
			Before: a.phases[i][0].stats(),
			During: a.phases[i][1].stats(),
			After:  a.phases[i][2].stats(),
		}
		if fi.Before.Answered > 0 && fi.During.Answered > 0 {
			fi.FailoverPenaltyMs = fi.During.MedianRTT - fi.Before.MedianRTT
		}
		out[i] = fi
	}
	return out
}

// FormatImpact renders one impact as the fixed-width phase table the
// ritw scenarios command prints.
func FormatImpact(fi FaultImpact, sites []string) []string {
	lines := []string{fmt.Sprintf("%s  [%v, %v)", fi.Window.Label, fi.Window.Start, fi.Window.End)}
	phase := func(name string, p PhaseStats) string {
		s := fmt.Sprintf("  %-7s %6d q  fail %5.1f%%  median %6.1f ms",
			name, p.Queries, 100*p.FailRate, p.MedianRTT)
		for _, site := range sites {
			s += fmt.Sprintf("  %s %5.1f%%", site, 100*p.SiteShare[site])
		}
		return s
	}
	lines = append(lines,
		phase("before", fi.Before),
		phase("during", fi.During),
		phase("after", fi.After),
		fmt.Sprintf("  failover penalty: %+.1f ms median", fi.FailoverPenaltyMs),
	)
	return lines
}
