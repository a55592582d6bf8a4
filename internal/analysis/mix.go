package analysis

import (
	"sort"

	"ritw/internal/measure"
)

// The paper's Figure-4 headline bands: across the monthly datasets,
// 59-69% of vantage points show weak preference (no site reaches the
// 60% share threshold) and 10-37% show strong preference (one site
// above 90%). A calibrated fleet mixture should land inside both.
const (
	PaperWeakShareLow    = 0.59
	PaperWeakShareHigh   = 0.69
	PaperStrongShareLow  = 0.10
	PaperStrongShareHigh = 0.37
)

// InPaperBands reports whether a run's weak/strong preference shares
// land inside the paper's Figure-4 bands.
func InPaperBands(weakFrac, strongFrac float64) bool {
	return weakFrac >= PaperWeakShareLow && weakFrac <= PaperWeakShareHigh &&
		strongFrac >= PaperStrongShareLow && strongFrac <= PaperStrongShareHigh
}

// MixBreakout splits a mixed-fleet run's record stream by resolver
// policy: one Aggregator per policy label plus one for the whole
// mixture, every query routed by the VPKey → policy classifier
// (measure.PolicyAssignment). It implements measure.Sink, so a
// streaming run feeds per-policy Figure 4 and Table 2 in the same
// single pass as the aggregate — memory stays O(#VPs), not
// O(#records × #policies), because a VP's state lives in exactly two
// aggregators. Auth-side records flow into the mixture only: the
// server-side capture has no per-VP identity to classify.
type MixBreakout struct {
	cfg     AggConfig
	assign  map[string]string
	mixture *Aggregator
	byLabel map[string]*Aggregator
}

// NewMixBreakout builds the splitter. assign maps VPKey to policy
// label; queries from unassigned VPs (e.g. records replayed against a
// stale classifier) still count in the mixture.
func NewMixBreakout(cfg AggConfig, assign map[string]string) *MixBreakout {
	return &MixBreakout{
		cfg:     cfg,
		assign:  assign,
		mixture: NewAggregator(cfg),
		byLabel: make(map[string]*Aggregator),
	}
}

// OnQuery routes one client-side record into the mixture and its
// policy's aggregator.
func (b *MixBreakout) OnQuery(r measure.QueryRecord) {
	b.mixture.OnQuery(r)
	label, ok := b.assign[r.VPKey]
	if !ok {
		return
	}
	agg, ok := b.byLabel[label]
	if !ok {
		agg = NewAggregator(b.cfg)
		b.byLabel[label] = agg
	}
	agg.OnQuery(r)
}

// OnAuth routes one server-side record into the mixture.
func (b *MixBreakout) OnAuth(a measure.AuthRecord) {
	b.mixture.OnAuth(a)
}

// Close closes every underlying aggregator.
func (b *MixBreakout) Close() error {
	err := b.mixture.Close()
	for _, agg := range b.byLabel {
		if cerr := agg.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Mixture is the whole-fleet aggregator (what a non-split run would
// have computed).
func (b *MixBreakout) Mixture() *Aggregator { return b.mixture }

// Policy returns the named policy's aggregator, nil when no VP of that
// policy sent a query.
func (b *MixBreakout) Policy(label string) *Aggregator { return b.byLabel[label] }

// Labels lists the policy labels that received queries, sorted.
func (b *MixBreakout) Labels() []string {
	labels := make([]string, 0, len(b.byLabel))
	for l := range b.byLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return labels
}
