// Package analysis computes the paper's figures and tables from a
// measurement's record stream: queries-to-probe-all (Fig. 2), aggregate query
// share versus RTT (Fig. 3), per-recursive preference classification
// (Fig. 4, Table 2), RTT sensitivity (Fig. 5), probing-interval
// dependence (Fig. 6), and the per-recursive rank bands of production
// traffic (Fig. 7).
package analysis

import (
	"sort"

	"ritw/internal/geo"
	"ritw/internal/stats"
)

// Thresholds from the paper (§4.3).
const (
	// WeakPreference is the query share above which a recursive has a
	// weak preference for one authoritative.
	WeakPreference = 0.60
	// StrongPreference is the share for a strong preference.
	StrongPreference = 0.90
	// MinRTTGapMs is the median RTT difference a VP must experience
	// between authoritatives before its preference counts as
	// latency-meaningful (footnote 1).
	MinRTTGapMs = 50.0
)

// ProbeAllResult reproduces Figure 2 for one combination: how many
// queries after the first it takes a recursive to contact every
// authoritative, and what share ever do.
type ProbeAllResult struct {
	ComboID string
	// PercentAll is the share of VPs that queried all sites during the
	// measurement (the x-axis label percentages of Figure 2).
	PercentAll float64
	// Box summarizes queries-after-the-first until full coverage,
	// over the VPs that achieved it (quartiles, 10/90% whiskers).
	Box stats.BoxPlot
	// VPs is the number of vantage points considered.
	VPs int
}

// SiteShare is one bar of Figure 3: a site's share of all answered
// queries and the median RTT recursives see to it.
type SiteShare struct {
	Site      string
	Share     float64
	MedianRTT float64
	Queries   int
}

// ContinentSiteShare is one cell pair of Table 2: the share of a
// continent's queries going to a site and the median RTT.
type ContinentSiteShare struct {
	SharePct  float64
	MedianRTT float64
	Queries   int
}

// PreferenceResult reproduces Figure 4's preference quantification for
// a two-authoritative dataset.
type PreferenceResult struct {
	ComboID string
	// QualifiedVPs experienced a median RTT gap of at least
	// MinRTTGapMs between the two sites.
	QualifiedVPs int
	// WeakFrac and StrongFrac are the shares of qualified VPs sending
	// ≥60% / ≥90% of their queries to one site.
	WeakFrac   float64
	StrongFrac float64
	// Curves maps each site to the sorted (descending) per-VP query
	// fraction it receives, per continent — Figure 4's x/y data.
	Curves map[geo.Continent]map[string][]float64
}

// Interval is a bootstrap confidence interval.
type Interval struct {
	Lo, Hi float64
}

// RTTSensitivityPoint is one point of Figure 5: a continent's median
// RTT to a site (x) and the fraction of its queries that site gets (y).
type RTTSensitivityPoint struct {
	Continent geo.Continent
	Site      string
	MedianRTT float64
	Fraction  float64
	VPs       int
}

// HardeningResult quantifies §4.3's observation that weak preferences
// strengthen over the hour.
type HardeningResult struct {
	// VPs is the number of weak-preference VPs tracked.
	VPs int
	// FirstHalf and SecondHalf are their mean top-site share in each
	// half of the measurement.
	FirstHalf  float64
	SecondHalf float64
}

// RankBands reproduces Figure 7's headline numbers: among recursives
// with at least minQueries, the share that used exactly one server,
// at least six, and all of them.
type RankBands struct {
	Recursives int
	// Shares sums to the full population of qualified recursives.
	OnlyOne  float64
	AtLeast6 float64
	All      float64
	// MeanTopShare is the average share of a recursive's most-used
	// server (the height of Figure 7's top band).
	MeanTopShare float64
}

// Ranks computes rank bands from per-recursive per-server counts.
// Recursives are folded in sorted-key order so the float accumulation
// (MeanTopShare) is bit-stable across runs and map layouts.
func Ranks(perRecursive map[string]map[string]int, totalServers, minQueries int) RankBands {
	var rb RankBands
	only1, ge6, all := 0, 0, 0
	var topSum float64
	recs := make([]string, 0, len(perRecursive))
	for rec := range perRecursive {
		recs = append(recs, rec)
	}
	sort.Strings(recs)
	for _, rec := range recs {
		byServer := perRecursive[rec]
		total := 0
		used := 0
		top := 0
		for _, n := range byServer {
			total += n
			if n > 0 {
				used++
			}
			if n > top {
				top = n
			}
		}
		if total < minQueries {
			continue
		}
		rb.Recursives++
		topSum += float64(top) / float64(total)
		if used == 1 {
			only1++
		}
		if used >= 6 {
			ge6++
		}
		if used == totalServers {
			all++
		}
	}
	if rb.Recursives > 0 {
		rb.OnlyOne = float64(only1) / float64(rb.Recursives)
		rb.AtLeast6 = float64(ge6) / float64(rb.Recursives)
		rb.All = float64(all) / float64(rb.Recursives)
		rb.MeanTopShare = topSum / float64(rb.Recursives)
	}
	return rb
}
