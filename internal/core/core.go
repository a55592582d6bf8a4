// Package core is the library's front door: it ties the measurement
// fabric (internal/measure, internal/ditl), the analyses
// (internal/analysis) and the deployment planner together behind a
// small API, mirroring the paper's structure — measure how recursives
// choose authoritatives (§4), validate against production traffic
// (§5), and turn the findings into engineering guidance (§7).
package core

import (
	"io"
	"time"

	"ritw/internal/analysis"
	"ritw/internal/ditl"
)

// Scale selects the size of a reproduction run. Full scale matches the
// paper (~9,700 probes); smaller scales keep the same structure with
// proportionally fewer vantage points, for tests and quick looks.
type Scale int

// Predefined scales.
const (
	// ScaleSmall is for unit tests and smoke runs (~800 probes).
	ScaleSmall Scale = iota
	// ScaleMedium is for benchmarks (~2,500 probes).
	ScaleMedium
	// ScaleFull is the paper's population (~9,700 probes).
	ScaleFull
)

// Probes returns the probe count for the scale.
func (s Scale) Probes() int {
	switch s {
	case ScaleSmall:
		return 800
	case ScaleMedium:
		return 2500
	default:
		return 9700
	}
}

// Figure6Intervals are the probing intervals of the paper's Figure 6.
func Figure6Intervals() []time.Duration {
	return []time.Duration{
		2 * time.Minute, 5 * time.Minute, 10 * time.Minute,
		15 * time.Minute, 20 * time.Minute, 30 * time.Minute,
	}
}

// RunRootTrace synthesizes the DITL-style root capture (Figure 7 top)
// and returns its rank bands alongside the trace.
func RunRootTrace(seed int64, scale Scale) (*ditl.Trace, analysis.RankBands, error) {
	cfg := ditl.DefaultRootConfig(seed)
	cfg.NumRecursives = scale.Probes() / 8
	cfg.MinRate = 60 // keep a healthy busy (>=250 q/h) population at small scales
	trace, err := ditl.Run(cfg)
	if err != nil {
		return nil, analysis.RankBands{}, err
	}
	rb := analysis.Ranks(trace.PerRecursive(), len(trace.Observed), 250)
	return trace, rb, nil
}

// RunNLTrace synthesizes the .nl capture (Figure 7 bottom).
func RunNLTrace(seed int64, scale Scale) (*ditl.Trace, analysis.RankBands, error) {
	cfg := ditl.DefaultNLConfig(seed)
	cfg.NumRecursives = scale.Probes() / 8
	cfg.MinRate = 60 // keep a healthy busy (>=250 q/h) population at small scales
	trace, err := ditl.Run(cfg)
	if err != nil {
		return nil, analysis.RankBands{}, err
	}
	// Half the NSes are observed, so halve the busy threshold.
	rb := analysis.Ranks(trace.PerRecursive(), len(trace.Observed), 125)
	return trace, rb, nil
}

// RanksFromTraceCSV streams a trace CSV (ditl.WriteCSV's format) into
// the Figure-7 rank analysis without materializing the trace.
// totalServers <= 0 uses the number of distinct servers in the file.
func RanksFromTraceCSV(r io.Reader, totalServers, minQueries int) (analysis.RankBands, error) {
	agg := analysis.NewRankAgg()
	servers := make(map[string]bool)
	err := ditl.StreamCSV(r, func(server, rec string, n int) error {
		servers[server] = true
		agg.Observe(rec, server, n)
		return nil
	})
	if err != nil {
		return analysis.RankBands{}, err
	}
	if totalServers <= 0 {
		totalServers = len(servers)
	}
	return agg.Bands(totalServers, minQueries), nil
}
