package analysis

import (
	"fmt"

	"ritw/internal/attacks"
)

// WindowsFromAttacks converts an attack schedule's campaigns into
// labelled analysis windows ("nxns#0", "flood#1", ...), one per
// campaign in canonical schedule order. Feeding these to
// a FaultAggregator measures the benign collateral damage
// of each campaign: what happened to ordinary clients' failure rate
// and latency while the attack ran.
func WindowsFromAttacks(s *attacks.Schedule) []FaultWindow {
	evs := s.EventWindows()
	out := make([]FaultWindow, len(evs))
	for i, ev := range evs {
		out[i] = FaultWindow{
			Label: fmt.Sprintf("%s#%d", ev.Kind, ev.Index),
			Start: ev.Start,
			End:   ev.End,
		}
	}
	return out
}

// FormatAttackReport renders a run's attack ledger as fixed-width
// lines, one campaign per line: bots enrolled, attacker packets and
// bytes in, victim packets and bytes out, and the query/bandwidth
// amplification factors. Nil reports render as a single "no attack
// traffic" line so defense-matrix output stays aligned.
func FormatAttackReport(r *attacks.Report) []string {
	if r == nil || len(r.Entries) == 0 {
		return []string{"  (no attack traffic)"}
	}
	lines := make([]string, 0, len(r.Entries))
	for _, e := range r.Entries {
		lines = append(lines, fmt.Sprintf(
			"  %-7s#%d  bots %4d  attack %7d q %9d B  victim %7d q %9d B  amp %6.2fx q %6.2fx B",
			e.Kind, e.Index, e.Bots,
			e.AttackQueries, e.AttackBytes,
			e.VictimQueries, e.VictimBytes,
			e.AmpQueries(), e.AmpBytes()))
	}
	return lines
}
