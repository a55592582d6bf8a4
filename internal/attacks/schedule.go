// Package attacks models *traffic* adversaries against the measured
// DNS system — the counterpart of internal/faults, which models
// infrastructure failures. A declarative Schedule describes when and
// how hard each attack runs; Compile pins every stochastic choice
// (which VPs are bots, per-bot phases, which resolvers reflect) to
// entity-keyed hashes of the run seed, so the same seed + schedule
// produces byte-identical traffic at any shard count — exactly the
// contract the fault injector established.
//
// Three attack families from the NXNSAttack literature (PAPERS.md):
//
//   - NXNS: bots query an attacker-controlled zone whose name server
//     answers every query with a crafted glueless referral — Fanout NS
//     names under the *victim* zone, each derived from the query nonce
//     so no fetch is ever cache-satisfied. An undefended resolver
//     fans out against the victim's authoritatives once per NS name;
//     the MaxFetch defense caps that fan-out per client query.
//   - Flood: water torture — bots spray random-subdomain queries at
//     the victim zone through their resolver. A small per-bot name
//     pool makes RFC 2308 negative caching the effective defense.
//   - Reflection: an off-path attacker sends queries with a spoofed
//     source (the victim) to open resolvers; the responses — larger
//     than the queries — land on the victim.
package attacks

import (
	"fmt"
	"time"
)

// NXNS is one delegation-amplification campaign.
type NXNS struct {
	Start, End time.Duration // active window in run time
	Interval   time.Duration // per-bot query pacing
	Fraction   float64       // fraction of VPs acting as bots, (0, 1]
	Fanout     int           // glueless NS names per crafted referral
}

// Flood is one water-torture (random-subdomain) campaign.
type Flood struct {
	Start, End time.Duration
	Interval   time.Duration // per-bot query pacing
	Fraction   float64       // fraction of VPs acting as bots, (0, 1]
	Names      int           // per-bot name-pool size; 0 = every query unique
}

// Reflection is one spoofed-source reflection campaign.
type Reflection struct {
	Start, End time.Duration
	Interval   time.Duration // per-reflector query pacing
	Fraction   float64       // fraction of resolvers abused as reflectors, (0, 1]
}

// Schedule is a declarative set of attack campaigns for one run. The
// zero value (and nil) mean "no attacks".
type Schedule struct {
	NXNS        []NXNS
	Floods      []Flood
	Reflections []Reflection
}

// Empty reports whether the schedule (which may be nil) has no
// campaigns, so callers can skip attack setup entirely — an attack-free
// run must be byte-identical to one that never imported this package.
func (s *Schedule) Empty() bool {
	return s == nil || (len(s.NXNS) == 0 && len(s.Floods) == 0 && len(s.Reflections) == 0)
}

func checkWindow(kind string, idx int, start, end, interval time.Duration, frac float64) error {
	if start < 0 || end <= start {
		return fmt.Errorf("attacks: %s[%d]: bad window [%v, %v)", kind, idx, start, end)
	}
	if interval <= 0 {
		return fmt.Errorf("attacks: %s[%d]: interval must be positive, got %v", kind, idx, interval)
	}
	if frac <= 0 || frac > 1 {
		return fmt.Errorf("attacks: %s[%d]: fraction %g outside (0, 1]", kind, idx, frac)
	}
	return nil
}

// Validate checks every campaign for sane windows, pacing and
// fractions. A nil schedule is valid.
func (s *Schedule) Validate() error {
	if s == nil {
		return nil
	}
	for i, a := range s.NXNS {
		if err := checkWindow(KindNXNS, i, a.Start, a.End, a.Interval, a.Fraction); err != nil {
			return err
		}
		if a.Fanout < 1 {
			return fmt.Errorf("attacks: nxns[%d]: fanout must be >= 1, got %d", i, a.Fanout)
		}
	}
	for i, a := range s.Floods {
		if err := checkWindow(KindFlood, i, a.Start, a.End, a.Interval, a.Fraction); err != nil {
			return err
		}
		if a.Names < 0 {
			return fmt.Errorf("attacks: flood[%d]: names must be >= 0, got %d", i, a.Names)
		}
	}
	for i, a := range s.Reflections {
		if err := checkWindow(KindReflect, i, a.Start, a.End, a.Interval, a.Fraction); err != nil {
			return err
		}
	}
	return nil
}

// EventWindow is one campaign's active window, for impact tables.
type EventWindow struct {
	Kind       string
	Index      int
	Start, End time.Duration
}

// EventWindows lists every campaign window in canonical schedule order
// (NXNS, then floods, then reflections — the same order Report entries
// use).
func (s *Schedule) EventWindows() []EventWindow {
	if s == nil {
		return nil
	}
	var out []EventWindow
	for i, a := range s.NXNS {
		out = append(out, EventWindow{KindNXNS, i, a.Start, a.End})
	}
	for i, a := range s.Floods {
		out = append(out, EventWindow{KindFlood, i, a.Start, a.End})
	}
	for i, a := range s.Reflections {
		out = append(out, EventWindow{KindReflect, i, a.Start, a.End})
	}
	return out
}

// Describe renders one human-readable line per campaign, in canonical
// order, for scenario output and goldens.
func (s *Schedule) Describe() []string {
	if s == nil {
		return nil
	}
	var out []string
	for _, a := range s.NXNS {
		out = append(out, fmt.Sprintf("nxns [%v, %v) every %v, bots %.0f%% of VPs, fanout %d",
			a.Start, a.End, a.Interval, a.Fraction*100, a.Fanout))
	}
	for _, a := range s.Floods {
		pool := "unique names"
		if a.Names > 0 {
			pool = fmt.Sprintf("%d-name pool", a.Names)
		}
		out = append(out, fmt.Sprintf("flood [%v, %v) every %v, bots %.0f%% of VPs, %s",
			a.Start, a.End, a.Interval, a.Fraction*100, pool))
	}
	for _, a := range s.Reflections {
		out = append(out, fmt.Sprintf("reflect [%v, %v) every %v via %.0f%% of resolvers",
			a.Start, a.End, a.Interval, a.Fraction*100))
	}
	return out
}

// Defenses is the resolver-side defense matrix for one run. The zero
// value is the *measurement default*: negative caching on (it is part
// of RFC-faithful resolver behaviour) and no referral fetch budget.
type Defenses struct {
	// MaxFetch caps glueless NS-target fetches spawned per client
	// query, the NXNSAttack "MaxFetch" defense. 0 = undefended (only
	// the resolver's hard safety cap applies).
	MaxFetch int
	// NoNegativeCache disables RFC 2308 negative caching, exposing the
	// authoritatives to the full water-torture load.
	NoNegativeCache bool
}

// Describe renders the defense matrix as one line for scenario output.
func (d Defenses) Describe() string {
	fetch := "maxfetch off"
	if d.MaxFetch > 0 {
		fetch = fmt.Sprintf("maxfetch %d", d.MaxFetch)
	}
	neg := "negcache on"
	if d.NoNegativeCache {
		neg = "negcache off"
	}
	return fetch + ", " + neg
}
