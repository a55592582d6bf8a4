// Package zone implements the authoritative data model: a zone is a
// set of RRsets under an origin, with RFC 1034 lookup semantics
// (exact match, NODATA vs NXDOMAIN, CNAME, and wildcards).
//
// Wildcards matter for this system: the paper's measurement queries a
// unique label for every probe ("unique labels for each query" §3.1)
// so the test zone serves *.ourtestdomain.nl from a wildcard TXT whose
// content identifies the answering site.
package zone

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"ritw/internal/dnswire"
)

// Errors returned by zone operations.
var (
	ErrOutOfZone = errors.New("zone: record out of zone")
	ErrNoSOA     = errors.New("zone: zone has no SOA")
	ErrDupSOA    = errors.New("zone: duplicate SOA")
)

// Zone is an authoritative zone: an origin plus RRsets.
type Zone struct {
	origin dnswire.Name
	apex   dnswire.Name // origin.Canonical(): the apex's key in nodes
	soa    *dnswire.RR
	// nodes maps canonical owner name -> type -> RRset. Index it only
	// with a Canonical() name (or a slice or Wildcard of one).
	nodes map[dnswire.Name]map[dnswire.Type][]dnswire.RR
}

// New creates an empty zone for origin.
func New(origin dnswire.Name) *Zone {
	return &Zone{
		origin: origin,
		apex:   origin.Canonical(),
		nodes:  make(map[dnswire.Name]map[dnswire.Type][]dnswire.RR),
	}
}

// Origin returns the zone apex name.
func (z *Zone) Origin() dnswire.Name { return z.origin }

// SOA returns the zone's SOA record, if set.
func (z *Zone) SOA() (dnswire.RR, bool) {
	if z.soa == nil {
		return dnswire.RR{}, false
	}
	return *z.soa, true
}

// Add inserts a record. The owner must be at or below the origin, and
// a zone holds exactly one SOA (at the apex).
func (z *Zone) Add(rr dnswire.RR) error {
	if !rr.Name.IsSubdomainOf(z.origin) {
		return fmt.Errorf("%w: %s not under %s", ErrOutOfZone, rr.Name, z.origin)
	}
	if rr.Type() == dnswire.TypeSOA {
		if z.soa != nil {
			return ErrDupSOA
		}
		if !rr.Name.Equal(z.origin) {
			return fmt.Errorf("zone: SOA owner %s is not the apex %s", rr.Name, z.origin)
		}
		soa := rr
		z.soa = &soa
		return nil
	}
	key := rr.Name.Canonical()
	byType := z.nodes[key]
	if byType == nil {
		byType = make(map[dnswire.Type][]dnswire.RR)
		z.nodes[key] = byType
	}
	byType[rr.Type()] = append(byType[rr.Type()], rr)
	return nil
}

// MustAdd is Add for static configuration; it panics on error.
func (z *Zone) MustAdd(rr dnswire.RR) {
	if err := z.Add(rr); err != nil {
		panic(err)
	}
}

// NumRecords counts all records including the SOA.
func (z *Zone) NumRecords() int {
	n := 0
	if z.soa != nil {
		n++
	}
	for _, byType := range z.nodes {
		for _, set := range byType {
			n += len(set)
		}
	}
	return n
}

// ResultKind classifies the outcome of a zone lookup.
type ResultKind uint8

// Lookup outcomes, in RFC 2308 terms.
const (
	// Success: the RRset is in Records.
	Success ResultKind = iota
	// NoData: the owner exists but has no RRset of the queried type.
	NoData
	// NXDomain: the owner does not exist in the zone.
	NXDomain
	// Delegation would be used for referrals; this system serves leaf
	// zones only, so it is reserved.
	Delegation
)

// String names the lookup outcome.
func (k ResultKind) String() string {
	switch k {
	case Success:
		return "Success"
	case NoData:
		return "NoData"
	case NXDomain:
		return "NXDomain"
	case Delegation:
		return "Delegation"
	default:
		return fmt.Sprintf("ResultKind(%d)", uint8(k))
	}
}

// Result is the outcome of a zone lookup.
type Result struct {
	Kind ResultKind
	// Records is the answer RRset (owner rewritten for wildcard
	// matches, CNAME prepended when followed).
	Records []dnswire.RR
	// Authority carries the SOA for negative answers and the NS set
	// for positive ones, ready for the respective message sections.
	Authority []dnswire.RR
	// Wildcard reports whether a wildcard synthesized the answer.
	Wildcard bool
}

// Lookup resolves (qname, qtype) within the zone following RFC 1034
// §4.3.2: exact node match, else wildcard, with CNAME chasing inside
// the zone (single step; our zones do not chain CNAMEs).
func (z *Zone) Lookup(qname dnswire.Name, qtype dnswire.Type) Result {
	if !qname.IsSubdomainOf(z.origin) {
		return Result{Kind: NXDomain, Authority: z.negativeAuthority()}
	}
	if qtype == dnswire.TypeSOA && qname.Equal(z.origin) {
		if z.soa != nil {
			return Result{Kind: Success, Records: []dnswire.RR{*z.soa}, Authority: z.apexNS()}
		}
		return Result{Kind: NoData, Authority: z.negativeAuthority()}
	}

	// Every ancestor below is a slice of the canonical qname, so the
	// whole search keys the node index without building a name.
	canon := qname.Canonical()
	byType, exists := z.nodes[canon]
	if exists {
		if rrs := z.answer(byType, qname, qtype, false); rrs != nil {
			return Result{Kind: Success, Records: rrs, Authority: z.apexNS()}
		}
		return Result{Kind: NoData, Authority: z.negativeAuthority()}
	}
	// Wildcard search: climb from the qname's parent to the apex
	// looking for *.<ancestor>.
	anc := canon.Parent()
	for {
		if wc, ok := anc.Wildcard(); ok {
			if byType, ok := z.nodes[wc]; ok {
				if rrs := z.answer(byType, qname, qtype, true); rrs != nil {
					return Result{Kind: Success, Records: rrs, Authority: z.apexNS(), Wildcard: true}
				}
				return Result{Kind: NoData, Authority: z.negativeAuthority(), Wildcard: true}
			}
		}
		if anc.Equal(z.origin) || anc.IsRoot() {
			break
		}
		anc = anc.Parent()
	}
	// The apex itself exists implicitly if it has an SOA.
	if qname.Equal(z.origin) && z.soa != nil {
		return Result{Kind: NoData, Authority: z.negativeAuthority()}
	}
	return Result{Kind: NXDomain, Authority: z.negativeAuthority()}
}

// answer extracts the RRset for qtype from a node, rewriting owners
// for wildcard synthesis and following one CNAME step.
func (z *Zone) answer(byType map[dnswire.Type][]dnswire.RR, qname dnswire.Name, qtype dnswire.Type, wildcard bool) []dnswire.RR {
	rewrite := func(rrs []dnswire.RR) []dnswire.RR {
		out := make([]dnswire.RR, len(rrs))
		copy(out, rrs)
		if wildcard {
			for i := range out {
				out[i].Name = qname
			}
		}
		return out
	}
	if qtype == dnswire.TypeANY {
		var all []dnswire.RR
		types := make([]int, 0, len(byType))
		for t := range byType {
			types = append(types, int(t))
		}
		sort.Ints(types)
		for _, t := range types {
			all = append(all, rewrite(byType[dnswire.Type(t)])...)
		}
		if len(all) == 0 {
			return nil
		}
		return all
	}
	if rrs, ok := byType[qtype]; ok {
		return rewrite(rrs)
	}
	// CNAME at the node answers any type (except when CNAME itself was
	// asked, handled above).
	if rrs, ok := byType[dnswire.TypeCNAME]; ok {
		return rewrite(rrs)
	}
	return nil
}

// apexNS returns the zone's NS RRset for the authority section.
func (z *Zone) apexNS() []dnswire.RR {
	byType, ok := z.nodes[z.apex]
	if !ok {
		return nil
	}
	rrs := byType[dnswire.TypeNS]
	out := make([]dnswire.RR, len(rrs))
	copy(out, rrs)
	return out
}

// negativeAuthority returns the SOA for NXDOMAIN/NODATA responses,
// with its TTL clamped to the SOA minimum (RFC 2308 negative TTL).
func (z *Zone) negativeAuthority() []dnswire.RR {
	if z.soa == nil {
		return nil
	}
	soa := *z.soa
	if data, ok := soa.Data.(dnswire.SOA); ok && data.Minimum < soa.TTL {
		soa.TTL = data.Minimum
	}
	return []dnswire.RR{soa}
}

// Records returns every record in the zone with the SOA first and the
// rest in sorted owner/type order — the order a zone transfer emits.
// Owners sort by lower-case presentation form, which is not the order
// of the wire-form index keys ("ab" sorts before "a-b" there).
func (z *Zone) Records() []dnswire.RR {
	out := make([]dnswire.RR, 0, z.NumRecords())
	if z.soa != nil {
		out = append(out, *z.soa)
	}
	type owner struct {
		key    string
		byType map[dnswire.Type][]dnswire.RR
	}
	owners := make([]owner, 0, len(z.nodes))
	for name, byType := range z.nodes {
		owners = append(owners, owner{name.Key(), byType})
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i].key < owners[j].key })
	for _, o := range owners {
		types := make([]int, 0, len(o.byType))
		for t := range o.byType {
			types = append(types, int(t))
		}
		sort.Ints(types)
		for _, t := range types {
			out = append(out, o.byType[dnswire.Type(t)]...)
		}
	}
	return out
}

// String renders the zone in master-file-like form (apex first, then
// sorted owners) for debugging and golden tests.
func (z *Zone) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "$ORIGIN %s\n", z.origin)
	for _, rr := range z.Records() {
		fmt.Fprintln(&sb, rr.String())
	}
	return sb.String()
}
