package zone

import (
	"net/netip"
	"strings"
	"testing"

	"ritw/internal/dnswire"
)

func testZone(t *testing.T) *Zone {
	t.Helper()
	origin := dnswire.MustParseName("ourtestdomain.nl")
	z := New(origin)
	z.MustAdd(dnswire.RR{Name: origin, Class: dnswire.ClassINET, TTL: 3600,
		Data: dnswire.SOA{
			MName:  dnswire.MustParseName("ns1.ourtestdomain.nl"),
			RName:  dnswire.MustParseName("hostmaster.ourtestdomain.nl"),
			Serial: 2017032301, Refresh: 7200, Retry: 3600, Expire: 604800, Minimum: 300,
		}})
	z.MustAdd(dnswire.RR{Name: origin, Class: dnswire.ClassINET, TTL: 3600,
		Data: dnswire.NS{Host: dnswire.MustParseName("ns1.ourtestdomain.nl")}})
	z.MustAdd(dnswire.RR{Name: origin, Class: dnswire.ClassINET, TTL: 3600,
		Data: dnswire.NS{Host: dnswire.MustParseName("ns2.ourtestdomain.nl")}})
	z.MustAdd(dnswire.RR{Name: dnswire.MustParseName("ns1.ourtestdomain.nl"),
		Class: dnswire.ClassINET, TTL: 3600,
		Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}})
	z.MustAdd(dnswire.RR{Name: dnswire.MustParseName("www.ourtestdomain.nl"),
		Class: dnswire.ClassINET, TTL: 60,
		Data: dnswire.CNAME{Target: dnswire.MustParseName("ns1.ourtestdomain.nl")}})
	// The wildcard that the measurement relies on: unique labels all
	// resolve to a site-identity TXT.
	z.MustAdd(dnswire.RR{Name: dnswire.MustParseName("*.ourtestdomain.nl"),
		Class: dnswire.ClassINET, TTL: 5,
		Data: dnswire.TXT{Strings: []string{"site=FRA"}}})
	return z
}

func TestLookupExact(t *testing.T) {
	z := testZone(t)
	res := z.Lookup(dnswire.MustParseName("ns1.ourtestdomain.nl"), dnswire.TypeA)
	if res.Kind != Success || len(res.Records) != 1 {
		t.Fatalf("res = %+v", res)
	}
	if res.Wildcard {
		t.Error("exact match flagged as wildcard")
	}
	a := res.Records[0].Data.(dnswire.A)
	if a.Addr != netip.MustParseAddr("192.0.2.1") {
		t.Errorf("A = %v", a)
	}
	if len(res.Authority) != 2 {
		t.Errorf("positive answers should carry the NS set, got %d", len(res.Authority))
	}
}

func TestLookupSOAAtApex(t *testing.T) {
	z := testZone(t)
	res := z.Lookup(z.Origin(), dnswire.TypeSOA)
	if res.Kind != Success || len(res.Records) != 1 || res.Records[0].Type() != dnswire.TypeSOA {
		t.Fatalf("res = %+v", res)
	}
}

func TestLookupNSAtApex(t *testing.T) {
	z := testZone(t)
	res := z.Lookup(z.Origin(), dnswire.TypeNS)
	if res.Kind != Success || len(res.Records) != 2 {
		t.Fatalf("res = %+v", res)
	}
}

func TestLookupWildcard(t *testing.T) {
	z := testZone(t)
	q := dnswire.MustParseName("probe-31337-0001.ourtestdomain.nl")
	res := z.Lookup(q, dnswire.TypeTXT)
	if res.Kind != Success || !res.Wildcard {
		t.Fatalf("res = %+v", res)
	}
	if !res.Records[0].Name.Equal(q) {
		t.Errorf("wildcard answer owner = %s, want %s", res.Records[0].Name, q)
	}
	txt := res.Records[0].Data.(dnswire.TXT)
	if txt.Joined() != "site=FRA" {
		t.Errorf("TXT = %v", txt)
	}
	if res.Records[0].TTL != 5 {
		t.Errorf("TTL = %d, want the paper's 5 s", res.Records[0].TTL)
	}
}

func TestWildcardDoesNotMaskExact(t *testing.T) {
	z := testZone(t)
	// ns1 exists: wildcard must not apply, so TXT at ns1 is NoData.
	res := z.Lookup(dnswire.MustParseName("ns1.ourtestdomain.nl"), dnswire.TypeTXT)
	if res.Kind != NoData {
		t.Fatalf("res = %+v", res)
	}
	if len(res.Authority) != 1 || res.Authority[0].Type() != dnswire.TypeSOA {
		t.Errorf("negative answer should carry SOA, got %+v", res.Authority)
	}
	// Negative TTL must be clamped to SOA minimum (300 < 3600).
	if res.Authority[0].TTL != 300 {
		t.Errorf("negative TTL = %d, want 300", res.Authority[0].TTL)
	}
}

func TestWildcardDeepLabels(t *testing.T) {
	z := testZone(t)
	// *.ourtestdomain.nl also matches deeper names per RFC 1034.
	res := z.Lookup(dnswire.MustParseName("a.b.ourtestdomain.nl"), dnswire.TypeTXT)
	if res.Kind != Success || !res.Wildcard {
		t.Fatalf("res = %+v", res)
	}
}

func TestLookupNXDomainOutOfZone(t *testing.T) {
	z := testZone(t)
	res := z.Lookup(dnswire.MustParseName("example.com"), dnswire.TypeA)
	if res.Kind != NXDomain {
		t.Fatalf("res = %+v", res)
	}
}

func TestLookupCNAME(t *testing.T) {
	z := testZone(t)
	// Query A at a CNAME node: CNAME is returned.
	res := z.Lookup(dnswire.MustParseName("www.ourtestdomain.nl"), dnswire.TypeA)
	if res.Kind != Success || len(res.Records) != 1 || res.Records[0].Type() != dnswire.TypeCNAME {
		t.Fatalf("res = %+v", res)
	}
	// Query CNAME explicitly also works.
	res = z.Lookup(dnswire.MustParseName("www.ourtestdomain.nl"), dnswire.TypeCNAME)
	if res.Kind != Success || res.Records[0].Type() != dnswire.TypeCNAME {
		t.Fatalf("res = %+v", res)
	}
}

func TestLookupANY(t *testing.T) {
	z := testZone(t)
	res := z.Lookup(z.Origin(), dnswire.TypeANY)
	if res.Kind != Success || len(res.Records) < 2 {
		t.Fatalf("ANY at apex = %+v", res)
	}
}

func TestAddValidation(t *testing.T) {
	z := testZone(t)
	err := z.Add(dnswire.RR{Name: dnswire.MustParseName("example.com"),
		Class: dnswire.ClassINET, Data: dnswire.TXT{Strings: []string{"x"}}})
	if err == nil {
		t.Error("out-of-zone add should fail")
	}
	err = z.Add(dnswire.RR{Name: z.Origin(), Class: dnswire.ClassINET,
		Data: dnswire.SOA{MName: z.Origin(), RName: z.Origin()}})
	if err != ErrDupSOA {
		t.Errorf("duplicate SOA err = %v", err)
	}
	z2 := New(dnswire.MustParseName("x.nl"))
	err = z2.Add(dnswire.RR{Name: dnswire.MustParseName("sub.x.nl"),
		Class: dnswire.ClassINET, Data: dnswire.SOA{}})
	if err == nil {
		t.Error("non-apex SOA should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAdd should panic on error")
		}
	}()
	z.MustAdd(dnswire.RR{Name: dnswire.MustParseName("example.com"),
		Class: dnswire.ClassINET, Data: dnswire.TXT{}})
}

func TestNumRecordsAndString(t *testing.T) {
	z := testZone(t)
	if got := z.NumRecords(); got != 6 {
		t.Errorf("NumRecords = %d, want 6", got)
	}
	s := z.String()
	for _, want := range []string{"$ORIGIN ourtestdomain.nl.", "SOA", "site=FRA"} {
		if !strings.Contains(s, want) {
			t.Errorf("zone string missing %q:\n%s", want, s)
		}
	}
}

func TestResultKindString(t *testing.T) {
	for k, want := range map[ResultKind]string{
		Success: "Success", NoData: "NoData", NXDomain: "NXDomain",
		Delegation: "Delegation", ResultKind(9): "ResultKind(9)",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestSOAAccessor(t *testing.T) {
	z := testZone(t)
	soa, ok := z.SOA()
	if !ok || soa.Type() != dnswire.TypeSOA {
		t.Fatalf("SOA() = %v %v", soa, ok)
	}
	z2 := New(dnswire.MustParseName("empty.nl"))
	if _, ok := z2.SOA(); ok {
		t.Error("empty zone should have no SOA")
	}
	if res := z2.Lookup(dnswire.MustParseName("empty.nl"), dnswire.TypeSOA); res.Kind != NoData {
		t.Errorf("SOA lookup in SOA-less zone = %+v", res)
	}
}

// TestZoneRecordsOrder pins the zone-transfer order: owners sort by
// lower-case presentation form. The node index is keyed by wire form,
// whose byte order differs — a length octet sorts "ab" (\x02ab) before
// "a-b" (\x03a-b), and a shorter first label before any longer one —
// so the owners here are chosen to tell the two orders apart.
func TestZoneRecordsOrder(t *testing.T) {
	origin := dnswire.MustParseName("example.nl")
	z := New(origin)
	z.MustAdd(dnswire.RR{Name: origin, Class: dnswire.ClassINET, TTL: 60,
		Data: dnswire.SOA{MName: origin, RName: origin, Minimum: 60}})
	// Inserted in wire-key order, which is not the wanted order.
	for _, owner := range []string{"ab.example.nl", "z.example.nl", "A-B.example.nl", "example.nl", "*.example.nl"} {
		z.MustAdd(dnswire.RR{Name: dnswire.MustParseName(owner), Class: dnswire.ClassINET, TTL: 60,
			Data: dnswire.TXT{Strings: []string{owner}}})
	}
	want := []string{"example.nl.", "*.example.nl.", "A-B.example.nl.", "ab.example.nl.", "example.nl.", "z.example.nl."}
	var got []string
	for _, rr := range z.Records() {
		got = append(got, rr.Name.String())
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("Records() owners:\n got %v\nwant %v (SOA, then lower-case presentation order)", got, want)
	}
	var lines []string
	for _, line := range strings.Split(strings.TrimSpace(z.String()), "\n")[1:] {
		lines = append(lines, strings.Fields(line)[0])
	}
	if strings.Join(lines, " ") != strings.Join(want, " ") {
		t.Errorf("String() owners %v, want %v", lines, want)
	}
}

// TestLookupKeysWithoutAllocating pins the point of the wire-form node
// index: a lower-case query name reaches its node, or climbs to the
// wildcard, without building a single key. What remains is the answer
// and authority slices handed to the caller.
func TestLookupKeysWithoutAllocating(t *testing.T) {
	z := testZone(t)
	for _, c := range []struct {
		qname string
		want  float64
	}{
		{"p1234-7.ourtestdomain.nl", 2},     // wildcard: rewritten answer + NS set
		{"a.b.c.d.ourtestdomain.nl", 2},     // four levels of climb cost nothing more
		{"ns1.ourtestdomain.nl", 2},         // exact: answer copy + NS set
		{"nope.www.ourtestdomain.nl", 2},    // still the wildcard, past an existing node
		{"P1234-7.OurTestDomain.NL", 2 + 1}, // mixed case pays for one canonical copy
	} {
		qname := dnswire.MustParseName(c.qname)
		if res := z.Lookup(qname, dnswire.TypeTXT); res.Kind == NXDomain {
			t.Fatalf("%s: %v", c.qname, res.Kind)
		}
		if got := testing.AllocsPerRun(100, func() { z.Lookup(qname, dnswire.TypeTXT) }); got > c.want {
			t.Errorf("Lookup(%s) allocates %v times, want at most %v", c.qname, got, c.want)
		}
	}
}
