package dnswire

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"net/netip"
	"os"
	"strings"
	"testing"
)

// goldenMessages is the fixed message set behind
// testdata/appendpack.golden. The golden bytes were produced by the
// label-slice encoder with its map-backed compressor (the commit before
// Name became a wire-form string) and are never regenerated: they pin
// every pointer choice that encoder made, so a compressor that picks a
// different — even if valid — pointer fails here.
func goldenMessages() []struct {
	name string
	msg  *Message
} {
	n := MustParseName
	in := func(name string, ttl uint32, d RData) RR {
		return RR{Name: n(name), Class: ClassINET, TTL: ttl, Data: d}
	}
	a := func(s string) A { return A{Addr: netip.MustParseAddr(s)} }
	soa := SOA{MName: n("ns1.ourtestdomain.nl"), RName: n("hostmaster.ourtestdomain.nl"),
		Serial: 2017041201, Refresh: 3600, Retry: 600, Expire: 604800, Minimum: 60}

	wild := &Message{
		Header:    Header{ID: 0xBEEF, Response: true, Authoritative: true},
		Questions: []Question{{Name: n("p1234-7.ourtestdomain.nl"), Type: TypeTXT, Class: ClassINET}},
		Answers:   []RR{in("p1234-7.ourtestdomain.nl", 5, TXT{Strings: []string{"site=FRA"}})},
		Authority: []RR{
			in("ourtestdomain.nl", 3600, NS{Host: n("ns1.ourtestdomain.nl")}),
			in("ourtestdomain.nl", 3600, NS{Host: n("ns2.ourtestdomain.nl")}),
		},
		Additional: []RR{
			in("ns1.ourtestdomain.nl", 3600, a("192.0.2.1")),
			in("ns1.ourtestdomain.nl", 3600, AAAA{Addr: netip.MustParseAddr("2001:db8::1")}),
			in("ns2.ourtestdomain.nl", 3600, a("192.0.2.2")),
		},
	}
	wild.SetEDNS0(DefaultEDNSSize, true)

	nx := &Message{
		Header:    Header{ID: 1, Response: true, Authoritative: true, RecursionDesired: true, RCode: RCodeNXDomain},
		Questions: []Question{{Name: n("nope.deeper.ourtestdomain.nl"), Type: TypeA, Class: ClassINET}},
		Authority: []RR{in("ourtestdomain.nl", 60, soa)},
	}

	referral := &Message{
		Header:    Header{ID: 2, Response: true},
		Questions: []Question{{Name: n("nx7.evil.example"), Type: TypeA, Class: ClassINET}},
	}
	for j := 0; j < 6; j++ {
		referral.Authority = append(referral.Authority,
			in("nx7.evil.example", 300, NS{Host: n(fmt.Sprintf("t%d-nx7.ourtestdomain.nl", j))}))
	}

	mixed := &Message{
		Header:    Header{ID: 3, Response: true, RecursionAvailable: true},
		Questions: []Question{{Name: n("WwW.ExAmPlE.Nl"), Type: TypeA, Class: ClassINET}},
		Answers: []RR{
			in("www.example.nl", 300, CNAME{Target: n("Target.EXAMPLE.nl")}),
			in("target.example.NL", 300, a("198.51.100.7")),
			in("7.100.51.198.in-addr.arpa", 300, PTR{Target: n("TARGET.example.nl")}),
			in("example.nl", 300, MX{Preference: 10, Host: n("mail.Example.nl")}),
		},
	}

	// Names land on both sides of offset 0x3FFF: those first written at
	// or past 0x4000 can never be pointer targets, those before can.
	limit := &Message{
		Header:    Header{ID: 4, Response: true},
		Questions: []Question{{Name: n("big.limit.example"), Type: TypeTXT, Class: ClassINET}},
	}
	pad := strings.Repeat("x", 250)
	for i := 0; i < 68; i++ {
		limit.Answers = append(limit.Answers,
			in(fmt.Sprintf("r%d.big.limit.example", i), 5, TXT{Strings: []string{pad}}))
	}
	for i := 56; i < 68; i++ {
		limit.Additional = append(limit.Additional,
			in(fmt.Sprintf("r%d.big.limit.example", i), 5, NS{Host: n(fmt.Sprintf("late%d.other.test", i%3))}))
	}

	axfr := &Message{
		Header:    Header{ID: 5, Response: true, Authoritative: true},
		Questions: []Question{{Name: n("ourtestdomain.nl"), Type: TypeAXFR, Class: ClassINET}},
		Answers:   []RR{in("ourtestdomain.nl", 3600, soa)},
	}
	for i := 0; len(axfr.Answers) < 299; i++ {
		host := fmt.Sprintf("host%03d.ourtestdomain.nl", i)
		switch i % 4 {
		case 0:
			axfr.Answers = append(axfr.Answers, in(host, 300, a(fmt.Sprintf("10.0.%d.%d", i/256, i%256))))
		case 1:
			axfr.Answers = append(axfr.Answers, in(host, 300, MX{Preference: uint16(i), Host: n(fmt.Sprintf("mx%d.mail.ourtestdomain.nl", i%5))}))
		case 2:
			axfr.Answers = append(axfr.Answers, in("alias"+host, 300, CNAME{Target: n(fmt.Sprintf("host%03d.ourtestdomain.nl", i-2))}))
		case 3:
			axfr.Answers = append(axfr.Answers, in(fmt.Sprintf("sub%d.%s", i, host), 300, TXT{Strings: []string{"v=" + host, ""}}))
		}
	}
	axfr.Answers = append(axfr.Answers, in("ourtestdomain.nl", 3600, soa))

	tc := &Message{
		Header:    Header{ID: 6, Response: true, Authoritative: true, Truncated: true},
		Questions: []Question{{Name: n("big.ourtestdomain.nl"), Type: TypeA, Class: ClassINET}},
	}
	tc.SetEDNS0(DefaultEDNSSize, false)

	return []struct {
		name string
		msg  *Message
	}{
		{"wildcard-txt-ns-glue", wild},
		{"nxdomain-soa", nx},
		{"glueless-referral", referral},
		{"mixed-case-owner", mixed},
		{"pointer-limit-0x3fff", limit},
		{"axfr-300", axfr},
		{"tc-truncated", tc},
	}
}

// TestAppendPackGolden proves the encoder emits the bytes of
// testdata/appendpack.golden — including every compression pointer —
// wherever the message starts in the buffer.
func TestAppendPackGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/appendpack.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]byte)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, hexBytes, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		if want[name], err = hex.DecodeString(hexBytes); err != nil {
			t.Fatalf("golden %s: %v", name, err)
		}
	}
	msgs := goldenMessages()
	if len(want) != len(msgs) {
		t.Fatalf("golden has %d messages, the set has %d", len(want), len(msgs))
	}
	for _, g := range msgs {
		for _, base := range []int{0, 2} {
			prefix := bytes.Repeat([]byte{0xA5}, base)
			out, err := g.msg.AppendPack(prefix)
			if err != nil {
				t.Fatalf("%s: %v", g.name, err)
			}
			if !bytes.Equal(out[base:], want[g.name]) {
				t.Errorf("%s at base %d: encoding differs from the golden (%d vs %d bytes)",
					g.name, base, len(out)-base, len(want[g.name]))
			}
		}
	}
	if limit := want["pointer-limit-0x3fff"]; len(limit) <= 0x4000 {
		t.Fatalf("pointer-limit message is only %d bytes; it must cross 0x3FFF", len(limit))
	}
}
