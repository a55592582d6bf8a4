//go:build linux

package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"strings"

	"ritw/internal/dnswire"
	"ritw/internal/measure"
)

// shape is one kind of query a live workload sends, with what a correct
// answer to it looks like. The header fields are checked on every
// response; full runs on the decoded message when the generator asks
// for a complete check.
type shape struct {
	name   string
	weight int // share of the packet pool, in per cent
	rcode  dnswire.RCode
	tc     bool
	full   func(m *dnswire.Message, p *packet) bool
}

// mixedOrigin is the zone auth-mixed serves.
const mixedOrigin = "bench.example."

// mixedNames is the number of exact-match owner names in that zone.
const mixedNames = 10000

// mixedIdentity is what authd answers for CHAOS hostname.bind.
const mixedIdentity = "bench-auth"

// poolSize is the number of pre-encoded packets a workload cycles
// through; it is the ID space, so one lap never repeats an ID.
const poolSize = 1 << 16

// salt is the seed-derived tag that goes into every generated name, so
// that different seeds ask for different names.
func salt(seed int64) string {
	return fmt.Sprintf("%08x", uint32(uint64(seed)*0x9e3779b97f4a7c15>>32))
}

// newPacket encodes m and locates the end of its question section.
func newPacket(m *dnswire.Message, shapeIdx int, want string, patched bool) packet {
	wire, err := m.Pack()
	if err != nil {
		panic(fmt.Sprintf("bench: encoding a generated query: %v", err)) // names are generated, so this is a bug
	}
	end := 12
	for wire[end] != 0 {
		end += 1 + int(wire[end])
	}
	p := packet{wire: wire, qEnd: end + 5, patchOff: -1, shape: shapeIdx, want: want}
	if patched {
		p.patchOff = 14 // header, length byte, then the 'q' before the hex field
	}
	return p
}

// uniqueLabel is the first label of a name the generator makes unique
// per send by overwriting the eight zeros.
func uniqueLabel(seed int64) string { return "q00000000-" + salt(seed) }

// wildPackets builds the paper's query: TXT for a fresh label under the
// wildcard of the measurement zone. With hot > 0 the pool instead
// cycles over that many fixed names, so a resolver can cache them.
func wildPackets(seed int64, hot int, sites ...string) ([]packet, []shape) {
	allowed := make(map[string]bool)
	for _, s := range sites {
		allowed["site="+s] = true
	}
	shapes := []shape{{
		name: "wildcard-txt", weight: 100, rcode: dnswire.RCodeNoError,
		full: func(m *dnswire.Message, _ *packet) bool {
			if len(m.Answers) != 1 {
				return false
			}
			txt, ok := m.Answers[0].Data.(dnswire.TXT)
			return ok && allowed[txt.Joined()]
		},
	}}
	zone := "probe." + measure.TestDomain.String()
	if hot == 0 {
		q := dnswire.NewQuery(0, dnswire.MustParseName(uniqueLabel(seed)+"."+zone), dnswire.TypeTXT)
		return []packet{newPacket(q, 0, "", true)}, shapes
	}
	pkts := make([]packet, hot)
	for i := range pkts {
		name := fmt.Sprintf("hot%03d-%s.%s", i, salt(seed), zone)
		pkts[i] = newPacket(dnswire.NewQuery(0, dnswire.MustParseName(name), dnswire.TypeTXT), 0, "", false)
	}
	return pkts, shapes
}

// mixedHost is the i-th exact-match owner name of the mixed zone.
func mixedHost(seed int64, i int) string {
	return fmt.Sprintf("h%05d-%s.%s", i, salt(seed), mixedOrigin)
}

func mixedA(i int) dnswire.A {
	return dnswire.A{Addr: netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})}
}

func mixedAAAA(i int) dnswire.AAAA {
	return dnswire.AAAA{Addr: netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 14: byte(i >> 8), byte(i)})}
}

// mixedZoneText renders the auth-mixed zone: mixedNames hosts with an A
// record each, AAAA on every second, TXT on every fourth and MX on
// every eighth; a thousand CNAMEs onto hosts; and one RRset too large
// for a 512-byte answer.
func mixedZoneText(seed int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "$ORIGIN %s\n$TTL 300\n", mixedOrigin)
	b.WriteString("@ IN SOA ns1 hostmaster 2017032301 7200 3600 604800 300\n")
	b.WriteString("@ IN NS ns1\n@ IN NS ns2\n")
	b.WriteString("ns1 IN A 192.0.2.1\nns2 IN A 192.0.2.2\nmx IN A 192.0.2.25\n")
	for i := 0; i < mixedNames; i++ {
		h := mixedHost(seed, i)
		fmt.Fprintf(&b, "%s IN A %s\n", h, mixedA(i))
		if i%2 == 0 {
			fmt.Fprintf(&b, "%s IN AAAA %s\n", h, mixedAAAA(i))
		}
		if i%4 == 0 {
			fmt.Fprintf(&b, "%s IN TXT \"v=%d\"\n", h, i)
		}
		if i%8 == 0 {
			fmt.Fprintf(&b, "%s IN MX 10 mx\n", h)
		}
	}
	for i := 0; i < mixedNames/10; i++ {
		fmt.Fprintf(&b, "c%04d-%s IN CNAME %s\n", i, salt(seed), mixedHost(seed, i))
	}
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "big IN A 198.51.100.%d\n", i+1)
	}
	return b.String()
}

// hasSOA reports whether the authority section carries the zone's SOA,
// which every negative answer must.
func hasSOA(m *dnswire.Message) bool {
	for _, rr := range m.Authority {
		if _, ok := rr.Data.(dnswire.SOA); ok {
			return true
		}
	}
	return false
}

// answers reports whether some answer record renders as want.
func answers(m *dnswire.Message, want string) bool {
	for _, rr := range m.Answers {
		if rr.Data.String() == want {
			return true
		}
	}
	return false
}

func answerIsWant(m *dnswire.Message, p *packet) bool { return answers(m, p.want) }

func negative(m *dnswire.Message, _ *packet) bool { return len(m.Answers) == 0 && hasSOA(m) }

// mixedShapes is every kind of answer the authoritative engine gives
// besides the wildcard one. The weights lean towards exact matches, as
// real zones do, while keeping each rare path at a few hundred queries
// per second.
var mixedShapes = []shape{
	{name: "a", weight: 30, full: answerIsWant},
	{name: "aaaa", weight: 10, full: answerIsWant},
	{name: "txt", weight: 10, full: answerIsWant},
	{name: "mx", weight: 5, full: answerIsWant},
	{name: "cname", weight: 10, full: answerIsWant},
	{name: "nxdomain", weight: 15, rcode: dnswire.RCodeNXDomain, full: negative},
	{name: "nodata", weight: 5, full: negative},
	{name: "edns-do", weight: 8, full: func(m *dnswire.Message, p *packet) bool {
		opt, ok := m.OPT()
		return ok && opt.DNSSECOK && answers(m, p.want)
	}},
	{name: "truncated", weight: 2, tc: true, full: func(m *dnswire.Message, _ *packet) bool { return m.Truncated }},
	{name: "chaos", weight: 2, full: func(m *dnswire.Message, _ *packet) bool {
		return answers(m, dnswire.TXT{Strings: []string{mixedIdentity}}.String())
	}},
	{name: "refused", weight: 3, rcode: dnswire.RCodeRefused, full: func(m *dnswire.Message, _ *packet) bool {
		return len(m.Answers) == 0
	}},
}

// mixedPackets draws poolSize queries over mixedShapes by weight, each
// for a seed-chosen name, in seed-shuffled order.
func mixedPackets(seed int64) ([]packet, []shape) {
	rng := rand.New(rand.NewSource(seed))
	name := func(s string) dnswire.Name { return dnswire.MustParseName(s) }
	pick := func(step int) int { return rng.Intn(mixedNames/step) * step }
	build := map[string]func() (*dnswire.Message, string){
		"a": func() (*dnswire.Message, string) {
			i := pick(1)
			return dnswire.NewQuery(0, name(mixedHost(seed, i)), dnswire.TypeA), mixedA(i).String()
		},
		"aaaa": func() (*dnswire.Message, string) {
			i := pick(2)
			return dnswire.NewQuery(0, name(mixedHost(seed, i)), dnswire.TypeAAAA), mixedAAAA(i).String()
		},
		"txt": func() (*dnswire.Message, string) {
			i := pick(4)
			want := dnswire.TXT{Strings: []string{fmt.Sprintf("v=%d", i)}}
			return dnswire.NewQuery(0, name(mixedHost(seed, i)), dnswire.TypeTXT), want.String()
		},
		"mx": func() (*dnswire.Message, string) {
			want := dnswire.MX{Preference: 10, Host: name("mx." + mixedOrigin)}
			return dnswire.NewQuery(0, name(mixedHost(seed, pick(8))), dnswire.TypeMX), want.String()
		},
		"cname": func() (*dnswire.Message, string) {
			i := rng.Intn(mixedNames / 10)
			owner := fmt.Sprintf("c%04d-%s.%s", i, salt(seed), mixedOrigin)
			want := dnswire.CNAME{Target: name(mixedHost(seed, i))}
			return dnswire.NewQuery(0, name(owner), dnswire.TypeA), want.String()
		},
		"nxdomain": func() (*dnswire.Message, string) {
			owner := fmt.Sprintf("x%08x-%s.%s", rng.Uint32(), salt(seed), mixedOrigin)
			return dnswire.NewQuery(0, name(owner), dnswire.TypeA), ""
		},
		"nodata": func() (*dnswire.Message, string) {
			return dnswire.NewQuery(0, name(mixedHost(seed, pick(8)+1)), dnswire.TypeMX), ""
		},
		"edns-do": func() (*dnswire.Message, string) {
			i := pick(1)
			q := dnswire.NewQuery(0, name(mixedHost(seed, i)), dnswire.TypeA)
			q.SetEDNS0(4096, true)
			return q, mixedA(i).String()
		},
		"truncated": func() (*dnswire.Message, string) {
			return dnswire.NewQuery(0, name("big."+mixedOrigin), dnswire.TypeA), ""
		},
		"chaos": func() (*dnswire.Message, string) {
			return dnswire.NewChaosQuery(0, name("hostname.bind")), ""
		},
		"refused": func() (*dnswire.Message, string) {
			return dnswire.NewQuery(0, name(fmt.Sprintf("www%d.example.org", rng.Intn(1000))), dnswire.TypeA), ""
		},
	}
	pkts := make([]packet, 0, poolSize)
	for si, sh := range mixedShapes {
		for n := poolSize * sh.weight / 100; n > 0; n-- {
			q, want := build[sh.name]()
			pkts = append(pkts, newPacket(q, si, want, false))
		}
	}
	rng.Shuffle(len(pkts), func(i, j int) { pkts[i], pkts[j] = pkts[j], pkts[i] })
	return pkts, mixedShapes
}

// checker returns the generator's validation function for a shape
// table: on every response the header, the rcode and TC the shape
// expects, and the question echoed byte for byte (patched label
// included); on a full check, a complete decode and the shape's own
// test of the answer.
func checker(shapes []shape) checkFunc {
	return func(p *packet, seq uint32, resp []byte, full bool) bool {
		sh := &shapes[p.shape]
		if len(resp) < p.qEnd {
			return false
		}
		flags := binary.BigEndian.Uint16(resp[2:])
		const qr, tc = 0x8000, 0x0200
		if flags&qr == 0 || dnswire.RCode(flags&0xf) != sh.rcode || (flags&tc != 0) != sh.tc {
			return false
		}
		if binary.BigEndian.Uint16(resp[4:]) != 1 {
			return false
		}
		sent, got := p.wire[12:p.qEnd], resp[12:p.qEnd]
		if p.patchOff < 0 {
			if !bytes.Equal(sent, got) {
				return false
			}
		} else {
			o := p.patchOff - 12
			var hex [8]byte
			patchHex(hex[:], seq)
			if !bytes.Equal(sent[:o], got[:o]) || !bytes.Equal(hex[:], got[o:o+8]) || !bytes.Equal(sent[o+8:], got[o+8:]) {
				return false
			}
		}
		if !full {
			return true
		}
		m, err := dnswire.Unpack(resp)
		return err == nil && m.Response && sh.full(m, p)
	}
}
