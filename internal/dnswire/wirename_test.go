package dnswire

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// mustDecode decodes one uncompressed wire-form name (root octet
// included), the only way to build names that presentation-form parsing
// cannot express.
func mustDecode(t *testing.T, wire string) Name {
	t.Helper()
	n, _, err := decodeName([]byte(wire), 0)
	if err != nil {
		t.Fatalf("decodeName(%q): %v", wire, err)
	}
	return n
}

// TestDistinctNamesDoNotCollide pins the three kinds of distinct wire
// names that the dot-joined, Unicode-folded keys of the label-slice
// representation merged: one zone node, one cache entry and — in the
// encoder — the second name replaced by a pointer to the first.
func TestDistinctNamesDoNotCollide(t *testing.T) {
	cases := []struct {
		why  string
		a, b string
	}{
		{"a dot inside a label", "\x03a.b\x01c\x00", "\x01a\x01b\x01c\x00"},
		{"KELVIN SIGN folds to k only under Unicode rules", "\x03\xe2\x84\xaa\x00", "\x01k\x00"},
		{"invalid UTF-8 octets both read as U+FFFD", "\x02a\xff\x00", "\x02a\xfe\x00"},
	}
	for _, c := range cases {
		a, b := mustDecode(t, c.a), mustDecode(t, c.b)
		if a.Equal(b) || b.Equal(a) {
			t.Errorf("%s: %q and %q are Equal", c.why, c.a, c.b)
		}
		if a.IsSubdomainOf(b) || b.IsSubdomainOf(a) {
			t.Errorf("%s: %q and %q are subdomains of each other", c.why, c.a, c.b)
		}
		if a.Canonical() == b.Canonical() {
			t.Errorf("%s: %q and %q share a canonical form", c.why, c.a, c.b)
		}
		m := &Message{Questions: []Question{
			{Name: a, Type: TypeA, Class: ClassINET},
			{Name: b, Type: TypeA, Class: ClassINET},
		}}
		packed, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unpack(packed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Questions[0].Name.Labels(), a.Labels()) ||
			!reflect.DeepEqual(got.Questions[1].Name.Labels(), b.Labels()) {
			t.Errorf("%s: the encoder merged the names: %q came back as %q and %q",
				c.why, packed[12:], got.Questions[0].Name.Labels(), got.Questions[1].Name.Labels())
		}
	}
}

// TestCanonical pins the case rule: ASCII letters fold, nothing else
// does, and a lower-case name is returned as is without allocating.
func TestCanonical(t *testing.T) {
	mixed := MustParseName("WwW.Example.NL")
	lower := MustParseName("www.example.nl")
	if mixed.Canonical() != lower {
		t.Errorf("Canonical(%s) = %s", mixed, mixed.Canonical())
	}
	if mixed.String() != "WwW.Example.NL." || mixed.Key() != "www.example.nl." {
		t.Errorf("spelling not kept: String %q Key %q", mixed.String(), mixed.Key())
	}
	if !mixed.Equal(lower) || !lower.IsSubdomainOf(MustParseName("EXAMPLE.nl")) {
		t.Error("ASCII case must not matter to Equal / IsSubdomainOf")
	}
	// '@' and '`' sit one below 'A' and 'a', '[' and '{' one above 'Z'
	// and 'z': folding by |0x20 alone would merge each pair.
	for _, pair := range [][2]string{{"@", "`"}, {"[", "{"}} {
		a, b := MustParseName(pair[0]), MustParseName(pair[1])
		if a.Equal(b) || a.Canonical() == b.Canonical() {
			t.Errorf("%q and %q must stay distinct", pair[0], pair[1])
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = lower.Canonical() }); allocs != 0 {
		t.Errorf("Canonical of a lower-case name allocates %v times", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = mixed.Canonical() }); allocs != 1 {
		t.Errorf("Canonical of a mixed-case name allocates %v times, want 1", allocs)
	}
}

// TestSubdomainNeedsLabelBoundary: a label whose octets spell another
// name's wire form is not that name's subdomain.
func TestSubdomainNeedsLabelBoundary(t *testing.T) {
	nl := MustParseName("nl")
	inside := mustDecode(t, "\x04a\x02nl\x00") // one label: 'a', 0x02, 'n', 'l'
	if inside.IsSubdomainOf(nl) {
		t.Errorf("%q is not under nl", "\x04a\x02nl")
	}
	if !mustDecode(t, "\x01a\x02nl\x00").IsSubdomainOf(nl) {
		t.Error("a.nl is under nl")
	}
}

func TestWildcard(t *testing.T) {
	wc, ok := MustParseName("example.nl").Wildcard()
	if !ok || !wc.Equal(MustParseName("*.example.nl")) {
		t.Errorf("Wildcard = %s, %v", wc, ok)
	}
	lab := strings.Repeat("x", 63)
	long := MustParseName(strings.Join([]string{lab, lab, lab, lab[:61]}, ".")) // 255 octets
	if _, ok := long.Wildcard(); ok {
		t.Error("a wildcard past 255 octets must be refused")
	}
}

// TestUnpackClampsSections: the section counts in a header are claims,
// not sizes. A bare header claiming 65,535 entries per section must be
// rejected without reserving room for them.
func TestUnpackClampsSections(t *testing.T) {
	pkt := []byte{0, 1, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := Unpack(pkt); err != ErrTruncatedMessage {
		t.Fatalf("err = %v, want ErrTruncatedMessage", err)
	}
	// The Message itself is the only thing worth allocating.
	if allocs := testing.AllocsPerRun(100, func() { _, _ = Unpack(pkt) }); allocs > 1 {
		t.Errorf("Unpack of a bare header claiming 4×65535 entries allocates %v times", allocs)
	}
	// The same claim over a real question still sizes by the bytes there.
	q, err := NewQuery(1, MustParseName("a.nl"), TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	q[6], q[7] = 0xFF, 0xFF // 65,535 answers, none present
	if _, err := Unpack(q); err != ErrTruncatedMessage {
		t.Fatalf("err = %v, want ErrTruncatedMessage", err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = Unpack(q) }); allocs > 3 {
		t.Errorf("Unpack allocates %v times for one question and a false answer count", allocs)
	}
}

// TestDecodeNameDoesNotAliasPacket: the UDP servers recycle their
// receive buffer the moment Unpack returns, so no decoded name may
// share memory with the packet.
func TestDecodeNameDoesNotAliasPacket(t *testing.T) {
	pkt, err := goldenMessages()[0].msg.Pack() // the wildcard answer with NS and glue
	if err != nil {
		t.Fatal(err)
	}
	m, err := Unpack(pkt)
	if err != nil {
		t.Fatal(err)
	}
	names := messageNames(m)
	before := make([]string, len(names))
	for i, n := range names {
		before[i] = n.String()
	}
	for i := range pkt {
		pkt[i] = 0xEE
	}
	for i, n := range names {
		if n.String() != before[i] {
			t.Errorf("name %d changed from %q to %q when the packet buffer was overwritten", i, before[i], n.String())
		}
	}
}

// TestParseNameMatchesReference: the single-pass parser accepts the
// same strings as the split-and-check one, with the same labels, and
// rejects the rest with the same error — the first faulty label decides,
// and only a name with no faulty label can be too long.
func TestParseNameMatchesReference(t *testing.T) {
	inputs := []string{"", ".", "..", "a", "a.", "a..", ".a", "a..b", "a.b.c.", "*.Example.NL",
		strings.Repeat("a", 63), strings.Repeat("a", 64), strings.Repeat("a", 64) + "..",
		strings.Repeat("a.", 127), strings.Repeat("a.", 128), strings.Repeat("a.", 130) + ".",
		strings.Repeat(strings.Repeat("b", 63)+".", 4), strings.Repeat("b", 300)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		b := make([]byte, rng.Intn(40))
		if rng.Intn(8) == 0 {
			b = make([]byte, 200+rng.Intn(100))
		}
		for j := range b {
			b[j] = "aZ-.."[rng.Intn(5)]
			if len(b) > 100 && rng.Intn(10) > 0 {
				b[j] = 'x' // long inputs need long labels to get past the empty-label check
			}
		}
		inputs = append(inputs, string(b))
	}
	for _, in := range inputs {
		got, err := ParseName(in)
		want, wantErr := refParseName(in)
		if err != wantErr {
			t.Fatalf("ParseName(%q): err %v, reference %v", in, err, wantErr)
		}
		if err == nil && (got.String() != want.String() || got.NumLabels() != len(want.labels)) {
			t.Fatalf("ParseName(%q) = %q, reference %q", in, got, want)
		}
	}
}
