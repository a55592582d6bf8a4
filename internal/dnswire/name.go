package dnswire

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Wire-format limits from RFC 1035 §2.3.4.
const (
	maxLabelLen = 63
	maxNameLen  = 255 // total octets in wire form, including the root label
)

// Errors returned by name parsing and decoding.
var (
	ErrNameTooLong      = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong     = errors.New("dnswire: label exceeds 63 octets")
	ErrEmptyLabel       = errors.New("dnswire: empty label")
	ErrCompressionLoop  = errors.New("dnswire: compression pointer loop")
	ErrTruncatedMessage = errors.New("dnswire: truncated message")
)

// Name is a fully-qualified domain name held as one immutable string in
// uncompressed wire form: every label as its length octet followed by
// its octets, most-specific first, without the terminating root octet.
// The zero value is the root name. The spelling a name was built from is
// kept, so String, the 0x20 echo and re-encoding are byte-exact;
// comparison folds ASCII letters only (RFC 4343).
//
// Two Names that are Equal may differ in spelling, so == on Names is not
// name equality: compare with Equal and index maps through Canonical.
type Name struct {
	wire string
}

// Root is the DNS root name (".").
var Root = Name{}

// ParseName parses a presentation-format name such as "www.example.nl"
// or "example.nl." (a trailing dot is accepted and implied). Escapes
// are not supported: the measurement system only handles hostname-like
// labels plus the numeric labels it generates itself.
func ParseName(s string) (Name, error) {
	if s == "" || s == "." {
		return Root, nil
	}
	s = strings.TrimSuffix(s, ".")
	// The wire form is s shifted right by one octet, with the leading
	// octet and every dot replaced by the length of the label after it.
	tooLong := len(s)+2 > maxNameLen
	var buf [maxNameLen]byte
	if !tooLong {
		copy(buf[1:], s)
	}
	start := 0
	for i := 0; i <= len(s); i++ {
		if i < len(s) && s[i] != '.' {
			continue
		}
		switch l := i - start; {
		case l == 0:
			return Name{}, ErrEmptyLabel
		case l > maxLabelLen:
			return Name{}, ErrLabelTooLong
		case !tooLong:
			buf[start] = byte(l)
		}
		start = i + 1
	}
	if tooLong {
		return Name{}, ErrNameTooLong
	}
	return Name{wire: string(buf[:len(s)+1])}, nil
}

// MustParseName is ParseName for static configuration; it panics on error.
func MustParseName(s string) Name {
	n, err := ParseName(s)
	if err != nil {
		panic(fmt.Sprintf("dnswire: bad name %q: %v", s, err))
	}
	return n
}

// NewName builds a name from explicit labels, most-specific first.
func NewName(labels ...string) (Name, error) {
	return ParseName(strings.Join(labels, "."))
}

// String returns the presentation form with a trailing dot ("." for root).
func (n Name) String() string { return n.presentation(false) }

// Key returns the lower-case presentation form with a trailing dot: the
// spelling dataset QNames, traces and sorted zone listings use. It
// allocates, so per-packet lookups key on Canonical instead.
func (n Name) Key() string { return n.presentation(true) }

// presentation renders the labels dot-terminated: the wire form with
// every length octet moved behind its label as a dot.
func (n Name) presentation(lower bool) string {
	if n.wire == "" {
		return "."
	}
	var buf [maxNameLen]byte
	b := buf[:0]
	for w := n.wire; w != ""; {
		l := 1 + int(w[0])
		b = append(append(b, w[1:l]...), '.')
		w = w[l:]
	}
	if lower {
		lowerASCII(b)
	}
	return string(b)
}

// lowerASCII lowers A–Z in place. Length octets are at most 63, below
// 'A', so it is safe over wire form as well as presentation form.
func lowerASCII(b []byte) {
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + ('a' - 'A')
		}
	}
}

// Canonical returns the name with ASCII letters lowered: the one
// spelling every Equal name shares, and so the form map keys take. A
// name already in lower case — all simulated and generated traffic — is
// returned as is, without allocating.
func (n Name) Canonical() Name {
	for i := 0; i < len(n.wire); i++ {
		if c := n.wire[i]; 'A' <= c && c <= 'Z' {
			var buf [maxNameLen]byte
			b := append(buf[:0], n.wire...)
			lowerASCII(b[i:])
			return Name{wire: string(b)}
		}
	}
	return n
}

// Labels returns the label sequence, most-specific first.
func (n Name) Labels() []string {
	out := make([]string, 0, n.NumLabels())
	for w := n.wire; w != ""; {
		l := 1 + int(w[0])
		out = append(out, w[1:l])
		w = w[l:]
	}
	return out
}

// NumLabels returns the label count (0 for root).
func (n Name) NumLabels() int {
	count := 0
	for i := 0; i < len(n.wire); i += 1 + int(n.wire[i]) {
		count++
	}
	return count
}

// IsRoot reports whether the name is the DNS root.
func (n Name) IsRoot() bool { return n.wire == "" }

// equalFold reports whether a and b, of equal length, match up to ASCII
// case. On wire form this is name equality: a length octet (≤ 63) only
// ever equals the same length octet, so matching strings have matching
// label boundaries.
func equalFold[T string | []byte](a T, b string) bool {
	for i := 0; i < len(b); i++ {
		if ca, cb := a[i], b[i]; ca != cb {
			if ca |= 0x20; ca != cb|0x20 || ca < 'a' || ca > 'z' {
				return false
			}
		}
	}
	return true
}

// Equal reports case-insensitive equality.
func (n Name) Equal(o Name) bool {
	return len(n.wire) == len(o.wire) && equalFold(n.wire, o.wire)
}

// Parent returns the name with its most-specific label removed; the
// parent of root is root.
func (n Name) Parent() Name {
	if n.wire == "" {
		return Root
	}
	return Name{wire: n.wire[1+int(n.wire[0]):]}
}

// Child returns the name with label prepended.
func (n Name) Child(label string) (Name, error) {
	if label == "" {
		return Name{}, ErrEmptyLabel
	}
	if len(label) > maxLabelLen {
		return Name{}, ErrLabelTooLong
	}
	if 1+len(label)+n.wireLen() > maxNameLen {
		return Name{}, ErrNameTooLong
	}
	var buf [maxNameLen]byte
	b := append(append(append(buf[:0], byte(len(label))), label...), n.wire...)
	return Name{wire: string(b)}, nil
}

// Wildcard returns "*.n", the owner a wildcard search probes at
// ancestor n, and false when that name would exceed 255 octets. Inlined
// into a map lookup the concatenation stays on the stack for names up
// to 32 octets.
func (n Name) Wildcard() (Name, bool) {
	if 2+n.wireLen() > maxNameLen {
		return Name{}, false
	}
	return Name{wire: "\x01*" + n.wire}, true
}

// IsSubdomainOf reports whether n is equal to o or falls below it.
func (n Name) IsSubdomainOf(o Name) bool {
	off := len(n.wire) - len(o.wire)
	if off < 0 {
		return false
	}
	// o must start on one of n's label boundaries, not inside a label
	// whose octets happen to spell o.
	i := 0
	for i < off {
		i += 1 + int(n.wire[i])
	}
	return i == off && equalFold(n.wire[off:], o.wire)
}

// wireLen returns the encoded length without compression.
func (n Name) wireLen() int { return len(n.wire) + 1 }

// appendWire appends the uncompressed wire form of n to b.
func (n Name) appendWire(b []byte) []byte {
	return append(append(b, n.wire...), 0)
}

// compressor tracks already-emitted names so later occurrences can be
// replaced by compression pointers (RFC 1035 §4.1.4). Pointers can only
// reference offsets below 0x4000, counted from the start of the DNS
// message — which is base, not 0, when the message is being appended
// to a buffer that already holds other data.
//
// It keeps no copy of any name: each entry is where a name suffix was
// first written and how long that suffix is, and a candidate is
// compared against the message bytes themselves. A message carries a
// few dozen suffixes at most, so a scan filtered by length beats
// hashing a key per suffix.
type compressor struct {
	entries []compEntry
	base    int
}

// compEntry is one pointer target: the message-relative offset a suffix
// was first written at and the suffix's wire length (no root octet).
type compEntry struct {
	off uint16
	len uint8
}

// compressors recycles compressors (for their entry slices) across
// messages. One is owned by a single AppendPack from Get to Put.
var compressors = sync.Pool{New: func() any { return new(compressor) }}

// appendName appends n at the current end of msg, using and recording
// compression pointers. The first spelling of a suffix is the one later
// occurrences point at.
func (c *compressor) appendName(msg []byte, n Name) []byte {
	for w := n.wire; w != ""; {
		for _, e := range c.entries {
			if int(e.len) == len(w) && c.spells(msg, int(e.off), w) {
				return append(msg, 0xC0|byte(e.off>>8), byte(e.off))
			}
		}
		if off := len(msg) - c.base; off < 0x4000 {
			c.entries = append(c.entries, compEntry{off: uint16(off), len: uint8(len(w))})
		}
		l := 1 + int(w[0])
		msg = append(msg, w[:l]...)
		w = w[l:]
	}
	return append(msg, 0)
}

// spells reports whether the name written at message offset off, of the
// same wire length as w, spells w up to ASCII case. The written name
// may itself end in a pointer, always to an earlier entry.
func (c *compressor) spells(msg []byte, off int, w string) bool {
	p := c.base + off
	for w != "" {
		b := msg[p]
		if b >= 0xC0 {
			p = c.base + (int(b&0x3F)<<8 | int(msg[p+1]))
			continue
		}
		l := 1 + int(b)
		// Equal length octets first: that is what makes w[:l] in range.
		if b != w[0] || !equalFold(msg[p:p+l], w[:l]) {
			return false
		}
		p += l
		w = w[l:]
	}
	return true
}

// decodeName reads a possibly-compressed name starting at off in msg.
// It returns the name and the offset just past the name's first
// (pre-pointer) encoding. Labels are gathered on the stack and copied
// out once, so the name never aliases msg and costs one allocation.
func decodeName(msg []byte, off int) (Name, int, error) {
	var buf [maxNameLen]byte
	n := 0    // octets gathered into buf
	seen := 0 // pointer-hop guard
	end := -1 // offset after the name in the original stream
	pos := off
	for {
		if pos >= len(msg) {
			return Name{}, 0, ErrTruncatedMessage
		}
		b := msg[pos]
		switch {
		case b == 0:
			if end == -1 {
				end = pos + 1
			}
			return Name{wire: string(buf[:n])}, end, nil
		case b&0xC0 == 0xC0:
			if pos+1 >= len(msg) {
				return Name{}, 0, ErrTruncatedMessage
			}
			ptr := int(b&0x3F)<<8 | int(msg[pos+1])
			if end == -1 {
				end = pos + 2
			}
			// Every pointer must point strictly backward; this makes the
			// walk monotone and loop-free.
			if ptr >= pos {
				return Name{}, 0, ErrCompressionLoop
			}
			seen++
			if seen > 127 {
				return Name{}, 0, ErrCompressionLoop
			}
			pos = ptr
		case b&0xC0 != 0:
			return Name{}, 0, fmt.Errorf("dnswire: reserved label type 0x%02x", b&0xC0)
		default:
			l := 1 + int(b)
			if pos+l > len(msg) {
				return Name{}, 0, ErrTruncatedMessage
			}
			if n+l+1 > maxNameLen {
				return Name{}, 0, ErrNameTooLong
			}
			n += copy(buf[n:], msg[pos:pos+l])
			pos += l
		}
	}
}
