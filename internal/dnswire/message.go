package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// MaxUDPSize is the classic 512-octet UDP payload limit; EDNS0 raises
// it (DefaultEDNSSize is what our resolvers advertise).
const (
	MaxUDPSize      = 512
	DefaultEDNSSize = 1232
)

// The shortest encodings of a question (root name, type, class) and of
// a record (root owner, type, class, TTL, RDLENGTH).
const (
	minQuestionLen = 1 + 4
	minRRLen       = 1 + 10
)

// ErrNotAQuestion is returned when a response builder is handed a
// message without a question section.
var ErrNotAQuestion = errors.New("dnswire: message has no question")

// Question is a query tuple.
type Question struct {
	Name  Name
	Type  Type
	Class Class
}

// String renders the question in dig-like form.
func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", q.Name, q.Class, q.Type)
}

// Header is the decoded DNS message header (RFC 1035 §4.1.1).
type Header struct {
	ID                 uint16
	Response           bool
	Opcode             Opcode
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              RCode
}

// Message is a full DNS message.
type Message struct {
	Header
	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// Question returns the first question, which in practice is the only
// one (multi-question queries are unused on the Internet).
func (m *Message) Question() (Question, bool) {
	if len(m.Questions) == 0 {
		return Question{}, false
	}
	return m.Questions[0], true
}

// OPT returns the EDNS0 OPT pseudo-record from the additional section,
// if present.
func (m *Message) OPT() (OPT, bool) {
	for _, rr := range m.Additional {
		if o, ok := rr.Data.(OPT); ok {
			return o, true
		}
	}
	return OPT{}, false
}

// SetEDNS0 appends an OPT pseudo-record advertising the given UDP size.
func (m *Message) SetEDNS0(udpSize uint16, dnssecOK bool) {
	m.Additional = append(m.Additional, RR{
		Name: Root,
		Data: OPT{UDPSize: udpSize, DNSSECOK: dnssecOK},
	})
}

// Pack encodes the message into wire format with name compression.
func (m *Message) Pack() ([]byte, error) {
	return m.AppendPack(make([]byte, 0, 512))
}

// AppendPack encodes the message into wire format at the end of dst
// and returns the extended slice. Compression pointers are relative to
// the message start (len(dst) at call time), so the encoding is
// identical wherever the message lands — this is the zero-allocation
// path the servers use with pooled response buffers, and the TCP path
// uses to encode behind its two-byte length prefix in one buffer.
func (m *Message) AppendPack(dst []byte) ([]byte, error) {
	base := len(dst)
	var hdr [12]byte
	msg := append(dst, hdr[:]...)
	binary.BigEndian.PutUint16(msg[base+0:], m.ID)

	var flags uint16
	if m.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.Opcode&0xF) << 11
	if m.Authoritative {
		flags |= 1 << 10
	}
	if m.Truncated {
		flags |= 1 << 9
	}
	if m.RecursionDesired {
		flags |= 1 << 8
	}
	if m.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(m.RCode & 0xF)
	binary.BigEndian.PutUint16(msg[base+2:], flags)
	binary.BigEndian.PutUint16(msg[base+4:], uint16(len(m.Questions)))
	binary.BigEndian.PutUint16(msg[base+6:], uint16(len(m.Answers)))
	binary.BigEndian.PutUint16(msg[base+8:], uint16(len(m.Authority)))
	binary.BigEndian.PutUint16(msg[base+10:], uint16(len(m.Additional)))

	c := compressors.Get().(*compressor)
	c.entries, c.base = c.entries[:0], base
	msg, err := m.appendSections(msg, c)
	compressors.Put(c)
	return msg, err
}

// appendSections encodes the four sections behind an already written
// header.
func (m *Message) appendSections(msg []byte, c *compressor) ([]byte, error) {
	for _, q := range m.Questions {
		msg = c.appendName(msg, q.Name)
		msg = binary.BigEndian.AppendUint16(msg, uint16(q.Type))
		msg = binary.BigEndian.AppendUint16(msg, uint16(q.Class))
	}
	var err error
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			msg, err = appendRR(msg, rr, c)
			if err != nil {
				return nil, err
			}
		}
	}
	return msg, nil
}

// appendRR encodes one resource record, handling the OPT pseudo-record's
// field aliasing.
func appendRR(msg []byte, rr RR, c *compressor) ([]byte, error) {
	if rr.Data == nil {
		return nil, errors.New("dnswire: RR without rdata")
	}
	msg = c.appendName(msg, rr.Name)
	msg = binary.BigEndian.AppendUint16(msg, uint16(rr.Type()))
	if o, ok := rr.Data.(OPT); ok {
		msg = binary.BigEndian.AppendUint16(msg, o.UDPSize)
		var ttl uint32
		ttl |= uint32(o.ExtendedRCode) << 24
		ttl |= uint32(o.Version) << 16
		if o.DNSSECOK {
			ttl |= 1 << 15
		}
		msg = binary.BigEndian.AppendUint32(msg, ttl)
	} else {
		msg = binary.BigEndian.AppendUint16(msg, uint16(rr.Class))
		msg = binary.BigEndian.AppendUint32(msg, rr.TTL)
	}
	// Reserve RDLENGTH, encode rdata, then backfill the length.
	lenOff := len(msg)
	msg = append(msg, 0, 0)
	msg = rr.Data.appendTo(msg, c)
	rdlen := len(msg) - lenOff - 2
	if rdlen > 0xFFFF {
		return nil, ErrRDataTooLong
	}
	binary.BigEndian.PutUint16(msg[lenOff:], uint16(rdlen))
	return msg, nil
}

// Unpack decodes a wire-format DNS message.
func Unpack(b []byte) (*Message, error) {
	if len(b) < 12 {
		return nil, ErrTruncatedMessage
	}
	m := &Message{}
	m.ID = binary.BigEndian.Uint16(b[0:])
	flags := binary.BigEndian.Uint16(b[2:])
	m.Response = flags&(1<<15) != 0
	m.Opcode = Opcode(flags >> 11 & 0xF)
	m.Authoritative = flags&(1<<10) != 0
	m.Truncated = flags&(1<<9) != 0
	m.RecursionDesired = flags&(1<<8) != 0
	m.RecursionAvailable = flags&(1<<7) != 0
	m.RCode = RCode(flags & 0xF)

	qd := int(binary.BigEndian.Uint16(b[4:]))
	an := int(binary.BigEndian.Uint16(b[6:]))
	ns := int(binary.BigEndian.Uint16(b[8:]))
	ar := int(binary.BigEndian.Uint16(b[10:]))

	// Each section is sized once, from its header count clamped to what
	// the remaining bytes could possibly hold, so a 12-byte packet
	// claiming 65,535 records reserves nothing.
	off := 12
	var err error
	if qd > 0 {
		m.Questions = make([]Question, 0, min(qd, (len(b)-off)/minQuestionLen))
	}
	for i := 0; i < qd; i++ {
		var q Question
		q.Name, off, err = decodeName(b, off)
		if err != nil {
			return nil, err
		}
		if off+4 > len(b) {
			return nil, ErrTruncatedMessage
		}
		q.Type = Type(binary.BigEndian.Uint16(b[off:]))
		q.Class = Class(binary.BigEndian.Uint16(b[off+2:]))
		off += 4
		m.Questions = append(m.Questions, q)
	}
	// The three record sections share one backing array; each is cut to
	// its own capacity so appending to one never reaches the next.
	rrs := make([]RR, 0, min(an+ns+ar, (len(b)-off)/minRRLen))
	for i := 0; i < an+ns+ar; i++ {
		var rr RR
		rr, off, err = decodeRR(b, off)
		if err != nil {
			return nil, err
		}
		rrs = append(rrs, rr)
	}
	section := func(lo, n int) []RR {
		if n == 0 {
			return nil
		}
		return rrs[lo : lo+n : lo+n]
	}
	m.Answers, m.Authority, m.Additional = section(0, an), section(an, ns), section(an+ns, ar)
	return m, nil
}

// decodeRR decodes one resource record starting at off.
func decodeRR(b []byte, off int) (RR, int, error) {
	name, off, err := decodeName(b, off)
	if err != nil {
		return RR{}, 0, err
	}
	if off+10 > len(b) {
		return RR{}, 0, ErrTruncatedMessage
	}
	typ := Type(binary.BigEndian.Uint16(b[off:]))
	classBits := binary.BigEndian.Uint16(b[off+2:])
	ttlBits := binary.BigEndian.Uint32(b[off+4:])
	rdlen := int(binary.BigEndian.Uint16(b[off+8:]))
	off += 10
	if off+rdlen > len(b) {
		return RR{}, 0, ErrTruncatedMessage
	}
	rr := RR{Name: name}
	if typ == TypeOPT {
		rr.Data = OPT{
			UDPSize:       classBits,
			ExtendedRCode: uint8(ttlBits >> 24),
			Version:       uint8(ttlBits >> 16),
			DNSSECOK:      ttlBits&(1<<15) != 0,
		}
	} else {
		rr.Class = Class(classBits)
		rr.TTL = ttlBits
		rr.Data, err = decodeRData(typ, b, off, rdlen)
		if err != nil {
			return RR{}, 0, err
		}
	}
	return rr, off + rdlen, nil
}

// NewQuery builds a standard recursive-desired query for (name, type)
// in the Internet class.
func NewQuery(id uint16, name Name, typ Type) *Message {
	return &Message{
		Header:    Header{ID: id, RecursionDesired: true},
		Questions: []Question{{Name: name, Type: typ, Class: ClassINET}},
	}
}

// NewChaosQuery builds a CHAOS-class TXT query such as hostname.bind.
// The paper avoids CHAOS for site identification precisely because the
// recursive answers it itself; we implement it so that contrast is
// testable.
func NewChaosQuery(id uint16, name Name) *Message {
	return &Message{
		Header:    Header{ID: id},
		Questions: []Question{{Name: name, Type: TypeTXT, Class: ClassCHAOS}},
	}
}

// NewResponse builds a response skeleton echoing q's ID and question.
func NewResponse(q *Message) (*Message, error) {
	if len(q.Questions) == 0 {
		return nil, ErrNotAQuestion
	}
	return &Message{
		Header: Header{
			ID:               q.ID,
			Response:         true,
			Opcode:           q.Opcode,
			RecursionDesired: q.RecursionDesired,
		},
		Questions: []Question{q.Questions[0]},
	}, nil
}

// Summary renders a compact one-line description for logs.
func (m *Message) Summary() string {
	var sb strings.Builder
	if m.Response {
		fmt.Fprintf(&sb, "response id=%d rcode=%s", m.ID, m.RCode)
	} else {
		fmt.Fprintf(&sb, "query id=%d", m.ID)
	}
	if q, ok := m.Question(); ok {
		fmt.Fprintf(&sb, " %s", q)
	}
	fmt.Fprintf(&sb, " an=%d ns=%d ar=%d", len(m.Answers), len(m.Authority), len(m.Additional))
	return sb.String()
}
