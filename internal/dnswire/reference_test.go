package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// This file keeps the label-slice name representation the package used
// before Name became a wire-form string — decodeName, Key, Equal,
// IsSubdomainOf, Parent and the map-backed compressor, verbatim — as
// the oracle the fuzz targets compare the live implementation against.
// It is test-only and must not be "fixed": its Unicode-aware case
// folding and its dot-joined keys are exactly the behaviours the live
// code is allowed to differ from, and only on names that are not
// hostname-like (see hostnameLike).

type refName struct {
	labels []string
}

func refFromName(n Name) refName { return refName{labels: n.Labels()} }

func (n refName) String() string {
	if len(n.labels) == 0 {
		return "."
	}
	return strings.Join(n.labels, ".") + "."
}

func (n refName) Key() string { return strings.ToLower(n.String()) }

func (n refName) Equal(o refName) bool {
	if len(n.labels) != len(o.labels) {
		return false
	}
	for i := range n.labels {
		if !strings.EqualFold(n.labels[i], o.labels[i]) {
			return false
		}
	}
	return true
}

func (n refName) Parent() refName {
	if len(n.labels) == 0 {
		return refName{}
	}
	return refName{labels: n.labels[1:]}
}

func (n refName) IsSubdomainOf(o refName) bool {
	if len(o.labels) > len(n.labels) {
		return false
	}
	off := len(n.labels) - len(o.labels)
	for i := range o.labels {
		if !strings.EqualFold(n.labels[off+i], o.labels[i]) {
			return false
		}
	}
	return true
}

// hostnameLike reports whether every octet of every label is ASCII and
// no label contains a dot: the names on which the reference's
// Unicode-folded, dot-joined keys identify exactly the same names as
// RFC 4343 ASCII folding over wire form does.
func (n refName) hostnameLike() bool {
	for _, lab := range n.labels {
		for i := 0; i < len(lab); i++ {
			if lab[i] >= 0x80 || lab[i] == '.' {
				return false
			}
		}
	}
	return true
}

type refCompressor struct {
	offsets map[string]int
	base    int
}

func (c *refCompressor) appendName(msg []byte, n refName) []byte {
	labels := n.labels
	for i := range labels {
		suffix := refName{labels: labels[i:]}
		key := suffix.Key()
		if off, ok := c.offsets[key]; ok {
			ptr := uint16(0xC000 | off)
			return append(msg, byte(ptr>>8), byte(ptr))
		}
		if off := len(msg) - c.base; off < 0x4000 {
			c.offsets[key] = off
		}
		msg = append(msg, byte(len(labels[i])))
		msg = append(msg, labels[i]...)
	}
	return append(msg, 0)
}

func refDecodeName(msg []byte, off int) (refName, int, error) {
	var labels []string
	seen := 0
	end := -1
	totalLen := 1
	pos := off
	for {
		if pos >= len(msg) {
			return refName{}, 0, ErrTruncatedMessage
		}
		b := msg[pos]
		switch {
		case b == 0:
			if end == -1 {
				end = pos + 1
			}
			return refName{labels: labels}, end, nil
		case b&0xC0 == 0xC0:
			if pos+1 >= len(msg) {
				return refName{}, 0, ErrTruncatedMessage
			}
			ptr := int(b&0x3F)<<8 | int(msg[pos+1])
			if end == -1 {
				end = pos + 2
			}
			if ptr >= pos {
				return refName{}, 0, ErrCompressionLoop
			}
			seen++
			if seen > 127 {
				return refName{}, 0, ErrCompressionLoop
			}
			pos = ptr
		case b&0xC0 != 0:
			return refName{}, 0, fmt.Errorf("dnswire: reserved label type 0x%02x", b&0xC0)
		default:
			l := int(b)
			if pos+1+l > len(msg) {
				return refName{}, 0, ErrTruncatedMessage
			}
			totalLen += 1 + l
			if totalLen > maxNameLen {
				return refName{}, 0, ErrNameTooLong
			}
			labels = append(labels, string(msg[pos+1:pos+1+l]))
			pos += 1 + l
		}
	}
}

// refUnpack walks a packet exactly as the label-slice Unpack did — same
// order, same bounds checks, same errors — and returns every name it
// decoded in wire order (question names, then per record the owner
// followed by any names in its rdata).
func refUnpack(b []byte) ([]refName, error) {
	if len(b) < 12 {
		return nil, ErrTruncatedMessage
	}
	qd := int(binary.BigEndian.Uint16(b[4:]))
	rrs := int(binary.BigEndian.Uint16(b[6:])) + int(binary.BigEndian.Uint16(b[8:])) +
		int(binary.BigEndian.Uint16(b[10:]))
	var names []refName
	off := 12
	for i := 0; i < qd; i++ {
		n, next, err := refDecodeName(b, off)
		if err != nil {
			return nil, err
		}
		if next+4 > len(b) {
			return nil, ErrTruncatedMessage
		}
		off = next + 4
		names = append(names, n)
	}
	for i := 0; i < rrs; i++ {
		n, next, err := refDecodeName(b, off)
		if err != nil {
			return nil, err
		}
		off = next
		if off+10 > len(b) {
			return nil, ErrTruncatedMessage
		}
		typ := Type(binary.BigEndian.Uint16(b[off:]))
		rdlen := int(binary.BigEndian.Uint16(b[off+8:]))
		off += 10
		if off+rdlen > len(b) {
			return nil, ErrTruncatedMessage
		}
		names = append(names, n)
		if typ != TypeOPT {
			rd, err := refDecodeRDataNames(typ, b, off, rdlen)
			if err != nil {
				return nil, err
			}
			names = append(names, rd...)
		}
		off += rdlen
	}
	return names, nil
}

func refDecodeRDataNames(typ Type, msg []byte, off, rdlen int) ([]refName, error) {
	end := off + rdlen
	switch typ {
	case TypeA:
		if rdlen != 4 {
			return nil, fmt.Errorf("dnswire: A rdata length %d", rdlen)
		}
	case TypeAAAA:
		if rdlen != 16 {
			return nil, fmt.Errorf("dnswire: AAAA rdata length %d", rdlen)
		}
	case TypeNS, TypeCNAME, TypePTR:
		n, _, err := refDecodeName(msg, off)
		return []refName{n}, err
	case TypeMX:
		if rdlen < 3 {
			return nil, fmt.Errorf("dnswire: MX rdata length %d", rdlen)
		}
		n, _, err := refDecodeName(msg, off+2)
		return []refName{n}, err
	case TypeSOA:
		mname, next, err := refDecodeName(msg, off)
		if err != nil {
			return nil, err
		}
		rname, next, err := refDecodeName(msg, next)
		if err != nil {
			return nil, err
		}
		if next+20 > len(msg) {
			return nil, ErrTruncatedMessage
		}
		return []refName{mname, rname}, nil
	case TypeTXT:
		for p := off; p < end; {
			l := int(msg[p])
			p++
			if p+l > end {
				return nil, ErrTruncatedMessage
			}
			p += l
		}
	}
	return nil, nil
}

// refAppendPack encodes m as the label-slice encoder did: the live
// header and rdata field encoders, with every name routed through the
// map-backed reference compressor.
func refAppendPack(dst []byte, m *Message) ([]byte, error) {
	base := len(dst)
	head := Message{Header: m.Header}
	msg, err := head.AppendPack(dst)
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint16(msg[base+4:], uint16(len(m.Questions)))
	binary.BigEndian.PutUint16(msg[base+6:], uint16(len(m.Answers)))
	binary.BigEndian.PutUint16(msg[base+8:], uint16(len(m.Authority)))
	binary.BigEndian.PutUint16(msg[base+10:], uint16(len(m.Additional)))

	c := &refCompressor{offsets: make(map[string]int), base: base}
	name := func(n Name) { msg = c.appendName(msg, refFromName(n)) }
	for _, q := range m.Questions {
		name(q.Name)
		msg = binary.BigEndian.AppendUint16(msg, uint16(q.Type))
		msg = binary.BigEndian.AppendUint16(msg, uint16(q.Class))
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			if rr.Data == nil {
				return nil, errors.New("dnswire: RR without rdata")
			}
			name(rr.Name)
			msg = binary.BigEndian.AppendUint16(msg, uint16(rr.Type()))
			if o, ok := rr.Data.(OPT); ok {
				msg = binary.BigEndian.AppendUint16(msg, o.UDPSize)
				ttl := uint32(o.ExtendedRCode)<<24 | uint32(o.Version)<<16
				if o.DNSSECOK {
					ttl |= 1 << 15
				}
				msg = binary.BigEndian.AppendUint32(msg, ttl)
			} else {
				msg = binary.BigEndian.AppendUint16(msg, uint16(rr.Class))
				msg = binary.BigEndian.AppendUint32(msg, rr.TTL)
			}
			lenOff := len(msg)
			msg = append(msg, 0, 0)
			switch d := rr.Data.(type) {
			case NS:
				name(d.Host)
			case CNAME:
				name(d.Target)
			case PTR:
				name(d.Target)
			case MX:
				msg = binary.BigEndian.AppendUint16(msg, d.Preference)
				name(d.Host)
			case SOA:
				name(d.MName)
				name(d.RName)
				for _, v := range []uint32{d.Serial, d.Refresh, d.Retry, d.Expire, d.Minimum} {
					msg = binary.BigEndian.AppendUint32(msg, v)
				}
			default:
				msg = rr.Data.appendTo(msg, nil) // name-free rdata ignores the compressor
			}
			rdlen := len(msg) - lenOff - 2
			if rdlen > 0xFFFF {
				return nil, ErrRDataTooLong
			}
			binary.BigEndian.PutUint16(msg[lenOff:], uint16(rdlen))
		}
	}
	return msg, nil
}

// messageNames lists m's names in the order refUnpack reports them.
func messageNames(m *Message) []Name {
	var names []Name
	for _, q := range m.Questions {
		names = append(names, q.Name)
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			names = append(names, rr.Name)
			switch d := rr.Data.(type) {
			case NS:
				names = append(names, d.Host)
			case CNAME:
				names = append(names, d.Target)
			case PTR:
				names = append(names, d.Target)
			case MX:
				names = append(names, d.Host)
			case SOA:
				names = append(names, d.MName, d.RName)
			}
		}
	}
	return names
}

// refParseName is the label-slice ParseName: split on dots, check each
// label in order, then the total length.
func refParseName(s string) (refName, error) {
	if s == "" || s == "." {
		return refName{}, nil
	}
	s = strings.TrimSuffix(s, ".")
	parts := strings.Split(s, ".")
	wireLen := 1
	for _, p := range parts {
		if p == "" {
			return refName{}, ErrEmptyLabel
		}
		if len(p) > maxLabelLen {
			return refName{}, ErrLabelTooLong
		}
		wireLen += 1 + len(p)
	}
	if wireLen > maxNameLen {
		return refName{}, ErrNameTooLong
	}
	return refName{labels: parts}, nil
}
