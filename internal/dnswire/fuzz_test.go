package dnswire

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseMessage drives Unpack with arbitrary wire bytes and checks
// the decoder's core contract: anything it accepts must re-encode
// (unknown RR types survive as Raw), the re-encoding must parse to the
// same header and section shape, and packing must be a fixpoint —
// Pack(Unpack(Pack(m))) is byte-identical to Pack(m). The servers sit
// on this path for every hostile packet the soak tests throw, so the
// decoder must never panic and never accept what it cannot re-emit.
//
// It is also the equivalence oracle for the wire-form Name: Unpack must
// accept exactly what the label-slice reference decoder accepts, with
// the same error otherwise, and every decoded name must agree with the
// reference name (see checkNamesAgainstReference).
func FuzzParseMessage(f *testing.F) {
	q := NewQuery(0x1234, MustParseName("www.ourtestdomain.nl."), TypeA)
	q.SetEDNS0(DefaultEDNSSize, true)
	if b, err := q.Pack(); err == nil {
		f.Add(b)
	}
	resp, _ := NewResponse(q)
	if resp != nil {
		resp.Answers = append(resp.Answers, RR{
			Name: MustParseName("www.ourtestdomain.nl."), Class: ClassINET, TTL: 300,
			Data: CNAME{Target: MustParseName("ns1.ourtestdomain.nl.")},
		}, RR{
			Name: MustParseName("ns1.ourtestdomain.nl."), Class: ClassINET, TTL: 300,
			Data: Raw{RRType: 99, Data: []byte{0xde, 0xad, 0xbe, 0xef}},
		})
		if b, err := resp.Pack(); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte{})                                            // empty
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0})          // header claims a question
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xc0, 0}) // self-pointing compression

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		refNames, refErr := refUnpack(data)
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("Unpack: %v, reference decoder: %v", err, refErr)
		}
		if err != nil {
			return
		}
		checkNamesAgainstReference(t, messageNames(m), refNames)
		packed, err := m.Pack()
		if err != nil {
			t.Fatalf("accepted message does not re-encode: %v", err)
		}
		m2, err := Unpack(packed)
		if err != nil {
			t.Fatalf("re-encoded message does not parse: %v", err)
		}
		if m2.Header != m.Header {
			t.Fatalf("header changed across round-trip: %+v vs %+v", m.Header, m2.Header)
		}
		if len(m2.Questions) != len(m.Questions) || len(m2.Answers) != len(m.Answers) ||
			len(m2.Authority) != len(m.Authority) || len(m2.Additional) != len(m.Additional) {
			t.Fatalf("section counts changed across round-trip")
		}
		packed2, err := m2.Pack()
		if err != nil {
			t.Fatalf("second Pack failed: %v", err)
		}
		if !bytes.Equal(packed, packed2) {
			t.Fatalf("Pack is not a fixpoint:\n%x\n%x", packed, packed2)
		}
	})
}

// checkNamesAgainstReference compares every decoded name with the
// reference decoder's: spelling, label count and the Parent chain
// always; Key, Equal and IsSubdomainOf against every other name of the
// message whenever both are hostname-like — the reference's Unicode
// folding and dot-joined keys identify different names only outside
// that set, and there the live code is the one that is right.
func checkNamesAgainstReference(t *testing.T, names []Name, refs []refName) {
	t.Helper()
	if len(names) != len(refs) {
		t.Fatalf("decoded %d names, reference %d", len(names), len(refs))
	}
	for i, n := range names {
		for r := refs[i]; ; n, r = n.Parent(), r.Parent() {
			if got := n.Labels(); len(got) != len(r.labels) || (len(got) > 0 && !reflect.DeepEqual(got, r.labels)) {
				t.Fatalf("name %d: labels %q, reference %q", i, got, r.labels)
			}
			if n.String() != r.String() || n.NumLabels() != len(r.labels) || n.IsRoot() != (len(r.labels) == 0) {
				t.Fatalf("name %d: %q (%d labels), reference %q (%d)", i, n, n.NumLabels(), r, len(r.labels))
			}
			if !n.Equal(n.Canonical()) || !n.IsSubdomainOf(n.Parent()) {
				t.Fatalf("name %d: %q is not Equal to its canonical form or not under its parent", i, n)
			}
			if r.hostnameLike() && n.Key() != r.Key() {
				t.Fatalf("name %d: Key %q, reference %q", i, n.Key(), r.Key())
			}
			if n.IsRoot() {
				break
			}
		}
	}
	for i, a := range names {
		if !refs[i].hostnameLike() {
			continue
		}
		for j, b := range names {
			if !refs[j].hostnameLike() {
				continue
			}
			if a.Equal(b) != refs[i].Equal(refs[j]) || (a.Canonical() == b.Canonical()) != refs[i].Equal(refs[j]) {
				t.Fatalf("Equal(%q, %q) = %v, reference %v", a, b, a.Equal(b), refs[i].Equal(refs[j]))
			}
			if a.IsSubdomainOf(b) != refs[i].IsSubdomainOf(refs[j]) {
				t.Fatalf("IsSubdomainOf(%q, %q) = %v, reference %v", a, b, a.IsSubdomainOf(b), refs[i].IsSubdomainOf(refs[j]))
			}
		}
	}
}

// corpusSeeds loads the checked-in seed inputs of another fuzz target
// so sibling targets can share one corpus of interesting wire bytes.
// Each seed file is Go's "go test fuzz v1" encoding: one quoted
// []byte literal per argument line.
func corpusSeeds(f *testing.F, target string) [][]byte {
	f.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatalf("shared corpus %s: %v", dir, err)
	}
	var seeds [][]byte
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "[]byte(") || !strings.HasSuffix(line, ")") {
				continue
			}
			lit, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")"))
			if err != nil {
				f.Fatalf("corpus seed %s: %v", e.Name(), err)
			}
			seeds = append(seeds, []byte(lit))
		}
	}
	if len(seeds) == 0 {
		f.Fatalf("shared corpus %s: no seeds decoded", dir)
	}
	return seeds
}

// FuzzAppendPack drives the zero-allocation encoder the servers use
// with pooled buffers, reusing FuzzParseMessage's corpus as the
// source of messages. The contract under test is position
// independence: AppendPack must leave an arbitrary dst prefix
// untouched and emit exactly the bytes Pack would, wherever the
// message lands — compression pointers are message-relative, so a
// pooled buffer or a TCP length prefix must never leak into the
// encoding. Back-to-back appends into one buffer (the TCP path) must
// hold the same way.
//
// It is the encoder half of the Name equivalence oracle too: for
// messages whose names are all hostname-like the output must equal the
// map-backed reference compressor's byte for byte (same pointer
// choices), and every message must decode back to the names it was
// built from, octet for octet.
func FuzzAppendPack(f *testing.F) {
	for _, seed := range corpusSeeds(f, "FuzzParseMessage") {
		f.Add(seed, uint8(0))
		f.Add(seed, uint8(13))
	}

	f.Fuzz(func(t *testing.T, data []byte, prefixLen uint8) {
		m, err := Unpack(data)
		if err != nil {
			return
		}
		packed, err := m.Pack()
		if err != nil {
			t.Fatalf("accepted message does not Pack: %v", err)
		}
		names := messageNames(m)
		hostnames := true
		for _, n := range names {
			hostnames = hostnames && refFromName(n).hostnameLike()
		}
		if hostnames {
			ref, err := refAppendPack(nil, m)
			if err != nil || !bytes.Equal(packed, ref) {
				t.Fatalf("encoding differs from the reference encoder's (err %v):\n%x\n%x", err, packed, ref)
			}
		}
		back, err := Unpack(packed)
		if err != nil {
			t.Fatalf("re-encoded message does not parse: %v", err)
		}
		for i, n := range messageNames(back) {
			if n != names[i] {
				t.Fatalf("name %d came back as %q, was %q", i, n.Labels(), names[i].Labels())
			}
		}

		prefix := bytes.Repeat([]byte{0xA5}, int(prefixLen))
		out, err := m.AppendPack(append([]byte(nil), prefix...))
		if err != nil {
			t.Fatalf("AppendPack failed where Pack succeeded: %v", err)
		}
		if !bytes.Equal(out[:len(prefix)], prefix) {
			t.Fatalf("AppendPack rewrote the dst prefix: %x", out[:len(prefix)])
		}
		if !bytes.Equal(out[len(prefix):], packed) {
			t.Fatalf("encoding depends on buffer position:\nat %d: %x\nat 0:  %x",
				len(prefix), out[len(prefix):], packed)
		}

		// TCP-style: a second message appended to the same buffer.
		out2, err := m.AppendPack(out)
		if err != nil {
			t.Fatalf("second AppendPack failed: %v", err)
		}
		if !bytes.Equal(out2[:len(out)], out) || !bytes.Equal(out2[len(out):], packed) {
			t.Fatal("back-to-back AppendPack corrupted the buffer")
		}
	})
}
