package resolver

import (
	"testing"
	"time"

	"ritw/internal/dnswire"
)

// TestCacheKeepsDistinctNamesApart: the cache is keyed by canonical
// wire form, so distinct names an upstream can choose — a dot inside a
// label, a non-ASCII letter that Unicode folds onto an ASCII one, two
// invalid UTF-8 octets — never share an entry, while ASCII case still
// does not matter.
func TestCacheKeepsDistinctNamesApart(t *testing.T) {
	child := func(parent dnswire.Name, label string) dnswire.Name {
		n, err := parent.Child(label)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	pairs := [][2]dnswire.Name{
		{child(dnswire.MustParseName("c"), "a.b"), dnswire.MustParseName("a.b.c")},
		{child(dnswire.Root, "\xe2\x84\xaa"), dnswire.MustParseName("k")}, // KELVIN SIGN
		{child(dnswire.Root, "a\xff"), child(dnswire.Root, "a\xfe")},
	}
	for _, p := range pairs {
		c := NewRecordCache()
		answer := []dnswire.RR{{Name: p[0], Class: dnswire.ClassINET, TTL: 60, Data: dnswire.TXT{Strings: []string{"x"}}}}
		c.PutPositive(p[0], dnswire.TypeTXT, dnswire.ClassINET, answer, 0)
		if _, _, hit := c.Get(p[0], dnswire.TypeTXT, dnswire.ClassINET, time.Second); !hit {
			t.Errorf("%q: its own entry is a miss", p[0].Labels())
		}
		if _, _, hit := c.Get(p[1], dnswire.TypeTXT, dnswire.ClassINET, time.Second); hit {
			t.Errorf("%q is answered from the entry of %q", p[1].Labels(), p[0].Labels())
		}
	}

	c := NewRecordCache()
	lower, mixed := dnswire.MustParseName("www.example.nl"), dnswire.MustParseName("WwW.eXample.NL")
	c.PutNegative(mixed, dnswire.TypeA, dnswire.ClassINET, dnswire.RCodeNXDomain, 60, 0)
	if rcode, _, hit := c.Get(lower, dnswire.TypeA, dnswire.ClassINET, time.Second); !hit || rcode != dnswire.RCodeNXDomain {
		t.Errorf("ASCII case must not split cache entries: hit=%v rcode=%v", hit, rcode)
	}
}
