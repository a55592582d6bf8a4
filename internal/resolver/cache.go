package resolver

import (
	"sync"
	"time"

	"ritw/internal/dnswire"
)

// cacheKey identifies a cached RRset.
type cacheKey struct {
	name  dnswire.Name // Canonical() owner
	typ   dnswire.Type
	class dnswire.Class
}

// cacheEntry stores a positive or negative answer until expiry.
type cacheEntry struct {
	rcode    dnswire.RCode
	answers  []dnswire.RR
	negative bool
	expires  time.Duration
}

// RecordCache is the resolver's answer cache, honouring record TTLs
// (including the 5-second TTLs the paper's test records carry) and
// RFC 2308 negative caching.
type RecordCache struct {
	// MaxEntries bounds memory; entries are evicted opportunistically
	// when the bound is exceeded.
	MaxEntries int

	// mu makes the cache safe for concurrent use (see InfraCache.mu).
	mu           sync.Mutex
	entries      map[cacheKey]cacheEntry
	hits, misses int
}

// NewRecordCache creates an empty record cache.
func NewRecordCache() *RecordCache {
	return &RecordCache{
		entries:    make(map[cacheKey]cacheEntry),
		MaxEntries: 100000,
	}
}

// Get returns the cached answer for (name, typ, class) if still fresh
// at virtual time now. The boolean reports a usable hit; the returned
// records have their TTLs reduced by the time already spent in cache.
func (c *RecordCache) Get(name dnswire.Name, typ dnswire.Type, class dnswire.Class, now time.Duration) (dnswire.RCode, []dnswire.RR, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := cacheKey{name.Canonical(), typ, class}
	e, ok := c.entries[key]
	if !ok || now >= e.expires {
		if ok {
			delete(c.entries, key)
		}
		c.misses++
		return 0, nil, false
	}
	c.hits++
	remaining := uint32((e.expires - now) / time.Second)
	out := make([]dnswire.RR, len(e.answers))
	copy(out, e.answers)
	for i := range out {
		out[i].TTL = remaining
	}
	if e.negative {
		return e.rcode, nil, true
	}
	return e.rcode, out, true
}

// PutPositive caches a successful answer. The entry lives for the
// minimum TTL across the RRset.
func (c *RecordCache) PutPositive(name dnswire.Name, typ dnswire.Type, class dnswire.Class, answers []dnswire.RR, now time.Duration) {
	if len(answers) == 0 {
		return
	}
	minTTL := answers[0].TTL
	for _, rr := range answers[1:] {
		if rr.TTL < minTTL {
			minTTL = rr.TTL
		}
	}
	c.put(cacheKey{name.Canonical(), typ, class}, cacheEntry{
		rcode:   dnswire.RCodeNoError,
		answers: append([]dnswire.RR(nil), answers...),
		expires: now + time.Duration(minTTL)*time.Second,
	})
}

// PutNegative caches an NXDOMAIN or NODATA for negTTL seconds (the SOA
// minimum per RFC 2308).
func (c *RecordCache) PutNegative(name dnswire.Name, typ dnswire.Type, class dnswire.Class, rcode dnswire.RCode, negTTL uint32, now time.Duration) {
	c.put(cacheKey{name.Canonical(), typ, class}, cacheEntry{
		rcode:    rcode,
		negative: true,
		expires:  now + time.Duration(negTTL)*time.Second,
	})
}

func (c *RecordCache) put(key cacheKey, e cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) >= c.MaxEntries {
		c.evictSome()
	}
	c.entries[key] = e
}

// evictSome removes an eighth of the entries, whichever a map walk
// yields first — arbitrary victims, fresh or stale.
func (c *RecordCache) evictSome() {
	target := c.MaxEntries / 8
	if target < 1 {
		target = 1
	}
	removed := 0
	for k := range c.entries {
		delete(c.entries, k)
		removed++
		if removed >= target {
			break
		}
	}
}

// Len returns the number of cached entries (fresh or expired-but-not-
// yet-collected).
func (c *RecordCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns hit and miss counts.
func (c *RecordCache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
