package netsim

import (
	"fmt"
	"math/rand"
	"net/netip"

	"ritw/internal/geo"
)

// This file implements the network's keyed-randomness mode, the
// foundation of the sharded simulation engine (DESIGN.md §8.4).
//
// In the classic mode every stochastic decision — per-packet loss,
// jitter, per-pair stretch, anycast catchment noise — draws from one
// sequential RNG stream, so the outcome of packet N depends on how
// many draws every *other* packet consumed before it. That coupling is
// harmless in a single event loop but fatal for sharding: removing an
// unrelated vantage point shifts the stream and changes every
// subsequent decision.
//
// Keyed mode severs the coupling. Every decision derives its
// randomness from a splitmix64 stream seeded by a stable key:
//
//	per-packet:  (seed, src, dst, n)   n = packets sent src→dst so far
//	per-pair:    (seed, salt, a, b)    unordered endpoint pair
//	catchment:   (seed, salt, src, service)
//
// Within one (src, dst) pair the packet sequence is causally ordered —
// both endpoints live in the same shard by construction — so the
// counter n is identical no matter how the rest of the population is
// partitioned. That is the whole determinism argument: a vantage
// point's packet fates depend only on its own traffic history, never
// on event interleaving across shards, which is what makes a sharded
// run byte-identical to the sequential one at any shard count.

// Salts separate the keyed sub-streams. Arbitrary odd constants.
const (
	saltPacket    = 0x9e3779b97f4a7c15
	saltStretch   = 0xc2b2ae3d27d4eb4f
	saltCatchment = 0x165667b19e3779f9
	saltMix       = 0x27d4eb2f165667c5
)

// mix64 is the splitmix64 finalizer: full-avalanche bit mixing, the
// same construction internal/faults uses for subset selection.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// addrBits folds an address into 64 bits. Simulated hosts are IPv4
// (AllocAddr hands out 10.x addresses), packed directly; other
// lengths are mixed byte-wise so the function stays total.
func addrBits(a netip.Addr) uint64 {
	if a.Is4() {
		b := a.As4()
		return uint64(b[0])<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3])
	}
	b := a.As16()
	var h uint64
	for _, x := range b {
		h = mix64(h ^ uint64(x))
	}
	return h
}

// pairBits combines two addresses order-sensitively.
func pairBits(src, dst netip.Addr) uint64 {
	return mix64(addrBits(src)<<32 | addrBits(dst)&0xffffffff ^ addrBits(dst)>>32<<16 ^ addrBits(src)>>32)
}

// PacketKey derives the keyed-stream seed for the n-th packet from src
// to dst under the given network seed.
func PacketKey(seed uint64, src, dst netip.Addr, n uint64) uint64 {
	return mix64(mix64(seed^saltPacket^pairBits(src, dst)) ^ n)
}

// pairKeyBits combines two addresses order-insensitively (for per-pair
// pinned state like stretch).
func pairKeyBits(a, b netip.Addr) uint64 {
	if b.Less(a) {
		a, b = b, a
	}
	return pairBits(a, b)
}

// StretchKey derives the keyed-stream seed for the pinned stretch of
// the unordered pair (a, b).
func StretchKey(seed uint64, a, b netip.Addr) uint64 {
	return mix64(seed ^ saltStretch ^ pairKeyBits(a, b))
}

// CatchmentKey derives the keyed-stream seed for the catchment
// decision of traffic from src to the anycast service address.
func CatchmentKey(seed uint64, src, service netip.Addr) uint64 {
	return mix64(seed ^ saltCatchment ^ pairBits(src, service))
}

// MixKey derives the keyed-stream seed for the policy-mix assignment
// of the named entity (a resolver's stable population name) under the
// given run seed. Keying by name — never by index, address, or shard —
// makes the assignment a pure function of (seed, name): it survives
// any re-partitioning of the population across shards, which is what
// keeps mixed-fleet datasets byte-identical at every shard count.
func MixKey(seed uint64, entity string) uint64 {
	// FNV-64a over the name, finalized through the mix stream's salt.
	h := uint64(14695981039346656037)
	for i := 0; i < len(entity); i++ {
		h ^= uint64(entity[i])
		h *= 1099511628211
	}
	return mix64(seed ^ saltMix ^ h)
}

// sm64 is a splitmix64 generator implementing rand.Source64, so the
// stdlib's Float64/NormFloat64/Intn distributions can run on a keyed
// stream. Resetting state re-seeds it in place with zero allocation.
type sm64 struct{ state uint64 }

func (s *sm64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix64(s.state)
}

func (s *sm64) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *sm64) Seed(seed int64) { s.state = uint64(seed) }

// keyedRand is a reusable rand.Rand over an sm64 source; reset() makes
// it draw the deterministic stream for one key.
type keyedRand struct {
	src sm64
	rng *rand.Rand
}

func newKeyedRand() *keyedRand {
	kr := &keyedRand{}
	kr.rng = rand.New(&kr.src)
	return kr
}

func (kr *keyedRand) reset(key uint64) *rand.Rand {
	kr.src.state = key
	return kr.rng
}

// UseKeyedRand switches the network to keyed randomness under seed.
// It must be called before any traffic flows or catchment/stretch
// state pins; the classic sequential RNG (the constructor's seed) is
// no longer consulted afterwards. Measurement runs always enable this:
// it is what keeps a sharded run byte-identical to a sequential one.
func (n *Network) UseKeyedRand(seed uint64) {
	n.keyed = true
	n.keyedSeed = seed
	if n.kr == nil {
		n.kr = newKeyedRand()
		n.pairCtr = make(map[uint64]uint64)
	}
}

// Keyed reports whether the network draws keyed randomness.
func (n *Network) Keyed() bool { return n.keyed }

// packetRand returns the keyed RNG positioned for the next packet from
// src to dst, advancing the pair's packet counter. The counter map is
// keyed by the packed dense-id pair — exact (ids are unique), not a
// hash: a collision between pairs that land in different shards would
// silently desync the sharded and sequential streams. The RNG key
// itself still derives from the addresses, so id assignment order can
// never change a draw.
func (n *Network) packetRand(src, dst *Host) *rand.Rand {
	pk := packIDs(src.id, dst.id)
	ctr := n.pairCtr[pk]
	n.pairCtr[pk] = ctr + 1
	return n.kr.reset(PacketKey(n.keyedSeed, src.Addr, dst.Addr, ctr))
}

// PinCatchment fixes the anycast catchment decision for traffic from
// src to service: member receives it. Experiment planners use this to
// pre-compute catchments (with KeyedCatchmentPick) before the
// population is partitioned into shards, so every shard — and the
// sequential run — agrees on the mapping without consuming RNG.
// member must already be registered as a member of service, and the
// src host must be registered before pinning (catchments are stored
// under dense ids).
func (n *Network) PinCatchment(src, service netip.Addr, member *Host) {
	if !n.isMember(member, service) {
		panic("netsim: PinCatchment member does not serve the service")
	}
	srcHost := n.lookupHost(src)
	if srcHost == nil {
		panic(fmt.Sprintf("netsim: PinCatchment source %s not registered", src))
	}
	id, _ := n.serviceID(service)
	n.catch[packIDs(srcHost.id, id)] = member
}

// KeyedCatchmentPick picks which member of an anycast service receives
// traffic from a source at srcLoc, using only key for randomness. It
// mirrors the classic catchment decision — nearest site by model RTT,
// except with probability noise the choice is suboptimal — but its
// outcome depends only on (key, locations), never on draw order, so
// planners can pre-compute it and shards can replay it. Returns an
// index into memberLocs.
func KeyedCatchmentPick(model geo.PathModel, noise float64, key uint64, srcLoc geo.Coord, memberLocs []geo.Coord) int {
	if len(memberLocs) == 1 {
		return 0
	}
	type cand struct {
		idx int
		rtt float64
	}
	cands := make([]cand, len(memberLocs))
	for i, loc := range memberLocs {
		d := srcLoc.DistanceKm(loc)
		cands[i] = cand{i, model.BaseRTTMs(d, model.StretchMean)}
	}
	// Sort by RTT (selection sort: member counts are small). Ties keep
	// member order, matching the classic path.
	for i := range cands {
		minI := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].rtt < cands[minI].rtt {
				minI = j
			}
		}
		cands[i], cands[minI] = cands[minI], cands[i]
	}
	src := sm64{state: key}
	rng := rand.New(&src)
	if rng.Float64() >= noise {
		return cands[0].idx
	}
	// Noisy decision: usually the runner-up, occasionally anything.
	if rng.Float64() < 0.7 || len(cands) == 2 {
		return cands[1].idx
	}
	return cands[2+rng.Intn(len(cands)-2)].idx
}
