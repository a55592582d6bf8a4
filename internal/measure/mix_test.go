package measure

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"ritw/internal/atlas"
	"ritw/internal/netsim"
	"ritw/internal/resolver"
)

// mixTestShares is the fleet mixture the layout cross-check runs (the
// "mix" row of layoutCases): the calibrated paper mixture plus a
// probe-top-N segment with singleflight and qname minimization on, so
// the engine paths those flags gate are inside the byte-identity loop.
func mixTestShares() []atlas.PolicyShare {
	mix := atlas.PaperMix()
	mix = append(mix, atlas.PolicyShare{
		Kind:          resolver.KindProbeTopN,
		Share:         0.15,
		InfraTTL:      10 * time.Minute,
		Retention:     resolver.DecayKeep,
		Singleflight:  true,
		QnameMinimize: true,
	})
	return mix
}

// mixCfg builds a 2B run re-drawing every resolver's behaviour from
// mixTestShares.
func mixCfg(t *testing.T, probes int, seed int64) RunConfig {
	t.Helper()
	cfg := shardCfg(t, "2B", probes, seed)
	cfg.Mix = mixTestShares()
	return cfg
}

// TestMixChangesBehaviourButNotTopology: the mix re-draw must actually
// change the record stream (different policies select differently)
// while leaving the population shape — probe count, churn, catchments
// — untouched, because the assignment consumes no RNG state.
func TestMixChangesBehaviourButNotTopology(t *testing.T) {
	t.Parallel()
	plain := shardCfg(t, "2B", 150, 23)
	plainCSV, plainDS := runToCSV(t, plain)
	mixed := mixCfg(t, 150, 23)
	mixedCSV, mixedDS := runToCSV(t, mixed)
	if bytes.Equal(plainCSV, mixedCSV) {
		t.Fatal("mix re-draw did not change the record stream; it tests nothing")
	}
	if plainDS.ActiveProbes != mixedDS.ActiveProbes {
		t.Errorf("mix changed active probes: %d vs %d — the re-draw must not consume RNG state",
			plainDS.ActiveProbes, mixedDS.ActiveProbes)
	}
	if len(plainDS.Records) != len(mixedDS.Records) {
		t.Errorf("mix changed the probing schedule: %d vs %d records",
			len(plainDS.Records), len(mixedDS.Records))
	}
}

// TestPolicyAssignmentDeterminism: the VPKey -> policy classifier is a
// pure function of the config — identical across shard layouts and
// repeated calls, covering every mixed-in kind.
func TestPolicyAssignmentDeterminism(t *testing.T) {
	t.Parallel()
	cfg := mixCfg(t, 150, 23)
	a1, err := PolicyAssignment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1) == 0 {
		t.Fatal("empty assignment")
	}
	cfg4 := cfg
	cfg4.Shards = 4
	a2, err := PolicyAssignment(cfg4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Fatal("assignment differs between 1 and 4 shards")
	}
	kinds := map[string]int{}
	for _, label := range a1 {
		kinds[label]++
	}
	if len(kinds) < 4 {
		t.Errorf("assignment covers only %d kinds: %v", len(kinds), kinds)
	}
	if kinds[resolver.KindProbeTopN.String()] == 0 {
		t.Errorf("probetopn segment drew no VPs: %v", kinds)
	}
}

// TestShareAtEntityKeyed pins the assignment primitive: deterministic
// per key, distributed by share over many keys, and never Sticky when
// the caller excludes it (public anycast sites hold per-client pins,
// so a sticky public resolver would be a modelling bug).
func TestShareAtEntityKeyed(t *testing.T) {
	t.Parallel()
	mix := atlas.PaperMix()
	counts := map[resolver.PolicyKind]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		key := netsim.MixKey(55, fmt.Sprintf("r%04d", i))
		s1 := atlas.ShareAt(mix, key, false)
		s2 := atlas.ShareAt(mix, key, false)
		if s1.Kind != s2.Kind {
			t.Fatalf("key %d: non-deterministic draw %v vs %v", key, s1.Kind, s2.Kind)
		}
		counts[s1.Kind]++
		if pub := atlas.ShareAt(mix, key, true); pub.Kind == resolver.KindSticky {
			t.Fatalf("noSticky draw returned Sticky for key %d", key)
		}
	}
	var total float64
	for _, m := range mix {
		total += m.Share
	}
	for _, m := range mix {
		want := m.Share / total
		got := float64(counts[m.Kind]) / n
		if got < want-0.02 || got > want+0.02 {
			t.Errorf("%v share %.3f, want %.3f±0.02", m.Kind, got, want)
		}
	}
}
