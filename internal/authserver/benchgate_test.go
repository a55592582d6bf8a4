package authserver

import (
	"os"
	"testing"

	"ritw/internal/obs"
)

// Checked-in budgets for the serving hot path. The recorded baseline is
// 16 allocs/op and 1032 B/op with wire-form names (78 and 2771 with the
// label-slice names before them); the budgets leave 10% headroom for
// toolchain drift, so tripping one means a real regression — a new
// allocation on the per-query path — not noise.
const (
	serveUDPAllocBudget = 18
	serveUDPBytesBudget = 1136
)

// TestBenchGateServeUDP is the CI bench regression gate for
// BenchmarkServeUDPParallel: it fails when the per-query allocation
// count of the UDP serving path (with metrics attached, the deployed
// configuration) exceeds the checked-in budget. Allocation counts are
// deterministic, unlike ns/op, so this is CI-stable. Gated behind
// RITW_BENCH_GATE=1 to keep ordinary `go test` fast.
func TestBenchGateServeUDP(t *testing.T) {
	if os.Getenv("RITW_BENCH_GATE") == "" {
		t.Skip("set RITW_BENCH_GATE=1 to run the bench regression gate")
	}
	res := testing.Benchmark(func(b *testing.B) { serveUDPBench(b, obs.NewRegistry()) })
	t.Logf("serve UDP: %v, %d allocs/op, %d B/op", res, res.AllocsPerOp(), res.AllocedBytesPerOp())
	if a := res.AllocsPerOp(); a > serveUDPAllocBudget {
		t.Errorf("serving hot path allocates %d/op, budget %d", a, serveUDPAllocBudget)
	}
	if n := res.AllocedBytesPerOp(); n > serveUDPBytesBudget {
		t.Errorf("serving hot path allocates %d B/op, budget %d", n, serveUDPBytesBudget)
	}
}
