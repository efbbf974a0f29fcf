package core

import (
	"testing"

	"repro/internal/slice"
)

// benchTenants is a CI-sized admission round on the testbed topology:
// enough tenants that the slave LP dominates, small enough that the
// branch-and-bound master stays fast.
func benchTenants() []TenantSpec {
	return []TenantSpec{
		embbTenant("e1", 12, 0.4, 1, 4),
		embbTenant("e2", 22, 0.2, 2, 4),
		embbTenant("e3", 30, 0.3, 4, 4),
		embbTenant("e4", 18, 0.1, 1, 4),
	}
}

// benchBenders times Algorithm 1 end to end; the Cold/Warm pair makes the
// slave warm-start saving visible in CI benchmark output.
func benchBenders(b *testing.B, cold bool) {
	inst := testInstance(benchTenants(), true)
	iters := 0
	for b.Loop() {
		d, err := SolveBenders(inst, BendersOptions{ColdSlave: cold})
		if err != nil {
			b.Fatal(err)
		}
		iters += d.Iterations
	}
	b.ReportMetric(float64(iters)/float64(b.N), "benders-iters/op")
}

func BenchmarkBendersColdSlave(b *testing.B) { benchBenders(b, true) }
func BenchmarkBendersWarmSlave(b *testing.B) { benchBenders(b, false) }

// BenchmarkSessionRebuild times a session round that rebuilds cold — an
// arrival or an expiry every round (coldRounds) — with the slave and master
// rebuilt into the session's own storage; -benchmem shows what it allocates.
func BenchmarkSessionRebuild(b *testing.B) {
	rounds := coldRounds(64)
	sess := NewBendersSession(BendersOptions{})
	i := 0
	b.ReportAllocs()
	for b.Loop() {
		if _, err := sess.Solve(rounds[i%len(rounds)]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// BenchmarkKACTrimmingLoop times the heuristic's Farkas-ray-dominated
// solve sequence on a mixed instance. KAC solves cold by design — its
// chain has no optimal basis to re-enter from (see SolveKAC) — so this is
// a single benchmark, not a cold/warm pair like Benders above.
func BenchmarkKACTrimmingLoop(b *testing.B) {
	var ts []TenantSpec
	for i := 0; i < 6; i++ {
		ts = append(ts, embbTenant("e", 10, 0.25, 1, 4))
	}
	ts = append(ts,
		typedTenant("m1", slice.MMTC, 10, 0, 1, 4),
		typedTenant("u1", slice.URLLC, 5, 0.25, 1, 4))
	inst := testInstance(ts, true)
	for b.Loop() {
		if _, err := SolveKAC(inst); err != nil {
			b.Fatal(err)
		}
	}
}
