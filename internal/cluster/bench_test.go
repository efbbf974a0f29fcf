package cluster

import (
	"context"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/obslog"
)

// BenchmarkClusterRoundLoopback measures a full wire round trip — frame
// encode, pipe transfer, worker-side decode and solve, reply — against
// BenchmarkClusterRoundLocal, the identical solve with no wire. The gap
// between them is the protocol tax per round; the solver itself is the
// cheap direct algorithm so the tax is not drowned out.
func BenchmarkClusterRoundLoopback(b *testing.B) {
	coord := NewCoordinator(CoordinatorOptions{})
	defer coord.Close()
	cfg := testDomainConfig()
	if err := coord.RegisterDomain("", cfg); err != nil {
		b.Fatal(err)
	}
	stop := StartLoopbackWorker(coord, "w0", obslog.Nop())
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.WaitMembers(ctx, 1); err != nil {
		b.Fatal(err)
	}
	tenants := testTenants()
	// Warm the assign path out of the measured region.
	if _, err := coord.SolveRound(admission.DefaultDomain, 0, nil, tenants); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, err := coord.SolveRound(admission.DefaultDomain, uint64(i+1), nil, tenants); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterRoundLocal is the no-wire reference for the loopback
// benchmark: same spec, same tenants, same solver, direct call.
func BenchmarkClusterRoundLocal(b *testing.B) {
	host := NewSolverHost()
	spec, err := NewDomainSpec("", testDomainConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := host.Register(spec); err != nil {
		b.Fatal(err)
	}
	tenants := testTenants()
	if _, err := host.Solve(admission.DefaultDomain, nil, tenants); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := host.Solve(admission.DefaultDomain, nil, tenants); err != nil {
			b.Fatal(err)
		}
	}
}
