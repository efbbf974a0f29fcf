package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/slice"
	"repro/internal/topology"
)

// TestSolverHostMatchesInProcess takes a domain across the cluster wire —
// NewDomainSpec, the topology as JSON, Register — and requires every round
// to end exactly as it does on the in-process solver built from the same
// config: the same decision, or the same solver error.
//
// The metro pod's edge CU sits on the pod gateway, a switch node, which the
// topology decoder used to refuse, so a worker could never be assigned a
// pod. The hard-capacity domain (BigM < 0, normalized to 0 on the
// coordinator) is the case re-defaulting an already-normalized spec on the
// worker would break silently: 0 would become big-M 1e4, and the second
// round — committed slices over a degraded BS — would come back as a
// deficit-priced decision instead of the infeasibility the engine reports.
func TestSolverHostMatchesInProcess(t *testing.T) {
	embb := slice.SLA{Template: slice.Table1(slice.EMBB), Duration: 8}.WithPenaltyFactor(1)
	tenants := func(n int, committed bool) []core.TenantSpec {
		var ts []core.TenantSpec
		for i := 0; i < n; i++ {
			ts = append(ts, core.TenantSpec{Name: fmt.Sprintf("t%d", i), SLA: embb,
				LambdaHat: embb.RateMbps, Sigma: 1, RemainingEpochs: 8, Committed: committed})
		}
		return ts
	}
	type round struct {
		events  []topology.Event
		tenants []core.TenantSpec
		wantErr bool
	}
	halfBS0 := []topology.Event{{Kind: topology.EventBS, Index: 0, Factor: 0.5}}
	cases := []struct {
		name   string
		dc     admission.DomainConfig
		rounds []round
	}{
		{
			name: "metro pod",
			dc:   admission.DomainConfig{Net: topology.Metro(topology.MetroPodBS), KPaths: 1, Algorithm: "benders"},
			rounds: []round{{tenants: []core.TenantSpec{
				{Name: "t0", SLA: embb, LambdaHat: embb.RateMbps / 2, Sigma: 0.2, RemainingEpochs: 8},
			}}},
		},
		{
			name: "hard capacity",
			dc:   admission.DomainConfig{Net: topology.Testbed(), Algorithm: "direct", BigM: -1},
			rounds: []round{
				{tenants: tenants(4, false)},
				{events: halfBS0, tenants: tenants(2, true), wantErr: true},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dc, err := tc.dc.Normalized()
			if err != nil {
				t.Fatal(err)
			}
			local, err := admission.NewLocalSolver(dc)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := NewDomainSpec("d", tc.dc)
			if err != nil {
				t.Fatal(err)
			}
			host := NewSolverHost()
			if err := host.Register(spec); err != nil {
				t.Fatalf("register: %v", err)
			}
			if !host.Has("d") {
				t.Fatal("domain not registered")
			}
			for i, r := range tc.rounds {
				want, wantErr := local.SolveRound("d", uint64(i), r.events, r.tenants)
				got, gotErr := host.Solve("d", r.events, r.tenants)
				if (wantErr != nil) != r.wantErr {
					t.Fatalf("round %d in-process: err = %v, want error: %v", i, wantErr, r.wantErr)
				}
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("round %d: over the wire form err = %v, in-process err = %v", i, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: decision over the wire form differs:\n got  %+v\n want %+v", i, got, want)
				}
			}
		})
	}
}
