package cluster

import (
	"reflect"
	"testing"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/slice"
	"repro/internal/topology"
)

// TestSolverHostRegistersMetroPod takes one metro pod across the cluster
// wire: its edge CU sits on the pod gateway, a switch node, which the
// topology decoder used to refuse — so a worker could never be assigned a
// pod. The host must register the spec and solve a round to the decision an
// in-process session reaches on the original network.
func TestSolverHostRegistersMetroPod(t *testing.T) {
	pod := topology.Metro(topology.MetroPodBS)
	spec, err := NewDomainSpec("pod0", admission.DomainConfig{Net: pod, KPaths: 1, Algorithm: "benders"})
	if err != nil {
		t.Fatal(err)
	}
	host := NewSolverHost()
	if err := host.Register(spec); err != nil {
		t.Fatalf("register metro pod: %v", err)
	}
	if !host.Has("pod0") {
		t.Fatal("pod0 not registered")
	}

	sla := slice.SLA{Template: slice.Table1(slice.EMBB), Duration: 8}.WithPenaltyFactor(1)
	tenants := []core.TenantSpec{
		{Name: "t0", SLA: sla, LambdaHat: sla.RateMbps / 2, Sigma: 0.2, RemainingEpochs: 8},
	}
	got, err := host.Solve("pod0", nil, tenants)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.NewBendersSession(spec.Benders).Solve(&core.Instance{
		Net: pod, Paths: pod.Paths(spec.KPaths), Tenants: tenants,
		Overbook: true, BigM: spec.BigM, RiskHorizon: spec.RiskHorizon,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pod decision over the wire form differs:\n got  %+v\n want %+v", got, want)
	}
}
