package core

import (
	"fmt"
	"testing"

	"repro/internal/slice"
	"repro/internal/topology"
)

// TestKACConvergesOnFig5Cell is the regression pin for the iteration
// budget: the Fig. 5 grid's first cell (Romanian-4, 8 fresh eMBB tenants
// at full-SLA conservatism) needs ~110 feasibility-cut rounds, which the
// old default budget of 100 turned into a hard failure of the whole
// `simctl -experiment fig5 -algo kac` (and -full) path. Default options
// must now converge on it.
func TestKACConvergesOnFig5Cell(t *testing.T) {
	net := topology.Romanian(4)
	paths := net.Paths(2)
	tmpl := slice.Table1(slice.EMBB)
	var specs []TenantSpec
	for i := 0; i < 8; i++ {
		sla := slice.SLA{Template: tmpl, MeanMbps: 0.2 * tmpl.RateMbps, Duration: 1 << 20}.WithPenaltyFactor(1)
		specs = append(specs, TenantSpec{
			Name: fmt.Sprintf("e%d", i+1), SLA: sla,
			LambdaHat: sla.RateMbps, Sigma: 1, RemainingEpochs: 1 << 20,
		})
	}
	inst := &Instance{Net: net, Paths: paths, Tenants: specs, Overbook: true, BigM: 1e4}
	d, err := SolveKAC(inst)
	if err != nil {
		t.Fatalf("KAC with default options: %v", err)
	}
	accepted := 0
	for _, a := range d.Accepted {
		if a {
			accepted++
		}
	}
	if accepted == 0 {
		t.Fatalf("KAC converged but admitted nobody on an admissible instance: %+v", d)
	}
}
