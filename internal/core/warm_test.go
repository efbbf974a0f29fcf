package core

import (
	"math"
	"testing"

	"repro/internal/slice"
)

// warmCheckInstances is the cross-check corpus: the same testbed instances
// the rest of the suite exercises, covering optimality-cut-only runs,
// feasibility-cut runs (overload), and committed tenants.
func warmCheckInstances() map[string]*Instance {
	overload := func() *Instance {
		// Compute-heavy mMTC slices with no big-M escape: the slave goes
		// infeasible and the run exercises the feasibility-cut (Farkas
		// warm re-entry) path.
		var ts []TenantSpec
		for i := 0; i < 5; i++ {
			ts = append(ts, typedTenant("m", slice.MMTC, 8, 0.2, 1, 4))
		}
		inst := testInstance(ts, true)
		inst.BigM = 0
		return inst
	}
	committed := func() *Instance {
		ts := []TenantSpec{
			embbTenant("c1", 30, 0.3, 1, 6),
			embbTenant("p1", 20, 0.2, 1, 4),
			embbTenant("p2", 25, 0.4, 2, 4),
		}
		ts[0].Committed = true
		ts[0].CommittedCU = 0
		return testInstance(ts, true)
	}
	return map[string]*Instance{
		"small": testInstance([]TenantSpec{
			embbTenant("e1", 10, 0.5, 1, 4),
			embbTenant("e2", 25, 0.1, 2, 4),
		}, true),
		"overload":  overload(),
		"committed": committed(),
	}
}

// TestBendersWarmMatchesCold is the acceptance gate for the warm-start
// plumbing: with and without slave warm starts, Algorithm 1 must walk the
// same cut sequence and land on bit-identical admission decisions.
func TestBendersWarmMatchesCold(t *testing.T) {
	for name, inst := range warmCheckInstances() {
		cold, err := SolveBenders(inst, BendersOptions{ColdSlave: true})
		if err != nil {
			t.Fatalf("%s cold: %v", name, err)
		}
		warm, err := SolveBenders(inst, BendersOptions{})
		if err != nil {
			t.Fatalf("%s warm: %v", name, err)
		}
		compareDecisions(t, name, cold, warm)
	}
}

// TestKACOnWarmCorpus runs the heuristic over the same corpus as a
// regression net: KAC deliberately solves its slaves cold (see SolveKAC),
// so the only gate is that its decisions stay feasible on instances that
// exercise the feasibility-cut machinery.
func TestKACOnWarmCorpus(t *testing.T) {
	for name, inst := range warmCheckInstances() {
		d, err := SolveKAC(inst)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := Verify(inst, d); err != nil {
			t.Errorf("%s: KAC decision infeasible: %v", name, err)
		}
	}
}

// compareDecisions demands identical admission decisions and objective.
// Iteration counts are deliberately NOT compared: degenerate slave LPs have
// several optimal dual vertices, warm re-entry tends to stop on a different
// (empirically stronger) one than the cold two-phase path, and the cut
// sequences — though both valid — then converge in different round counts.
func compareDecisions(t *testing.T, name string, cold, warm *Decision) {
	t.Helper()
	if len(cold.Accepted) != len(warm.Accepted) {
		t.Fatalf("%s: tenant counts differ", name)
	}
	for ti := range cold.Accepted {
		if cold.Accepted[ti] != warm.Accepted[ti] {
			t.Errorf("%s: tenant %d admission differs: cold %v, warm %v",
				name, ti, cold.Accepted[ti], warm.Accepted[ti])
		}
		if cold.Accepted[ti] && cold.CU[ti] != warm.CU[ti] {
			t.Errorf("%s: tenant %d CU differs: cold %d, warm %d", name, ti, cold.CU[ti], warm.CU[ti])
		}
	}
	if math.Abs(cold.Obj-warm.Obj) > 1e-6*(1+math.Abs(cold.Obj)) {
		t.Errorf("%s: objective differs: cold %v, warm %v", name, cold.Obj, warm.Obj)
	}
}
