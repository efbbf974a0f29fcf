package core

import (
	"math"
	"testing"

	"repro/internal/slice"
)

// TestBendersWithCommittedTenants exercises the decomposition when
// constraint (13) pins slices: the committed tenant must survive and the
// objective must still match the direct solve.
func TestBendersWithCommittedTenants(t *testing.T) {
	committed := typedTenant("old", slice.URLLC, 12, 0.1, 1, 6)
	committed.Committed = true
	committed.CommittedCU = 0
	tenants := []TenantSpec{
		committed,
		typedTenant("new1", slice.URLLC, 12, 0.2, 1, 6),
		embbTenant("new2", 20, 0.3, 4, 4),
	}
	direct, err := SolveDirect(testInstance(tenants, true))
	if err != nil {
		t.Fatal(err)
	}
	benders, err := SolveBenders(testInstance(tenants, true), BendersOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !benders.Accepted[0] || benders.CU[0] != 0 {
		t.Error("Benders dropped or moved the committed slice")
	}
	if math.Abs(direct.Obj-benders.Obj) > 1e-4*(1+math.Abs(direct.Obj)) {
		t.Errorf("objectives differ: direct %v benders %v", direct.Obj, benders.Obj)
	}
}

// TestBendersFeasibilityCuts forces the slave to be infeasible on the
// first master proposal: with BigM disabled and tight capacity, the
// decomposition must work through feasibility cuts (Algorithm 1's
// unbounded-dual branch) and still land on the optimum.
func TestBendersFeasibilityCuts(t *testing.T) {
	var tenants []TenantSpec
	for i := 0; i < 5; i++ {
		// mMTC slices are compute-heavy: all five at once exceed every CU.
		tenants = append(tenants, typedTenant("m", slice.MMTC, 8, 0.2, 1, 4))
	}
	inst := testInstance(tenants, true)
	inst.BigM = 0 // no deficit escape hatch: infeasible proposals are real
	benders, err := SolveBenders(inst, BendersOptions{})
	if err != nil {
		t.Fatal(err)
	}
	instD := testInstance(tenants, true)
	instD.BigM = 0
	direct, err := SolveDirect(instD)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(direct.Obj-benders.Obj) > 1e-4*(1+math.Abs(direct.Obj)) {
		t.Errorf("objectives differ: direct %v benders %v", direct.Obj, benders.Obj)
	}
	if _, err := Verify(instD, benders); err != nil {
		t.Error(err)
	}
}

// TestBendersIterationBudget returns the incumbent when the budget is too
// small to converge rather than failing.
func TestBendersIterationBudget(t *testing.T) {
	var tenants []TenantSpec
	for i := 0; i < 4; i++ {
		tenants = append(tenants, embbTenant("e", 15, 0.3, 4, 4))
	}
	d, err := SolveBenders(testInstance(tenants, true), BendersOptions{MaxIterations: 2})
	if err != nil {
		t.Skipf("budget too small to find any incumbent: %v", err)
	}
	if _, err := Verify(testInstance(tenants, true), d); err != nil {
		t.Errorf("incumbent not feasible: %v", err)
	}
}

// TestKACCommittedFallback: committed slices that alone exceed strict
// capacity must drive KAC into the big-M relaxed slave.
func TestKACCommittedFallback(t *testing.T) {
	var tenants []TenantSpec
	for i := 0; i < 2; i++ {
		tn := typedTenant("m", slice.MMTC, 10, 0.1, 1, 4)
		tn.Committed = true
		tn.CommittedCU = 0 // 2×40 cores pinned onto the 16-core edge
		tenants = append(tenants, tn)
	}
	d, err := SolveKAC(testInstance(tenants, true))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accepted[0] || !d.Accepted[1] {
		t.Fatal("committed slices must survive KAC")
	}
	if d.DeficitCompute <= 0 {
		t.Errorf("expected a compute deficit, got %v", d.DeficitCompute)
	}
}

// TestHoldingCostDisabled verifies HoldingFrac < 0 restores the paper's
// literal objective: with slack capacity the optimizer pins z = Λ.
func TestHoldingCostDisabled(t *testing.T) {
	inst := testInstance([]TenantSpec{embbTenant("e1", 10, 0.2, 1, 4)}, true)
	inst.HoldingFrac = -1
	d, err := SolveDirect(inst)
	if err != nil {
		t.Fatal(err)
	}
	for b, z := range d.Z[0] {
		if math.Abs(z-50) > 1e-3 {
			t.Errorf("BS %d: z = %v, want Λ = 50 without holding costs", b, z)
		}
	}
	// With the default holding cost the same instance tracks the forecast.
	inst2 := testInstance([]TenantSpec{embbTenant("e1", 10, 0.2, 1, 4)}, true)
	d2, err := SolveDirect(inst2)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Z[0][0] > 15 {
		t.Errorf("holding cost should pull z toward λ̂ = 10, got %v", d2.Z[0][0])
	}
}

// TestRiskHorizonOverride checks the configurable ξ cap.
func TestRiskHorizonOverride(t *testing.T) {
	mk := func(h int) float64 {
		var tenants []TenantSpec
		for i := 0; i < 4; i++ {
			tenants = append(tenants, embbTenant("e", 25, 0.6, 4, 60))
		}
		inst := testInstance(tenants, true)
		inst.RiskHorizon = h
		d, err := SolveDirect(inst)
		if err != nil {
			t.Fatal(err)
		}
		return d.Revenue()
	}
	// A longer horizon prices more risk and can only reduce revenue.
	if !(mk(1) >= mk(32)-1e-9) {
		t.Error("longer risk horizon increased expected revenue")
	}
}
