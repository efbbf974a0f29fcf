package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/slice"
	"repro/internal/topology"
)

// testInstance builds an AC-RR instance over the §5 testbed data plane
// (2 BSs, edge+core CU) — small enough for the exact solvers, rich enough
// to exercise every constraint family.
func testInstance(tenants []TenantSpec, overbook bool) *Instance {
	net := topology.Testbed()
	return &Instance{
		Net:      net,
		Paths:    net.Paths(3),
		Tenants:  tenants,
		Overbook: overbook,
		BigM:     defaultBigM,
	}
}

// paperInstance is testInstance with the holding-cost regularizer
// disabled: the solvers then optimize the paper's literal Ψ, which is the
// objective the cross-solver dominance properties are stated in. (With
// holding enabled, two solutions can order differently under Ψ and under
// Ψ+holding, so Revenue comparisons across solvers are only meaningful on
// the un-regularized objective.)
func paperInstance(tenants []TenantSpec, overbook bool) *Instance {
	inst := testInstance(tenants, overbook)
	inst.HoldingFrac = -1
	return inst
}

// embbTenant is a convenience builder: an eMBB request with forecast λ̂ and
// uncertainty σ̂, penalty factor m, duration L epochs.
func embbTenant(name string, lambdaHat, sigma, m float64, dur int) TenantSpec {
	sla := slice.SLA{Template: slice.Table1(slice.EMBB), Duration: dur}.WithPenaltyFactor(m)
	return TenantSpec{Name: name, SLA: sla, LambdaHat: lambdaHat, Sigma: sigma, RemainingEpochs: dur}
}

func typedTenant(name string, ty slice.Type, lambdaHat, sigma, m float64, dur int) TenantSpec {
	sla := slice.SLA{Template: slice.Table1(ty), Duration: dur}.WithPenaltyFactor(m)
	return TenantSpec{Name: name, SLA: sla, LambdaHat: lambdaHat, Sigma: sigma, RemainingEpochs: dur}
}

func TestNoOverbookingReservesFullSLA(t *testing.T) {
	inst := testInstance([]TenantSpec{embbTenant("e1", 10, 0.5, 1, 4)}, false)
	d, err := SolveDirect(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accepted[0] {
		t.Fatal("single profitable slice must be accepted")
	}
	for b, z := range d.Z[0] {
		if math.Abs(z-50) > 1e-3 {
			t.Errorf("BS %d: z = %v, want full SLA 50", b, z)
		}
	}
	if _, err := Verify(inst, d); err != nil {
		t.Error(err)
	}
}

func TestOverbookingReservesBelowSLA(t *testing.T) {
	// Three eMBB slices want 50 Mb/s each per BS; each BS carries 150.
	// Without overbooking all three fit exactly; a fourth cannot. With a
	// low forecast, overbooking admits the fourth.
	mk := func(n int) []TenantSpec {
		var ts []TenantSpec
		for i := 0; i < n; i++ {
			ts = append(ts, embbTenant("e", 10, 0.1, 1, 4))
		}
		return ts
	}
	noOver, err := SolveDirect(testInstance(mk(4), false))
	if err != nil {
		t.Fatal(err)
	}
	accN := 0
	for _, a := range noOver.Accepted {
		if a {
			accN++
		}
	}
	if accN != 3 {
		t.Errorf("no-overbooking accepted %d, want 3 (radio limit)", accN)
	}

	over, err := SolveDirect(testInstance(mk(4), true))
	if err != nil {
		t.Fatal(err)
	}
	accO := 0
	for _, a := range over.Accepted {
		if a {
			accO++
		}
	}
	if accO != 4 {
		t.Errorf("overbooking accepted %d, want 4", accO)
	}
	if !(over.Revenue() > noOver.Revenue()) {
		t.Errorf("overbooking revenue %v not above baseline %v", over.Revenue(), noOver.Revenue())
	}
	if _, err := Verify(testInstance(mk(4), true), over); err != nil {
		t.Error(err)
	}
}

func TestURLLCCannotUseCoreCU(t *testing.T) {
	// uRLLC's 5 ms budget rules out the 30 ms core CU path.
	inst := testInstance([]TenantSpec{typedTenant("u1", slice.URLLC, 5, 0.2, 1, 4)}, true)
	d, err := SolveDirect(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accepted[0] {
		t.Fatal("uRLLC slice should fit at the edge")
	}
	if d.CU[0] != 0 {
		t.Errorf("uRLLC placed on CU %d, want edge (0)", d.CU[0])
	}
}

func TestEMBBCanUseEitherCU(t *testing.T) {
	inst := testInstance([]TenantSpec{embbTenant("e1", 10, 0.2, 1, 4)}, true)
	m, err := buildModel(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !m.feasibleCU[0][0] || !m.feasibleCU[0][1] {
		t.Error("eMBB (Δ=30ms) must reach both the edge and the 30ms core CU")
	}
}

func TestCommittedSliceStaysAccepted(t *testing.T) {
	// A committed slice with absurd penalty risk would never be accepted
	// fresh, but (13) forces it to stay.
	committed := typedTenant("old", slice.MMTC, 9.9, 1.0, 16, 8)
	committed.Committed = true
	committed.CommittedCU = 0
	inst := testInstance([]TenantSpec{committed}, true)
	d, err := SolveDirect(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accepted[0] || d.CU[0] != 0 {
		t.Fatal("committed slice must remain accepted on its pinned CU")
	}
}

func TestBigMDeficitAbsorbsOverload(t *testing.T) {
	// Two committed mMTC slices at full load need 2×(2 CPUs/Mbps × 10Mb/s
	// × 2 BSs) = 80 cores on the 16-core edge CU: infeasible without δ.
	mk := func() []TenantSpec {
		var ts []TenantSpec
		for i := 0; i < 2; i++ {
			tn := typedTenant("m", slice.MMTC, 10, 0.2, 1, 4)
			tn.Committed = true
			tn.CommittedCU = 0
			ts = append(ts, tn)
		}
		return ts
	}
	d, err := SolveDirect(testInstance(mk(), true))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accepted[0] || !d.Accepted[1] {
		t.Fatal("committed slices must stay")
	}
	if d.DeficitCompute <= 0 {
		t.Errorf("expected a compute deficit, got %v", d.DeficitCompute)
	}
	if _, err := Verify(testInstance(mk(), true), d); err != nil {
		t.Error(err)
	}

	// Without the relaxation the same instance must be reported infeasible.
	inst := testInstance(mk(), true)
	inst.BigM = 0
	if _, err := SolveDirect(inst); err == nil {
		t.Error("expected infeasibility error with BigM disabled")
	}
}

func TestBendersMatchesDirect(t *testing.T) {
	tenants := []TenantSpec{
		embbTenant("e1", 10, 0.25, 1, 4),
		embbTenant("e2", 25, 0.5, 4, 2),
		typedTenant("u1", slice.URLLC, 5, 0.25, 1, 6),
		typedTenant("m1", slice.MMTC, 10, 0.0, 16, 3),
	}
	inst := testInstance(tenants, true)
	direct, err := SolveDirect(inst)
	if err != nil {
		t.Fatal(err)
	}
	benders, err := SolveBenders(testInstance(tenants, true), BendersOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(direct.Obj-benders.Obj) > 1e-4*(1+math.Abs(direct.Obj)) {
		t.Errorf("Benders obj %v != direct obj %v", benders.Obj, direct.Obj)
	}
	if _, err := Verify(testInstance(tenants, true), benders); err != nil {
		t.Error(err)
	}
	if benders.Iterations < 1 {
		t.Error("iteration count not recorded")
	}
}

// TestQuickBendersEqualsDirect is the central correctness property of the
// reproduction: on random instances the decomposition must reach the same
// optimum as the monolithic branch-and-bound (Theorem 2 of the paper).
func TestQuickBendersEqualsDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation is slow")
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(3)
		var tenants []TenantSpec
		for i := 0; i < n; i++ {
			ty := slice.Type(r.Intn(3))
			tmpl := slice.Table1(ty)
			alpha := 0.2 + 0.6*r.Float64()
			tn := typedTenant("t", ty, alpha*tmpl.RateMbps, 0.1+0.8*r.Float64(),
				float64([]int{1, 4, 16}[r.Intn(3)]), 1+r.Intn(6))
			tenants = append(tenants, tn)
		}
		d1, err := SolveDirect(paperInstance(tenants, true))
		if err != nil {
			t.Logf("direct: %v", err)
			return false
		}
		d2, err := SolveBenders(paperInstance(tenants, true), BendersOptions{})
		if err != nil {
			t.Logf("benders: %v", err)
			return false
		}
		if math.Abs(d1.Obj-d2.Obj) > 1e-4*(1+math.Abs(d1.Obj)) {
			t.Logf("seed %d: direct %v benders %v", seed, d1.Obj, d2.Obj)
			return false
		}
		if _, err := Verify(paperInstance(tenants, true), d2); err != nil {
			t.Logf("verify: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestKACFeasibleAndBounded(t *testing.T) {
	var tenants []TenantSpec
	for i := 0; i < 6; i++ {
		tenants = append(tenants, embbTenant("e", 10, 0.25, 1, 4))
	}
	tenants = append(tenants,
		typedTenant("m1", slice.MMTC, 10, 0, 1, 4),
		typedTenant("u1", slice.URLLC, 5, 0.25, 1, 4))

	kac, err := SolveKAC(paperInstance(tenants, true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(paperInstance(tenants, true), kac); err != nil {
		t.Fatal(err)
	}
	direct, err := SolveDirect(paperInstance(tenants, true))
	if err != nil {
		t.Fatal(err)
	}
	if kac.Revenue() > direct.Revenue()+1e-6 {
		t.Errorf("heuristic revenue %v exceeds the optimum %v", kac.Revenue(), direct.Revenue())
	}
	if kac.Revenue() <= 0 {
		t.Errorf("KAC found no profit at all: %v", kac.Revenue())
	}
}

// TestQuickKACNeverBeatsOptimal property-checks the heuristic's soundness:
// always feasible, never better than the exact optimum.
func TestQuickKACNeverBeatsOptimal(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation is slow")
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4)
		var tenants []TenantSpec
		for i := 0; i < n; i++ {
			ty := slice.Type(r.Intn(3))
			tmpl := slice.Table1(ty)
			tenants = append(tenants, typedTenant("t", ty,
				(0.2+0.6*r.Float64())*tmpl.RateMbps, 0.1+0.8*r.Float64(),
				float64([]int{1, 4, 16}[r.Intn(3)]), 1+r.Intn(6)))
		}
		kac, err := SolveKAC(paperInstance(tenants, true))
		if err != nil {
			t.Logf("kac: %v", err)
			return false
		}
		if _, err := Verify(paperInstance(tenants, true), kac); err != nil {
			t.Logf("verify: %v", err)
			return false
		}
		direct, err := SolveDirect(paperInstance(tenants, true))
		if err != nil {
			t.Logf("direct: %v", err)
			return false
		}
		return kac.Revenue() <= direct.Revenue()+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestRiskMonotonicity(t *testing.T) {
	// Higher forecast uncertainty ⇒ more conservative overbooking ⇒ lower
	// expected revenue (§4.3.3, third observation).
	rev := func(sigma float64) float64 {
		var tenants []TenantSpec
		for i := 0; i < 4; i++ {
			tenants = append(tenants, embbTenant("e", 25, sigma, 4, 4))
		}
		d, err := SolveDirect(testInstance(tenants, true))
		if err != nil {
			t.Fatal(err)
		}
		return d.Revenue()
	}
	lo, hi := rev(0.05), rev(0.9)
	if !(lo >= hi-1e-9) {
		t.Errorf("revenue with σ̂=0.05 (%v) should be ≥ σ̂=0.9 (%v)", lo, hi)
	}
}

func TestPenaltyMonotonicity(t *testing.T) {
	rev := func(m float64) float64 {
		var tenants []TenantSpec
		for i := 0; i < 4; i++ {
			tenants = append(tenants, embbTenant("e", 25, 0.5, m, 4))
		}
		d, err := SolveDirect(testInstance(tenants, true))
		if err != nil {
			t.Fatal(err)
		}
		return d.Revenue()
	}
	if !(rev(1) >= rev(16)-1e-9) {
		t.Error("higher penalty factor must not increase expected revenue")
	}
}

func TestZeroSigmaRisklessOverbooking(t *testing.T) {
	// With σ̂ → 0 forecasts are certain and the penalty factor becomes
	// irrelevant (§4.3.3, second observation): revenue is identical for
	// m = 1 and m = 16.
	rev := func(m float64) float64 {
		var tenants []TenantSpec
		for i := 0; i < 4; i++ {
			tn := embbTenant("e", 10, 0, m, 4)
			tenants = append(tenants, tn)
		}
		d, err := SolveDirect(testInstance(tenants, true))
		if err != nil {
			t.Fatal(err)
		}
		return d.Revenue()
	}
	// The implementation keeps σ̂ ≥ 1e-4 for numerical stability, so a
	// vanishing residual sensitivity to m remains; 0.5% is the bound.
	if d := math.Abs(rev(1) - rev(16)); d > 0.02 {
		t.Errorf("σ=0 revenue differs across penalties by %v: %v vs %v", d, rev(1), rev(16))
	}
}

func TestVerifyCatchesOverReservation(t *testing.T) {
	inst := testInstance([]TenantSpec{embbTenant("e1", 10, 0.2, 1, 4)}, true)
	d, err := SolveDirect(inst)
	if err != nil {
		t.Fatal(err)
	}
	d.Z[0][0] = 1e6 // corrupt: reserve beyond the SLA
	if _, err := Verify(inst, d); err == nil {
		t.Error("Verify accepted a corrupted decision")
	}
}

func TestEmptyTenants(t *testing.T) {
	inst := testInstance(nil, true)
	d, err := SolveDirect(inst)
	if err != nil {
		t.Fatal(err)
	}
	if d.Obj != 0 || d.Revenue() != 0 {
		t.Error("empty instance must be a zero decision")
	}
	if _, err := SolveKAC(testInstance(nil, true)); err != nil {
		t.Errorf("KAC on empty instance: %v", err)
	}
}
