package core

import (
	"fmt"
	"testing"

	"repro/internal/slice"
	"repro/internal/topology"
)

// epochSequence mimics the simulator's steady state: the same tenant set
// re-decided over several epochs with drifting forecasts and, midway, one
// tenant becoming committed (a solver-shape change forcing a cold rebuild).
func epochSequence() []*Instance {
	net := topology.Testbed()
	paths := net.Paths(3)
	mk := func(lh1, s1, lh2, s2 float64, committed bool) *Instance {
		t1 := embbTenant("e1", lh1, s1, 1, 6)
		t2 := embbTenant("e2", lh2, s2, 1, 4)
		if committed {
			t1.Committed = true
			t1.CommittedCU = 0
		}
		return &Instance{
			Net: net, Paths: paths,
			Tenants:  []TenantSpec{t1, t2},
			Overbook: true, BigM: DefaultBigM,
		}
	}
	return []*Instance{
		mk(50, 1, 50, 1, false),       // cold start: no history, full-SLA forecasts
		mk(22, 0.4, 31, 0.5, false),   // forecasts arrive (cost + RHS drift only)
		mk(20, 0.3, 28, 0.35, false),  // more drift
		mk(19, 0.25, 27, 0.3, true),   // e1 pinned: shape change, cold rebuild
		mk(18.5, 0.2, 26, 0.25, true), // steady state resumes on the new shape
		mk(18, 0.18, 25, 0.2, true),
	}
}

// pinningSequence is a domain whose Committed flags move while the solver
// shape holds: a URLLC slice's 5 ms bound reaches only CU 0 of the testbed, so
// pinning it there leaves its items as they were. Two URLLC tenants at the
// SLA rate do not fit side by side, the second pays twice the reward, and the
// lower index wins ties — so each epoch after the spike has one right answer
// that a master with last epoch's row (5) senses, or last epoch's incumbent
// taken for feasible, gets wrong.
func pinningSequence() []*Instance {
	net := topology.Testbed()
	paths := net.Paths(3)
	type tn struct {
		lh, sigma, reward float64
		committed         bool
	}
	mk := func(a, b tn) *Instance {
		inst := &Instance{Net: net, Paths: paths, Overbook: true, BigM: DefaultBigM}
		for _, x := range []tn{a, b} {
			u := typedTenant("u", slice.URLLC, x.lh, x.sigma, 1, 4)
			u.SLA.Reward *= x.reward
			u.Committed = x.committed // CommittedCU 0, its only CU
			inst.Tenants = append(inst.Tenants, u)
		}
		return inst
	}
	return []*Instance{
		mk(tn{6, 0.3, 1, false}, tn{6, 0.3, 2, false}),   // cold start: both fit, both admitted
		mk(tn{6, 0.3, 1, true}, tn{6, 0.3, 2, true}),     // both come back committed
		mk(tn{24, 0.9, 1, true}, tn{24, 0.9, 2, true}),   // spike: (13) keeps both, a stale ≤ 1 drops one
		mk(tn{24, 0.9, 1, true}, tn{24, 0.9, 2, false}),  // the second expired, a pending one has its index
		mk(tn{24, 0.9, 1, false}, tn{24, 0.9, 2, false}), // the first expired too: the richer request wins
		mk(tn{24, 0.9, 2, true}, tn{24, 0.9, 3, false}),  // it moves up committed; x̄ = (0, 1) is now infeasible
		mk(tn{23, 0.8, 2, true}, tn{23, 0.8, 3, false}),
	}
}

// TestSessionMatchesFreshSolves is the cross-epoch acceptance gate: a
// session carrying cuts and the slave basis across instances must land on
// the same admission decisions and objective as a fresh SolveBenders (and
// the exact monolithic MILP) on every epoch of the sequence.
func TestSessionMatchesFreshSolves(t *testing.T) {
	t.Run("drift-and-pin", func(t *testing.T) { sessionMatchesFresh(t, epochSequence()) })
	t.Run("pinned-in-place", func(t *testing.T) { sessionMatchesFresh(t, pinningSequence()) })
}

func sessionMatchesFresh(t *testing.T, seq []*Instance) {
	sess := NewBendersSession(BendersOptions{})
	for e, inst := range seq {
		fresh, err := SolveBenders(inst, BendersOptions{})
		if err != nil {
			t.Fatalf("epoch %d fresh: %v", e, err)
		}
		carried, err := sess.Solve(inst)
		if err != nil {
			t.Fatalf("epoch %d session: %v", e, err)
		}
		compareDecisions(t, fmt.Sprintf("epoch %d", e), fresh, carried)
		exact, err := SolveDirect(inst)
		if err != nil {
			t.Fatalf("epoch %d direct: %v", e, err)
		}
		compareDecisions(t, fmt.Sprintf("epoch %d vs direct", e), exact, carried)
		if _, err := Verify(inst, carried); err != nil {
			t.Errorf("epoch %d: session decision infeasible: %v", e, err)
		}
	}
}

// TestSessionCarriesAndDropsCuts pins the pool mechanics: cuts accumulate
// over same-shape epochs, and a shape change (commitment pinning) flushes
// the pool before the cold rebuild.
func TestSessionCarriesAndDropsCuts(t *testing.T) {
	seq := epochSequence()
	sess := NewBendersSession(BendersOptions{})
	if _, err := sess.Solve(seq[0]); err != nil {
		t.Fatal(err)
	}
	afterFirst := sess.CarriedCuts()
	if afterFirst == 0 {
		t.Fatal("first solve pooled no cuts")
	}
	d, err := sess.Solve(seq[1])
	if err != nil {
		t.Fatal(err)
	}
	if sess.CarriedCuts() < afterFirst {
		t.Errorf("same-shape epoch shrank the pool: %d -> %d (want monotone growth modulo expiry)",
			afterFirst, sess.CarriedCuts())
	}
	if d.Iterations <= 0 {
		t.Fatal("no iterations recorded")
	}
	prevPool := sess.CarriedCuts()
	if _, err := sess.Solve(seq[3]); err != nil { // committed: shape change
		t.Fatal(err)
	}
	if sess.CarriedCuts() >= prevPool+afterFirst {
		t.Errorf("shape change did not flush the pool: %d cuts after rebuild", sess.CarriedCuts())
	}
}

// TestSessionFeasibilityCutsCarry drives the session through repeated
// overload epochs (slave infeasible, Farkas rays) to cover ray re-derivation.
func TestSessionFeasibilityCutsCarry(t *testing.T) {
	net := topology.Testbed()
	paths := net.Paths(3)
	mk := func(lh float64) *Instance {
		var ts []TenantSpec
		for i := 0; i < 5; i++ {
			ts = append(ts, typedTenant("m", slice.MMTC, lh, 0.2, 1, 4))
		}
		return &Instance{Net: net, Paths: paths, Tenants: ts, Overbook: true, BigM: 0}
	}
	sess := NewBendersSession(BendersOptions{})
	for e, lh := range []float64{8, 7.5, 7} {
		fresh, err := SolveBenders(mk(lh), BendersOptions{})
		if err != nil {
			t.Fatalf("epoch %d fresh: %v", e, err)
		}
		carried, err := sess.Solve(mk(lh))
		if err != nil {
			t.Fatalf("epoch %d session: %v", e, err)
		}
		compareDecisions(t, "overload-epoch", fresh, carried)
	}
}

// TestSameSolverShape exercises the delta test directly.
func TestSameSolverShape(t *testing.T) {
	seq := epochSequence()
	m0, err := buildModel(seq[0])
	if err != nil {
		t.Fatal(err)
	}
	m1, err := buildModel(seq[1])
	if err != nil {
		t.Fatal(err)
	}
	if !sameSolverShape(m0, m1) {
		t.Error("forecast-only drift must preserve the solver shape")
	}
	m3, err := buildModel(seq[3])
	if err != nil {
		t.Fatal(err)
	}
	if sameSolverShape(m1, m3) {
		t.Error("commitment pinning must change the solver shape")
	}
	// Pinning a tenant to the only CU it reaches moves no item: the shape
	// holds, and sameCommitments is what tells the two epochs apart.
	pin := pinningSequence()
	p0, err := buildModel(pin[0])
	if err != nil {
		t.Fatal(err)
	}
	p1, err := buildModel(pin[1])
	if err != nil {
		t.Fatal(err)
	}
	if !sameSolverShape(p0, p1) || sameCommitments(pin[0], pin[1]) || !sameCommitments(pin[1], pin[2]) {
		t.Error("pinning a single-CU tenant in place must keep the solver shape and change the commitments")
	}
	if sameSolverShape(nil, m1) || sameSolverShape(m1, nil) {
		t.Error("nil models never share a shape")
	}
	// A departed tenant changes the shape.
	short := &Instance{Net: seq[0].Net, Paths: seq[0].Paths,
		Tenants: seq[0].Tenants[:1], Overbook: true, BigM: DefaultBigM}
	ms, err := buildModel(short)
	if err != nil {
		t.Fatal(err)
	}
	if sameSolverShape(m0, ms) {
		t.Error("departure must change the solver shape")
	}
}
