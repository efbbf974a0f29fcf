package lp

import (
	"math"
	"math/rand"
	"testing"
)

// checkAgainstCold solves p both ways — warm from the threaded basis and
// cold on an independent clone — and requires them to agree: same status,
// matching objective, both dual solutions closing strong duality, and a
// valid Farkas certificate on infeasible steps. It is the contract
// SolveFrom promises: only the pivot path may differ.
func checkAgainstCold(t *testing.T, p *Problem, b *Basis, step int) {
	t.Helper()
	warm, err := p.SolveFrom(b)
	if err != nil {
		t.Fatalf("step %d: warm solve: %v", step, err)
	}
	cold, err := p.Clone().Solve()
	if err != nil {
		t.Fatalf("step %d: cold solve: %v", step, err)
	}
	if warm.Status != cold.Status {
		t.Fatalf("step %d: warm status %v, cold status %v", step, warm.Status, cold.Status)
	}
	switch warm.Status {
	case Optimal:
		tol := 1e-6 * (1 + math.Abs(cold.Obj))
		if math.Abs(warm.Obj-cold.Obj) > tol {
			t.Fatalf("step %d: warm obj %v, cold obj %v", step, warm.Obj, cold.Obj)
		}
		for _, s := range []*Solution{warm, cold} {
			dualObj := 0.0
			for i, d := range s.Dual {
				dualObj += d * p.RHS(i)
			}
			if math.Abs(dualObj-s.Obj) > tol {
				t.Fatalf("step %d: strong duality broken: obj %v, dual obj %v", step, s.Obj, dualObj)
			}
		}
		// Warm primal must satisfy every row.
		for i := 0; i < p.NumRows(); i++ {
			act := 0.0
			for _, tm := range p.rows[i].terms {
				act += tm.Coef * warm.X[tm.Var]
			}
			switch p.rows[i].sense {
			case LE:
				if act > p.rows[i].rhs+1e-5 {
					t.Fatalf("step %d: warm X violates row %d: %v > %v", step, i, act, p.rows[i].rhs)
				}
			case GE:
				if act < p.rows[i].rhs-1e-5 {
					t.Fatalf("step %d: warm X violates row %d: %v < %v", step, i, act, p.rows[i].rhs)
				}
			case EQ:
				if math.Abs(act-p.rows[i].rhs) > 1e-5 {
					t.Fatalf("step %d: warm X violates row %d: %v != %v", step, i, act, p.rows[i].rhs)
				}
			}
		}
	case Infeasible:
		if warm.Ray == nil {
			t.Fatalf("step %d: infeasible without a Farkas ray", step)
		}
		checkFarkas(t, p, warm.Ray)
	}
}

// TestWarmStartRHSSequence is the Benders-slave access pattern: one
// structure, a long randomized sequence of RHS rewrites, the basis threaded
// through every solve. Every step must agree with a cold solve, including
// the steps deliberately driven infeasible.
func TestWarmStartRHSSequence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		r := rand.New(rand.NewSource(seed))
		n := 6 + r.Intn(10)
		p := New()
		for j := 0; j < n; j++ {
			p.AddVar(r.Float64()*4 - 2)
		}
		// Capacity-style rows (the slave LP shape) plus a GE row and an EQ
		// row so the marker variety is exercised.
		nRows := n + 2 + r.Intn(6)
		base := make([]float64, 0, nRows+2)
		for i := 0; i < nRows; i++ {
			terms := make([]Term, 0, 4)
			for k := 0; k < 3+r.Intn(3); k++ {
				terms = append(terms, T(r.Intn(n), r.Float64()*2))
			}
			rhs := 2 + r.Float64()*8
			p.AddConstraint(LE, rhs, terms...)
			base = append(base, rhs)
		}
		geRow := p.AddConstraint(GE, 0.1, T(0, 1), T(1%n, 1))
		base = append(base, 0.1)
		eqRow := p.AddConstraint(EQ, 1, T(r.Intn(n), 1), T(r.Intn(n), 0.5))
		base = append(base, 1)
		_ = geRow

		var b Basis
		for step := 0; step < 40; step++ {
			// Random multiplicative jiggle; every 7th step slams a row to an
			// unsatisfiable level to force an infeasible solve in sequence.
			for i, v := range base {
				p.SetRHS(i, v*(0.5+r.Float64()))
			}
			if step%7 == 3 {
				p.SetRHS(eqRow, 100) // EQ demand no LE capacity row tolerates
				p.SetRHS(r.Intn(nRows), -1-r.Float64())
			}
			checkAgainstCold(t, p, &b, step)
		}
	}
}

// TestWarmStartCostChange re-enters from a primal-feasible basis after the
// objective changes (the primal warm-start path).
func TestWarmStartCostChange(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	p := randomLP(30, 30, 11)
	var b Basis
	if _, err := p.SolveFrom(&b); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 25; step++ {
		for j := 0; j < p.NumVars(); j++ {
			if r.Intn(3) == 0 {
				p.SetCost(j, r.Float64()*2-1)
			}
		}
		checkAgainstCold(t, p, &b, step)
	}
}

// TestWarmStartMixedPerturbation interleaves RHS and cost changes, so the
// solver must pick dual re-entry, primal re-entry, or a cold restart per
// step and always land on the cold answer.
func TestWarmStartMixedPerturbation(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	p := randomLP(40, 50, 23)
	var b Basis
	for step := 0; step < 40; step++ {
		switch step % 3 {
		case 0:
			p.SetRHS(r.Intn(p.NumRows()), r.Float64()*8)
		case 1:
			p.SetCost(r.Intn(p.NumVars()), r.Float64()*2-1)
		default:
			p.SetRHS(r.Intn(p.NumRows()), r.Float64()*8)
			p.SetCost(r.Intn(p.NumVars()), r.Float64()*2-1)
		}
		checkAgainstCold(t, p, &b, step)
	}
}

// TestSolveFromNilBasis must behave exactly like Solve.
func TestSolveFromNilBasis(t *testing.T) {
	p := New()
	x := p.AddVar(-1)
	p.AddConstraint(LE, 5, T(x, 1))
	s, err := p.SolveFrom(nil)
	if err != nil || s.Status != Optimal || math.Abs(s.Obj+5) > 1e-9 {
		t.Fatalf("got %v obj %v err %v", s.Status, s.Obj, err)
	}
}

// TestSolveFromStaleShape hands a basis captured on a different problem
// shape; SolveFrom must notice and cold-start rather than misuse it.
func TestSolveFromStaleShape(t *testing.T) {
	p := New()
	x := p.AddVar(-1)
	p.AddConstraint(LE, 5, T(x, 1))
	var b Basis
	if _, err := p.SolveFrom(&b); err != nil {
		t.Fatal(err)
	}

	q := New()
	qx := q.AddVar(-1)
	qy := q.AddVar(-2)
	q.AddConstraint(LE, 4, T(qx, 1), T(qy, 1))
	q.AddConstraint(LE, 2, T(qy, 1))
	s, err := q.SolveFrom(&b) // b has p's shape, not q's
	if err != nil || s.Status != Optimal || math.Abs(s.Obj+6) > 1e-9 {
		t.Fatalf("got %v obj %v err %v", s.Status, s.Obj, err)
	}
	if !b.Warm(q) {
		t.Fatal("cold fallback must recapture the basis for the new shape")
	}
}

// TestBasisReset discards state; the next solve cold-starts and recaptures.
func TestBasisReset(t *testing.T) {
	p := randomLP(20, 20, 3)
	var b Basis
	if _, err := p.SolveFrom(&b); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if b.Warm(p) {
		t.Fatal("reset basis still reports warm")
	}
	s, err := p.SolveFrom(&b)
	if err != nil || s.Status != Optimal {
		t.Fatalf("post-reset solve: %v %v", s.Status, err)
	}
	if !b.Warm(p) {
		t.Fatal("post-reset solve did not recapture the basis")
	}
}

// TestWarmStartPivotSavings is the point of the machinery: across a
// sequence of small RHS perturbations the warm path must pivot far less
// than cold restarts do. Guarded loosely (2x) so numerical jitter cannot
// flake CI, while a broken warm path (falling back cold every step) fails.
func TestWarmStartPivotSavings(t *testing.T) {
	p := randomLP(80, 80, 9)
	var b Basis
	if _, err := p.SolveFrom(&b); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	warmPivots, coldPivots := 0, 0
	for step := 0; step < 20; step++ {
		row := r.Intn(80)
		p.SetRHS(row, math.Max(0.5, p.RHS(row)*(0.9+0.2*r.Float64())))
		ws, err := p.SolveFrom(&b)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := p.Clone().Solve()
		if err != nil {
			t.Fatal(err)
		}
		warmPivots += ws.Pivots
		coldPivots += cs.Pivots
	}
	if warmPivots*2 >= coldPivots {
		t.Errorf("warm start saved too little: %d warm pivots vs %d cold", warmPivots, coldPivots)
	}
}
