package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestSimple2D solves min -x - 2y s.t. x + y <= 4, x <= 3, y <= 2 and
// expects the corner (2, 2).
func TestSimple2D(t *testing.T) {
	p := New()
	x := p.AddVar(-1)
	y := p.AddVar(-2)
	p.AddConstraint(LE, 4, T(x, 1), T(y, 1))
	p.AddConstraint(LE, 3, T(x, 1))
	p.AddConstraint(LE, 2, T(y, 1))

	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	if !almost(s.Obj, -6, 1e-9) {
		t.Errorf("obj = %v, want -6", s.Obj)
	}
	if !almost(s.X[x], 2, 1e-9) || !almost(s.X[y], 2, 1e-9) {
		t.Errorf("x = %v, want (2,2)", s.X)
	}
}

// TestEquality solves with an equality row.
func TestEquality(t *testing.T) {
	p := New()
	x := p.AddVar(1)
	y := p.AddVar(1)
	p.AddConstraint(EQ, 10, T(x, 1), T(y, 1))
	p.AddConstraint(GE, 3, T(x, 1))

	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if !almost(s.Obj, 10, 1e-9) {
		t.Errorf("obj = %v, want 10", s.Obj)
	}
	if s.X[x]+s.X[y] < 10-1e-9 || s.X[x]+s.X[y] > 10+1e-9 {
		t.Errorf("x+y = %v, want 10", s.X[x]+s.X[y])
	}
}

// TestNegativeRHS exercises the row-flip path.
func TestNegativeRHS(t *testing.T) {
	p := New()
	x := p.AddVar(1)
	// -x <= -5  <=>  x >= 5
	p.AddConstraint(LE, -5, T(x, -1))
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !almost(s.Obj, 5, 1e-9) {
		t.Fatalf("got %v obj %v, want optimal 5", s.Status, s.Obj)
	}
}

// TestUnbounded detects an unbounded direction.
func TestUnbounded(t *testing.T) {
	p := New()
	x := p.AddVar(-1)
	y := p.AddVar(0)
	p.AddConstraint(GE, 1, T(x, 1), T(y, 1))
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
}

// TestInfeasibleFarkas checks that infeasible systems yield a valid Farkas
// certificate: ray·rhs > 0 and rayᵀA ≤ 0 columnwise (with sense-consistent
// signs folded in by the solver).
func TestInfeasibleFarkas(t *testing.T) {
	p := New()
	x := p.AddVar(1)
	p.AddConstraint(GE, 5, T(x, 1))
	p.AddConstraint(LE, 3, T(x, 1))

	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
	if s.Ray == nil {
		t.Fatal("no Farkas ray returned")
	}
	checkFarkas(t, p, s.Ray)
}

// checkFarkas validates a Farkas certificate against the problem: the
// aggregated row Σ f_i·a_i must have non-positive coefficients on every
// variable while Σ f_i·rhs_i > 0, with f_i ≤ 0 on ≤ rows and f_i ≥ 0 on
// ≥ rows (equality rows are unsigned) — the same orientation the solver
// uses for duals of a minimization.
func checkFarkas(t *testing.T, p *Problem, ray []float64) {
	t.Helper()
	if len(ray) != p.NumRows() {
		t.Fatalf("ray length %d, want %d", len(ray), p.NumRows())
	}
	agg := make([]float64, p.NumVars())
	rhs := 0.0
	for i := 0; i < p.NumRows(); i++ {
		f := ray[i]
		r := p.rows[i]
		switch r.sense {
		case LE:
			if f > 1e-7 {
				t.Errorf("ray[%d] = %v > 0 on a <= row", i, f)
			}
		case GE:
			if f < -1e-7 {
				t.Errorf("ray[%d] = %v < 0 on a >= row", i, f)
			}
		}
		for _, tm := range r.terms {
			agg[tm.Var] += f * tm.Coef
		}
		rhs += f * r.rhs
	}
	for v, a := range agg {
		if a > 1e-6 {
			t.Errorf("aggregated coefficient on var %d = %v > 0", v, a)
		}
	}
	if rhs <= 1e-9 {
		t.Errorf("ray·rhs = %v, want > 0", rhs)
	}
}

// TestStrongDuality verifies obj == dual·rhs on a non-trivial LP, which is
// the exact property the Benders optimality cuts rely on.
func TestStrongDuality(t *testing.T) {
	p := New()
	x := p.AddVar(3)
	y := p.AddVar(2)
	z := p.AddVar(4)
	p.AddConstraint(GE, 10, T(x, 1), T(y, 1), T(z, 1))
	p.AddConstraint(GE, 6, T(x, 2), T(y, 1))
	p.AddConstraint(LE, 8, T(y, 1), T(z, 1))

	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	dualObj := 0.0
	for i, d := range s.Dual {
		dualObj += d * p.RHS(i)
	}
	if !almost(s.Obj, dualObj, 1e-6) {
		t.Errorf("strong duality violated: primal %v, dual %v", s.Obj, dualObj)
	}
	// Dual sign convention for a minimization: ≥ rows carry non-negative
	// duals, ≤ rows non-positive ones.
	if s.Dual[0] < -1e-9 || s.Dual[1] < -1e-9 {
		t.Errorf("GE duals must be >= 0, got %v", s.Dual)
	}
	if s.Dual[2] > 1e-9 {
		t.Errorf("LE dual must be <= 0, got %v", s.Dual[2])
	}
}

// TestDegenerate exercises ties in the ratio test.
func TestDegenerate(t *testing.T) {
	p := New()
	x := p.AddVar(-1)
	y := p.AddVar(-1)
	p.AddConstraint(LE, 1, T(x, 1))
	p.AddConstraint(LE, 1, T(x, 1)) // duplicate row forces degeneracy
	p.AddConstraint(LE, 1, T(y, 1))
	p.AddConstraint(LE, 2, T(x, 1), T(y, 1))

	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !almost(s.Obj, -2, 1e-9) {
		t.Fatalf("got %v obj %v, want optimal -2", s.Status, s.Obj)
	}
}

// TestRedundantEquality keeps a redundant row (artificial stays basic at 0).
func TestRedundantEquality(t *testing.T) {
	p := New()
	x := p.AddVar(1)
	y := p.AddVar(2)
	p.AddConstraint(EQ, 4, T(x, 1), T(y, 1))
	p.AddConstraint(EQ, 8, T(x, 2), T(y, 2)) // scalar multiple of row 0
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !almost(s.Obj, 4, 1e-9) {
		t.Fatalf("got %v obj %v, want optimal 4 (x=4,y=0)", s.Status, s.Obj)
	}
}

// TestSetRHSReuse re-solves one problem with shifting right-hand sides.
func TestSetRHSReuse(t *testing.T) {
	p := New()
	x := p.AddVar(-1)
	cap := p.AddConstraint(LE, 5, T(x, 1))
	for _, rhs := range []float64{5, 2, 9.5, 0} {
		p.SetRHS(cap, rhs)
		s, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if s.Status != Optimal || !almost(s.Obj, -rhs, 1e-9) {
			t.Fatalf("rhs %v: got %v obj %v", rhs, s.Status, s.Obj)
		}
	}
}

// TestClone ensures clones are independent.
func TestClone(t *testing.T) {
	p := New()
	x := p.AddVar(-1)
	p.AddConstraint(LE, 5, T(x, 1))
	q := p.Clone()
	q.SetRHS(0, 1)
	q.SetCost(x, -2)

	sp, _ := p.Solve()
	sq, _ := q.Solve()
	if !almost(sp.Obj, -5, 1e-9) {
		t.Errorf("original perturbed by clone: %v", sp.Obj)
	}
	if !almost(sq.Obj, -2, 1e-9) {
		t.Errorf("clone obj = %v, want -2", sq.Obj)
	}
}

// TestQuickWeakDuality is a property-based check: for random LPs that are
// feasible by construction, any reported optimum must satisfy primal
// feasibility and strong duality, and infeasible reports must carry a
// verifiable Farkas ray.
func TestQuickWeakDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4)
		m := 2 + r.Intn(5)
		p := New()
		for j := 0; j < n; j++ {
			p.AddVar(r.Float64()*4 - 1)
		}
		// A known feasible point keeps about half the instances feasible.
		point := make([]float64, n)
		for j := range point {
			point[j] = r.Float64() * 3
		}
		for i := 0; i < m; i++ {
			terms := make([]Term, 0, n)
			act := 0.0
			for j := 0; j < n; j++ {
				c := math.Round((r.Float64()*4-2)*4) / 4
				if c != 0 {
					terms = append(terms, T(j, c))
					act += c * point[j]
				}
			}
			if len(terms) == 0 {
				continue
			}
			sense := LE
			rhs := act + r.Float64()*2
			if r.Intn(3) == 0 {
				sense = GE
				rhs = act - r.Float64()*2
			}
			if r.Intn(4) == 0 {
				rhs -= 5 // sometimes force infeasibility
				if sense == GE {
					rhs += 10
				}
			}
			p.AddConstraint(sense, rhs, terms...)
		}
		// Bound the feasible region so unboundedness stays rare but legal.
		for j := 0; j < n; j++ {
			p.AddConstraint(LE, 50, T(j, 1))
		}

		s, err := p.Solve()
		if err != nil {
			return false
		}
		switch s.Status {
		case Optimal:
			// Primal feasibility.
			for i := 0; i < p.NumRows(); i++ {
				act := 0.0
				for _, tm := range p.rows[i].terms {
					act += tm.Coef * s.X[tm.Var]
				}
				switch p.rows[i].sense {
				case LE:
					if act > p.rows[i].rhs+1e-6 {
						return false
					}
				case GE:
					if act < p.rows[i].rhs-1e-6 {
						return false
					}
				case EQ:
					if math.Abs(act-p.rows[i].rhs) > 1e-6 {
						return false
					}
				}
			}
			// Strong duality.
			dualObj := 0.0
			for i, d := range s.Dual {
				dualObj += d * p.RHS(i)
			}
			return almost(s.Obj, dualObj, 1e-5*math.Max(1, math.Abs(s.Obj)))
		case Infeasible:
			rhs := 0.0
			agg := make([]float64, n)
			for i, f := range s.Ray {
				for _, tm := range p.rows[i].terms {
					agg[tm.Var] += f * tm.Coef
				}
				rhs += f * p.rows[i].rhs
			}
			for _, a := range agg {
				if a > 1e-6 {
					return false
				}
			}
			return rhs > 1e-9
		case Unbounded:
			return true
		}
		return false
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestSenseString covers the Stringer implementations.
func TestSenseString(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Error("sense strings wrong")
	}
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" ||
		Unbounded.String() != "unbounded" || IterLimit.String() != "iteration-limit" {
		t.Error("status strings wrong")
	}
	if Sense(9).String() == "" || Status(9).String() == "" {
		t.Error("unknown values must still print")
	}
}

// TestVarAccessors covers trivial accessors.
func TestVarAccessors(t *testing.T) {
	p := New()
	v := p.AddVar(2.5)
	if p.NumVars() != 1 || p.Cost(v) != 2.5 {
		t.Error("accessor mismatch")
	}
	p.SetCost(v, -1)
	if p.Cost(v) != -1 {
		t.Error("SetCost failed")
	}
	i := p.AddConstraint(LE, 3, T(v, 1))
	if p.NumRows() != 1 || p.RHS(i) != 3 {
		t.Error("row accessor mismatch")
	}
}
