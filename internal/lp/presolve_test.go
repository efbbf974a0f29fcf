package lp

import (
	"math"
	"math/rand"
	"testing"
)

// presolveProblem builds a random bounded problem and salts it with the row
// shapes presolve targets: singletons, empties and box-redundant rows.
func presolveProblem(rng *rand.Rand) *Problem {
	p := buildBoundedProblem(rng)
	n := p.NumVars()
	for k := 0; k < 3; k++ {
		switch rng.Intn(4) {
		case 0: // singleton upper
			p.AddConstraint(LE, 0.5+2*rng.Float64(), T(rng.Intn(n), 0.5+rng.Float64()))
		case 1: // singleton lower
			p.AddConstraint(GE, rng.Float64(), T(rng.Intn(n), 0.5+rng.Float64()))
		case 2: // redundant under any box: positive coefs, huge rhs
			var terms []Term
			for j := 0; j < n; j++ {
				terms = append(terms, T(j, rng.Float64()))
			}
			p.AddConstraint(LE, 1e6, terms...)
		case 3: // trivially satisfied empty-ish row
			p.AddConstraint(GE, -1, T(rng.Intn(n), 0))
		}
	}
	return p
}

// solveVia solves p through presolve+postsolve.
func solveVia(t *testing.T, p *Problem) *Solution {
	t.Helper()
	ps := Presolve(p)
	if ps.Decided {
		return ps.Postsolve(nil)
	}
	red, err := ps.Reduced.Solve()
	if err != nil {
		t.Fatalf("reduced solve: %v", err)
	}
	return ps.Postsolve(red)
}

// TestPresolveMatchesDirect requires the presolve→solve→postsolve pipeline
// to agree with a direct solve on status, objective and feasibility across
// randomized instances.
func TestPresolveMatchesDirect(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5, 11, 23, 42, 77, 99} {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 20; trial++ {
			p := presolveProblem(rng)
			want, wantErr := p.Solve()
			if wantErr != nil {
				continue // iteration-limit pathologies are out of scope here
			}
			got := solveVia(t, p)
			if got.Status != want.Status {
				t.Fatalf("seed %d trial %d: status %v via presolve, %v direct", seed, trial, got.Status, want.Status)
			}
			if got.Status != Optimal {
				continue
			}
			if math.Abs(got.Obj-want.Obj) > 1e-6*(1+math.Abs(want.Obj)) {
				t.Fatalf("seed %d trial %d: obj %g via presolve, %g direct", seed, trial, got.Obj, want.Obj)
			}
			if len(got.X) != p.NumVars() {
				t.Fatalf("seed %d trial %d: X has %d entries, want %d", seed, trial, len(got.X), p.NumVars())
			}
			for j := range got.X {
				lo, up := p.Bounds(j)
				if got.X[j] < lo-1e-6 || got.X[j] > up+1e-6 {
					t.Fatalf("seed %d trial %d: X[%d]=%g outside [%g,%g]", seed, trial, j, got.X[j], lo, up)
				}
			}
			for i := 0; i < p.NumRows(); i++ {
				act := 0.0
				for _, tm := range p.RowTerms(i) {
					act += tm.Coef * got.X[tm.Var]
				}
				rhs := p.RHS(i)
				switch p.RowSense(i) {
				case LE:
					if act > rhs+1e-5 {
						t.Fatalf("seed %d trial %d: row %d activity %g > rhs %g", seed, trial, i, act, rhs)
					}
				case GE:
					if act < rhs-1e-5 {
						t.Fatalf("seed %d trial %d: row %d activity %g < rhs %g", seed, trial, i, act, rhs)
					}
				case EQ:
					if math.Abs(act-rhs) > 1e-5 {
						t.Fatalf("seed %d trial %d: row %d activity %g != rhs %g", seed, trial, i, act, rhs)
					}
				}
			}
		}
	}
}

// TestPresolveFixingChainDecides drives a chain of EQ singletons that fixes
// every variable; presolve must settle the whole problem without a solve.
func TestPresolveFixingChainDecides(t *testing.T) {
	p := New()
	for j := 0; j < 6; j++ {
		p.AddVar(float64(j + 1))
	}
	for j := 0; j < 6; j++ {
		p.AddConstraint(EQ, float64(j), T(j, 2)) // x_j = j/2
	}
	// A coupling row that the fixings satisfy.
	p.AddConstraint(LE, 100, T(0, 1), T(1, 1), T(2, 1), T(3, 1), T(4, 1), T(5, 1))

	ps := Presolve(p)
	if !ps.Decided || ps.Status != Optimal {
		t.Fatalf("expected Decided/Optimal, got decided=%v status=%v", ps.Decided, ps.Status)
	}
	sol := ps.Postsolve(nil)
	wantObj := 0.0
	for j := 0; j < 6; j++ {
		wantObj += float64(j+1) * float64(j) / 2
	}
	if math.Abs(sol.Obj-wantObj) > 1e-9 {
		t.Fatalf("trivial obj %g, want %g", sol.Obj, wantObj)
	}
	for j := 0; j < 6; j++ {
		if math.Abs(sol.X[j]-float64(j)/2) > 1e-9 {
			t.Fatalf("X[%d]=%g, want %g", j, sol.X[j], float64(j)/2)
		}
	}
	direct, err := p.Solve()
	if err != nil || direct.Status != Optimal {
		t.Fatalf("direct solve: %v %v", direct.Status, err)
	}
	if math.Abs(direct.Obj-sol.Obj) > 1e-6 {
		t.Fatalf("presolve obj %g, direct %g", sol.Obj, direct.Obj)
	}
}

// TestPresolveDetectsInfeasibility covers the outright-infeasible shapes:
// violated empty rows and contradictory singleton bounds.
func TestPresolveDetectsInfeasibility(t *testing.T) {
	cases := []func() *Problem{
		func() *Problem { // empty GE row demanding positive activity
			p := New()
			p.AddVar(1)
			p.AddConstraint(GE, 5)
			return p
		},
		func() *Problem { // x <= 1 vs x >= 2
			p := New()
			p.AddVar(1)
			p.AddConstraint(LE, 1, T(0, 1))
			p.AddConstraint(GE, 2, T(0, 1))
			return p
		},
		func() *Problem { // EQ singleton outside the variable's box
			p := New()
			p.AddVar(1)
			p.SetBounds(0, 0, 1)
			p.AddConstraint(EQ, 3, T(0, 1))
			return p
		},
		func() *Problem { // activity bound: unit box cannot reach the rhs
			p := New()
			for j := 0; j < 3; j++ {
				p.AddVar(1)
				p.SetBounds(j, 0, 1)
			}
			p.AddConstraint(GE, 5, T(0, 1), T(1, 1), T(2, 1))
			return p
		},
	}
	for k, mk := range cases {
		p := mk()
		ps := Presolve(p)
		if !ps.Decided || ps.Status != Infeasible {
			t.Fatalf("case %d: expected Decided/Infeasible, got decided=%v status=%v", k, ps.Decided, ps.Status)
		}
		direct, err := p.Solve()
		if err != nil {
			t.Fatalf("case %d: direct solve: %v", k, err)
		}
		if direct.Status != Infeasible {
			t.Fatalf("case %d: direct status %v, presolve said infeasible", k, direct.Status)
		}
	}
}

// TestPresolveReduces asserts the pass actually removes the structures it
// is built for, and that the reduction is deterministic.
func TestPresolveReduces(t *testing.T) {
	p := New()
	for j := 0; j < 5; j++ {
		p.AddVar(1)
		p.SetBounds(j, 0, 1)
	}
	p.AddConstraint(EQ, 1, T(0, 2))                    // fixes x0 = 0.5
	p.AddConstraint(LE, 0.25, T(1, 1))                 // tightens x1
	p.AddConstraint(LE, 50, T(0, 1), T(1, 1), T(2, 1)) // redundant over boxes
	p.AddConstraint(GE, -1, T(3, 1))                   // redundant (lo=0 ≥ -1)
	p.AddConstraint(LE, 2, T(2, 1), T(3, 1), T(4, 1))  // kept
	p.AddConstraint(GE, 0.5, T(2, 1), T(3, 1))         // kept
	ps := Presolve(p)
	if ps.Decided {
		t.Fatalf("unexpectedly decided: %v", ps.Status)
	}
	vr, rr := ps.Stats()
	if vr < 1 {
		t.Fatalf("expected at least one fixed variable, removed %d", vr)
	}
	if rr < 4 {
		t.Fatalf("expected >= 4 dropped rows (EQ singleton, LE singleton, 2 redundant), removed %d", rr)
	}
	if got := ps.Reduced.NumRows(); got != p.NumRows()-rr {
		t.Fatalf("reduced rows %d vs %d-%d", got, p.NumRows(), rr)
	}

	ps2 := Presolve(p)
	for j := range ps.colMap {
		if ps.colMap[j] != ps2.colMap[j] {
			t.Fatalf("colMap not deterministic at %d: %d vs %d", j, ps.colMap[j], ps2.colMap[j])
		}
	}
	for i := range ps.rowMap {
		if ps.rowMap[i] != ps2.rowMap[i] {
			t.Fatalf("rowMap not deterministic at %d: %d vs %d", i, ps.rowMap[i], ps2.rowMap[i])
		}
	}

	red, err := ps.Reduced.Solve()
	if err != nil {
		t.Fatalf("reduced solve: %v", err)
	}
	got := ps.Postsolve(red)
	want, err := p.Solve()
	if err != nil {
		t.Fatalf("direct solve: %v", err)
	}
	if got.Status != want.Status || math.Abs(got.Obj-want.Obj) > 1e-6 {
		t.Fatalf("presolve %v/%g vs direct %v/%g", got.Status, got.Obj, want.Status, want.Obj)
	}
}
