package lp

import (
	"math"
	"math/rand"
	"testing"
)

// rowEncoded clones p with its variable bounds re-expressed as explicit
// constraint rows — the encoding the solver used before the
// bounded-variable simplex, kept here as the behavioral reference.
func rowEncoded(p *Problem) *Problem {
	q := New()
	for j := 0; j < p.NumVars(); j++ {
		q.AddVar(p.Cost(j))
	}
	for i := 0; i < p.NumRows(); i++ {
		q.AddConstraint(p.RowSense(i), p.RHS(i), p.RowTerms(i)...)
	}
	for j := 0; j < p.NumVars(); j++ {
		lo, up := p.Bounds(j)
		if lo > 0 {
			q.AddConstraint(GE, lo, T(j, 1))
		}
		if !math.IsInf(up, 1) {
			q.AddConstraint(LE, up, T(j, 1))
		}
	}
	return q
}

// buildBoundedProblem makes a random LP with a mix of default, boxed,
// lower-bounded and fixed variables.
func buildBoundedProblem(rng *rand.Rand) *Problem {
	p := New()
	n := 4 + rng.Intn(7)
	m := 3 + rng.Intn(6)
	for j := 0; j < n; j++ {
		p.AddVar(-2 + 4*rng.Float64())
	}
	for i := 0; i < m; i++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.5 {
				terms = append(terms, T(j, -3+6*rng.Float64()))
			}
		}
		if len(terms) == 0 {
			terms = append(terms, T(rng.Intn(n), 1+rng.Float64()))
		}
		sense := LE
		rhs := 1 + 9*rng.Float64()
		switch rng.Intn(10) {
		case 0:
			sense = GE
			rhs = rng.Float64()
		case 1:
			sense = EQ
			rhs = rng.Float64() * 2
		}
		p.AddConstraint(sense, rhs, terms...)
	}
	for j := 0; j < n; j++ {
		switch rng.Intn(10) {
		case 0, 1, 2: // boxed [0, u]
			p.SetBounds(j, 0, 0.5+2*rng.Float64())
		case 3, 4: // boxed [l, u]
			lo := rng.Float64()
			p.SetBounds(j, lo, lo+0.5+2*rng.Float64())
		case 5: // fixed
			v := rng.Float64()
			p.SetBounds(j, v, v)
		case 6: // lower-bounded only
			p.SetBounds(j, rng.Float64(), math.Inf(1))
		default: // default range, but still exercising the bounded paths
			p.SetBounds(j, 0, math.Inf(1))
		}
	}
	return p
}

// checkBoxFarkas asserts ray certifies infeasibility over the variable box:
// Σ ray·rhs exceeds what the bounded columns can absorb.
func checkBoxFarkas(t *testing.T, p *Problem, ray []float64, tag string) {
	t.Helper()
	rb := 0.0
	for i := 0; i < p.NumRows(); i++ {
		f := ray[i]
		switch p.RowSense(i) {
		case LE:
			if f > 1e-6 {
				t.Fatalf("%s: ray[%d]=%g positive on a <= row", tag, i, f)
			}
		case GE:
			if f < -1e-6 {
				t.Fatalf("%s: ray[%d]=%g negative on a >= row", tag, i, f)
			}
		}
		rb += f * p.RHS(i)
	}
	for j := 0; j < p.NumVars(); j++ {
		fa := 0.0
		for i := 0; i < p.NumRows(); i++ {
			for _, tm := range p.RowTerms(i) {
				if tm.Var == j {
					fa += ray[i] * tm.Coef
				}
			}
		}
		lo, up := p.Bounds(j)
		if fa > 1e-6 {
			if math.IsInf(up, 1) {
				t.Fatalf("%s: ray demands var %d above an infinite bound", tag, j)
			}
			rb -= fa * up
		} else if fa < -1e-6 && lo > 0 {
			rb -= fa * lo
		}
	}
	if rb <= 1e-9 {
		t.Fatalf("%s: box-Farkas certificate slack %g not positive", tag, rb)
	}
}

// TestBoundedMatchesRowEncoding drives warm solve chains over randomly
// mutated bounded problems and requires every status, objective and primal
// point to match a cold solve of the row-encoded reference problem.
func TestBoundedMatchesRowEncoding(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5, 17, 42, 99} {
		rng := rand.New(rand.NewSource(seed))
		p := buildBoundedProblem(rng)
		var bs Basis
		for step := 0; step < 40; step++ {
			switch step % 4 {
			case 1: // RHS jiggle (dual simplex territory)
				for i := 0; i < p.NumRows(); i++ {
					if rng.Float64() < 0.4 {
						p.SetRHS(i, p.RHS(i)+(-1+2*rng.Float64()))
					}
				}
			case 2: // bound rewrites: the branch-and-bound access pattern
				for j := 0; j < p.NumVars(); j++ {
					if rng.Float64() < 0.3 {
						switch rng.Intn(3) {
						case 0:
							p.SetBounds(j, 0, 1) // relax to unit box
						case 1:
							v := float64(rng.Intn(2))
							p.SetBounds(j, v, v) // binary-style fixing
						case 2:
							lo := rng.Float64()
							p.SetBounds(j, lo, lo+1+rng.Float64())
						}
					}
				}
			case 3: // cost drift (primal simplex territory)
				for j := 0; j < p.NumVars(); j++ {
					if rng.Float64() < 0.4 {
						p.SetCost(j, p.Cost(j)+(-0.5+rng.Float64()))
					}
				}
			}

			got, gotErr := p.SolveFrom(&bs)
			want, wantErr := rowEncoded(p).Solve()
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("seed %d step %d: err mismatch: %v vs %v", seed, step, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if got.Status != want.Status {
				t.Fatalf("seed %d step %d: status %v, row-encoded %v", seed, step, got.Status, want.Status)
			}
			switch got.Status {
			case Optimal:
				if math.Abs(got.Obj-want.Obj) > 1e-6*(1+math.Abs(want.Obj)) {
					t.Fatalf("seed %d step %d: obj %g vs %g", seed, step, got.Obj, want.Obj)
				}
				for j := range got.X {
					lo, up := p.Bounds(j)
					if got.X[j] < lo-1e-6 || got.X[j] > up+1e-6 {
						t.Fatalf("seed %d step %d: X[%d]=%g outside [%g,%g]", seed, step, j, got.X[j], lo, up)
					}
				}
				// Strong duality over the box: Obj = y·b + Σ_nonbasic d_j·x_j
				// is verified internally; here check primal row feasibility.
				for i := 0; i < p.NumRows(); i++ {
					act := 0.0
					for _, tm := range p.RowTerms(i) {
						act += tm.Coef * got.X[tm.Var]
					}
					switch p.RowSense(i) {
					case LE:
						if act > p.RHS(i)+1e-5 {
							t.Fatalf("seed %d step %d: row %d activity %g > rhs %g", seed, step, i, act, p.RHS(i))
						}
					case GE:
						if act < p.RHS(i)-1e-5 {
							t.Fatalf("seed %d step %d: row %d activity %g < rhs %g", seed, step, i, act, p.RHS(i))
						}
					case EQ:
						if math.Abs(act-p.RHS(i)) > 1e-5 {
							t.Fatalf("seed %d step %d: row %d activity %g != rhs %g", seed, step, i, act, p.RHS(i))
						}
					}
				}
			case Infeasible:
				if got.Ray != nil {
					checkBoxFarkas(t, p, got.Ray, "warm/cold bounded ray")
				}
			}
		}
	}
}

// TestBoundedFixingChainStaysWarm mirrors the branch-and-bound access
// pattern: binaries on a unit box, repeatedly fixed and released, with the
// shared basis re-entered warm. Beyond correctness (checked against the
// row encoding), the chain must not collapse to cold solves every step —
// the whole point of SetBounds-based fixings.
func TestBoundedFixingChainStaysWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := New()
	n := 8
	for j := 0; j < n; j++ {
		p.AddVar(-1 + 2*rng.Float64())
		p.SetBounds(j, 0, 1)
	}
	for i := 0; i < 5; i++ {
		var terms []Term
		for j := 0; j < n; j++ {
			terms = append(terms, T(j, rng.Float64()))
		}
		p.AddConstraint(LE, 1+2*rng.Float64(), terms...)
	}

	var bs Basis
	if _, err := p.SolveFrom(&bs); err != nil {
		t.Fatalf("root solve: %v", err)
	}
	if !bs.Warm(p) {
		t.Fatalf("root solve did not capture a warm basis")
	}
	warm := 0
	for step := 0; step < 60; step++ {
		for j := 0; j < n; j++ {
			p.SetBounds(j, 0, 1)
		}
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.4 {
				v := float64(rng.Intn(2))
				p.SetBounds(j, v, v)
			}
		}
		got, err := p.SolveFrom(&bs)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if bs.eng != nil {
			warm++ // a cold fallback leaves eng nil until the next warm solve
		}
		want, _ := rowEncoded(p).Solve()
		if got.Status != want.Status {
			t.Fatalf("step %d: status %v vs %v", step, got.Status, want.Status)
		}
		if got.Status == Optimal && math.Abs(got.Obj-want.Obj) > 1e-6*(1+math.Abs(want.Obj)) {
			t.Fatalf("step %d: obj %g vs %g", step, got.Obj, want.Obj)
		}
	}
	if warm < 30 {
		t.Fatalf("only %d/60 fixing-chain solves used the warm path; SetBounds fixings should mostly re-enter warm", warm)
	}
}
