package lp

import (
	"math/rand"
	"testing"
)

// randomLP builds a dense feasible minimization with n variables and m
// rows, the shape the AC-RR slave problems take.
func randomLP(n, m int, seed int64) *Problem {
	r := rand.New(rand.NewSource(seed))
	p := New()
	point := make([]float64, n)
	for j := 0; j < n; j++ {
		p.AddVar(r.Float64()*2 - 1)
		point[j] = r.Float64() * 5
	}
	for i := 0; i < m; i++ {
		terms := make([]Term, 0, 8)
		act := 0.0
		for k := 0; k < 8; k++ {
			j := r.Intn(n)
			c := r.Float64()*2 - 0.5
			terms = append(terms, T(j, c))
			act += c * point[j]
		}
		p.AddConstraint(LE, act+r.Float64()*3, terms...)
	}
	for j := 0; j < n; j++ {
		p.AddConstraint(LE, 10, T(j, 1))
	}
	return p
}

func benchSolve(b *testing.B, n, m int) {
	p := randomLP(n, m, 1)
	for b.Loop() {
		s, err := p.Solve()
		if err != nil || s.Status == IterLimit {
			b.Fatalf("status %v err %v", s.Status, err)
		}
	}
}

func BenchmarkSolve50x50(b *testing.B)   { benchSolve(b, 50, 50) }
func BenchmarkSolve200x200(b *testing.B) { benchSolve(b, 200, 200) }
func BenchmarkSolve400x400(b *testing.B) { benchSolve(b, 400, 400) }

// BenchmarkResolveRHS measures the warm path the Benders slave exercises:
// one structural build, many right-hand-side rewrites. The Cold variant
// re-runs the two-phase tableau per rewrite; the Warm variant threads a
// Basis through SolveFrom so each rewrite costs a few dual simplex pivots.
// pivots/op is reported so the iteration-count saving is visible in CI
// output next to the wall-clock one.
func benchResolveRHS(b *testing.B, warm bool) {
	p := randomLP(100, 100, 2)
	var basis Basis
	pivots := 0
	for i := 0; b.Loop(); i++ {
		p.SetRHS(i%100, float64(1+i%7))
		var s *Solution
		var err error
		if warm {
			s, err = p.SolveFrom(&basis)
		} else {
			s, err = p.Solve()
		}
		if err != nil {
			b.Fatal(err)
		}
		pivots += s.Pivots
	}
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
}

func BenchmarkColdSimplexResolveRHS(b *testing.B) { benchResolveRHS(b, false) }
func BenchmarkWarmSimplexResolveRHS(b *testing.B) { benchResolveRHS(b, true) }

// BenchmarkWarmSlaveSteadySolve measures the steady-state warm solve the
// Benders slave runs every admission round: the problem structure, basis
// factorization and workspace are already warm, each op rewrites one RHS
// and re-enters via SolveFrom. ReportAllocs shows the contract — 0
// allocs/op on this path — which TestWarmSteadyStateZeroAllocs asserts.
func BenchmarkWarmSlaveSteadySolve(b *testing.B) {
	p := randomLP(100, 100, 2)
	var basis Basis
	if _, err := p.SolveFrom(&basis); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200; i++ { // reach the steady amortized footprint
		p.SetRHS(i%100, float64(1+i%7))
		if _, err := p.SolveFrom(&basis); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		p.SetRHS(i%100, float64(1+i%7))
		s, err := p.SolveFrom(&basis)
		if err != nil || s.Status != Optimal {
			b.Fatalf("status %v err %v", s.Status, err)
		}
	}
}
