package milp

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/lp"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestKnapsack solves the classic 0-1 knapsack the AC-RR problem reduces to
// (Theorem 1 in the paper): max value s.t. weight budget.
func TestKnapsack(t *testing.T) {
	values := []float64{10, 13, 7, 8, 2}
	weights := []float64{3, 4, 2, 3, 1}
	budget := 7.0

	p := lp.New()
	var vars []int
	terms := make([]lp.Term, len(values))
	for i := range values {
		v := p.AddVar(-values[i]) // minimize negative value
		vars = append(vars, v)
		terms[i] = lp.T(v, weights[i])
	}
	p.AddConstraint(lp.LE, budget, terms...)

	s, err := Solve(p, vars, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	// Optimum: items 0 and 1 (weight 7, value 23).
	if !almost(s.Obj, -23, 1e-6) {
		t.Errorf("obj = %v, want -23", s.Obj)
	}
	for _, v := range vars {
		x := s.X[v]
		if !almost(x, 0, 1e-9) && !almost(x, 1, 1e-9) {
			t.Errorf("non-integral solution value %v", x)
		}
	}
}

// TestInfeasibleBinary detects binary infeasibility.
func TestInfeasibleBinary(t *testing.T) {
	p := lp.New()
	x := p.AddVar(1)
	y := p.AddVar(1)
	p.AddConstraint(lp.GE, 3, lp.T(x, 1), lp.T(y, 1)) // needs x+y >= 3, but both <= 1
	s, err := Solve(p, []int{x, y}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

// TestMixedIntegerContinuous couples one binary with a continuous variable,
// the same shape as the AC-RR coupling constraints z <= Λx.
func TestMixedIntegerContinuous(t *testing.T) {
	p := lp.New()
	x := p.AddVar(5)                                   // fixed cost when the slice is admitted
	z := p.AddVar(-3)                                  // per-unit reward of reservation
	p.AddConstraint(lp.LE, 0, lp.T(z, 1), lp.T(x, -4)) // z <= 4x
	p.AddConstraint(lp.LE, 4, lp.T(z, 1))

	s, err := Solve(p, []int{x}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Accepting (x=1) costs 5 but earns 12 via z=4: obj = 5 - 12 = -7.
	if s.Status != Optimal || !almost(s.Obj, -7, 1e-6) {
		t.Fatalf("got %v obj %v, want optimal -7", s.Status, s.Obj)
	}
	if !almost(s.X[x], 1, 1e-9) || !almost(s.X[z], 4, 1e-6) {
		t.Errorf("solution %v, want x=1 z=4", s.X)
	}
}

// TestRejectWhenUnprofitable keeps the binary at zero when the fixed cost
// dominates.
func TestRejectWhenUnprofitable(t *testing.T) {
	p := lp.New()
	x := p.AddVar(5)
	z := p.AddVar(-3)
	p.AddConstraint(lp.LE, 0, lp.T(z, 1), lp.T(x, -1)) // z <= x: reward at most 3
	s, err := Solve(p, []int{x}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !almost(s.Obj, 0, 1e-9) {
		t.Fatalf("got %v obj %v, want optimal 0 (reject)", s.Status, s.Obj)
	}
}

// TestNodeLimit returns the incumbent (or ErrNoIncumbent) when truncated.
func TestNodeLimit(t *testing.T) {
	p := lp.New()
	var vars []int
	var terms []lp.Term
	for i := 0; i < 12; i++ {
		v := p.AddVar(-float64(1 + i%3))
		vars = append(vars, v)
		terms = append(terms, lp.T(v, float64(1+(i*7)%5)))
	}
	p.AddConstraint(lp.LE, 11.5, terms...)

	s, err := Solve(p, vars, Options{MaxNodes: 1})
	if err != nil && err != ErrNoIncumbent {
		t.Fatal(err)
	}
	if s.Status != NodeLimit && s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
}

// TestQuickAgainstBruteForce cross-checks branch-and-bound against
// exhaustive enumeration on random small knapsack-style MILPs. This is the
// core correctness property the Benders master solve depends on.
func TestQuickAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5) // binaries
		m := 1 + r.Intn(3) // capacity rows
		val := make([]float64, n)
		w := make([][]float64, m)
		cap := make([]float64, m)
		for j := range val {
			val[j] = math.Round(r.Float64()*20*4) / 4
		}
		for i := range w {
			w[i] = make([]float64, n)
			tot := 0.0
			for j := range w[i] {
				w[i][j] = math.Round(r.Float64()*10*4) / 4
				tot += w[i][j]
			}
			cap[i] = math.Round(tot*r.Float64()*4) / 4
		}

		p := lp.New()
		var vars []int
		for j := 0; j < n; j++ {
			vars = append(vars, p.AddVar(-val[j]))
		}
		for i := 0; i < m; i++ {
			terms := make([]lp.Term, n)
			for j := 0; j < n; j++ {
				terms[j] = lp.T(vars[j], w[i][j])
			}
			p.AddConstraint(lp.LE, cap[i], terms...)
		}
		s, err := Solve(p, vars, Options{})
		if err != nil || s.Status != Optimal {
			return false
		}

		// Brute force.
		best := math.Inf(1)
		for mask := 0; mask < 1<<n; mask++ {
			obj := 0.0
			ok := true
			for i := 0; i < m && ok; i++ {
				used := 0.0
				for j := 0; j < n; j++ {
					if mask&(1<<j) != 0 {
						used += w[i][j]
					}
				}
				ok = used <= cap[i]+1e-9
			}
			if !ok {
				continue
			}
			for j := 0; j < n; j++ {
				if mask&(1<<j) != 0 {
					obj -= val[j]
				}
			}
			if obj < best {
				best = obj
			}
		}
		return almost(s.Obj, best, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}

// TestStatusString covers the Stringer.
func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible",
		NodeLimit: "node-limit", Unbounded: "unbounded",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if Status(42).String() == "" {
		t.Error("unknown status must print")
	}
}

// growingMaster is a Benders-master-shaped MILP: n binaries in groups of
// four under at-most-one rows, chained by "same choice" rows, with a
// continuous θ bounded below by cuts. addCut appends one more cut row, the
// way every Benders iteration does.
func growingMaster(n int) (p *lp.Problem, bins []int, addCut func()) {
	rng := rand.New(rand.NewSource(7))
	p = lp.New()
	for j := 0; j < n; j++ {
		bins = append(bins, p.AddVar(-1-rng.Float64()))
	}
	theta := p.AddVar(1)
	for g := 0; g+4 <= n; g += 4 {
		p.AddConstraint(lp.LE, 1, lp.T(g, 1), lp.T(g+1, 1), lp.T(g+2, 1), lp.T(g+3, 1))
		if g+8 <= n {
			p.AddConstraint(lp.LE, 0, lp.T(g, 1), lp.T(g+4, -1))
			p.AddConstraint(lp.LE, 0, lp.T(g+1, 1), lp.T(g+5, -1))
		}
	}
	addCut = func() {
		terms := []lp.Term{lp.T(theta, 1)}
		for j := 0; j < n; j += 1 + rng.Intn(6) {
			terms = append(terms, lp.T(j, -0.01*rng.Float64()))
		}
		p.AddConstraint(lp.GE, 1+rng.Float64(), terms...)
	}
	addCut()
	return p, bins, addCut
}

// TestSolverReusesWorkspaceAcrossGrowingMasters pins the cold path's
// allocation contract: a Solver re-solving a master that gains one cut row
// per call pays for the LP workspace — above all the root relaxation's dense
// tableau — and for its clone of the caller's problem and that clone's
// presolve, once. Every later call must allocate under 1 % of the first
// call's bytes (what remains is the search's bookkeeping and the returned
// solution; the per-call clone and presolve alone were 3 %), which exact-fit
// buffer sizing would fail on every call because each master is one row
// larger than the last. Solutions must equal a one-shot Solve's: the kept
// workspace carries memory, never state.
func TestSolverReusesWorkspaceAcrossGrowingMasters(t *testing.T) {
	p, bins, addCut := growingMaster(480)
	var solver Solver
	var ms runtime.MemStats
	var first uint64
	for call := 0; call < 10; call++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		got, err := solver.Solve(p, bins, Options{})
		runtime.ReadMemStats(&ms)
		bytes := ms.TotalAlloc - before
		t.Logf("call %d: %d bytes, %d nodes", call, bytes, got.Nodes)
		if err != nil || got.Status != Optimal {
			t.Fatalf("call %d: %v %v", call, got.Status, err)
		}
		if call == 0 {
			first = bytes
		} else if bytes*100 >= first {
			t.Errorf("call %d allocated %d bytes, want < 1%% of the first call's %d", call, bytes, first)
		}
		want, err := Solve(p, bins, Options{})
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: reused solver returned %+v, one-shot %+v (%v)", call, got, want, err)
		}
		addCut()
	}
}
