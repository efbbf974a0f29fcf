package lp

import (
	"math"
	"math/rand"
	"testing"
)

// solveForced runs SolveFrom with the factorization engine pinned for the
// duration of the call (the engine choice is consulted at refactorization
// time, which can also happen mid-solve when the eta file fills).
func solveForced(t *testing.T, p *Problem, b *Basis, dense bool) *Solution {
	t.Helper()
	DebugForceDenseFactor(dense)
	defer DebugForceDenseFactor(false)
	s, err := p.SolveFrom(b)
	if err != nil {
		t.Fatalf("forced solve (dense=%v): %v", dense, err)
	}
	return s
}

// compareSolutions requires the sparse-LU and dense-inverse engines to have
// produced equivalent Solutions: identical statuses, objectives and vectors
// agreeing to well inside the solver's own verification tolerance, and —
// for infeasible steps — a Farkas ray each that certifies against the same
// check callers run. (The two engines factorize the same basis with
// different arithmetic, so last-bit float equality is not a meaningful
// contract; decision-level bitwise equality is pinned one layer up by the
// scenario/sim determinism tests.)
func compareSolutions(t *testing.T, p *Problem, sparse, dense *Solution, step int) {
	t.Helper()
	if sparse.Status != dense.Status {
		t.Fatalf("step %d: sparse status %v, dense status %v", step, sparse.Status, dense.Status)
	}
	const tol = 1e-6
	switch sparse.Status {
	case Optimal:
		scale := 1 + math.Abs(dense.Obj)
		if math.Abs(sparse.Obj-dense.Obj) > tol*scale {
			t.Fatalf("step %d: sparse obj %v, dense obj %v", step, sparse.Obj, dense.Obj)
		}
		for j := range sparse.X {
			if math.Abs(sparse.X[j]-dense.X[j]) > tol*scale {
				t.Fatalf("step %d: X[%d] sparse %v dense %v", step, j, sparse.X[j], dense.X[j])
			}
		}
		for i := range sparse.Dual {
			if math.Abs(sparse.Dual[i]-dense.Dual[i]) > tol*scale {
				t.Fatalf("step %d: Dual[%d] sparse %v dense %v", step, i, sparse.Dual[i], dense.Dual[i])
			}
		}
	case Infeasible:
		checkFarkas(t, p, sparse.Ray)
		checkFarkas(t, p, dense.Ray)
	}
}

// buildWarmCorpusProblem reproduces the warm_test corpus shape: capacity
// rows plus a GE and an EQ row, so both engines cross every marker variety.
func buildWarmCorpusProblem(seed int64) (*Problem, []float64, int, int) {
	r := rand.New(rand.NewSource(seed))
	n := 6 + r.Intn(10)
	p := New()
	for j := 0; j < n; j++ {
		p.AddVar(r.Float64()*4 - 2)
	}
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
	p.AddConstraint(GE, 0.1, T(0, 1), T(1%n, 1))
	base = append(base, 0.1)
	eqRow := p.AddConstraint(EQ, 1, T(r.Intn(n), 1), T(r.Intn(n), 0.5))
	base = append(base, 1)
	return p, base, nRows, eqRow
}

// TestSparseLUMatchesDenseOnWarmCorpus is the cross-engine property test:
// the sparse-LU engine and the retained dense-inverse engine are driven
// through identical randomized warm-start sequences (the Benders-slave
// access pattern, including deliberately infeasible steps) on identical
// problems, each threading its own Basis, and must agree at every step.
func TestSparseLUMatchesDenseOnWarmCorpus(t *testing.T) {
	defer DebugForceDenseFactor(false)
	for _, seed := range []int64{1, 2, 3, 4, 5, 17, 99} {
		ps, base, nRows, eqRow := buildWarmCorpusProblem(seed)
		pd, _, _, _ := buildWarmCorpusProblem(seed) // identical twin
		r := rand.New(rand.NewSource(seed * 31))
		var bSparse, bDense Basis
		for step := 0; step < 40; step++ {
			for i, v := range base {
				jig := v * (0.5 + r.Float64())
				ps.SetRHS(i, jig)
				pd.SetRHS(i, jig)
			}
			if step%7 == 3 {
				ps.SetRHS(eqRow, 100)
				pd.SetRHS(eqRow, 100)
				row := r.Intn(nRows)
				v := -1 - r.Float64()
				ps.SetRHS(row, v)
				pd.SetRHS(row, v)
			}
			if step%5 == 2 { // cost drift exercises the primal re-entry path
				j := r.Intn(ps.NumVars())
				c := r.Float64()*4 - 2
				ps.SetCost(j, c)
				pd.SetCost(j, c)
			}
			ss := solveForced(t, ps, &bSparse, false)
			ds := solveForced(t, pd, &bDense, true)
			compareSolutions(t, ps, ss, ds, step)
		}
	}
}

// TestSparseLUMatchesDenseOnFTUpdateChains extends the cross-engine
// property test to the Forrest–Tomlin regime: a problem large enough that
// each RHS slam costs real pivot chains, driven far past refactorEvery so
// the sparse engine's FT eta file fills and refactorizes repeatedly, with
// bound rewrites mixed in so bound-flip ratio-test iterations and
// nonbasic-at-bound extraction run under FT updates too. The dense-inverse
// engine is the oracle at every step; the pivot-count assertion guarantees
// the update path (not just fresh factorizations) was exercised.
func TestSparseLUMatchesDenseOnFTUpdateChains(t *testing.T) {
	defer DebugForceDenseFactor(false)
	for _, seed := range []int64{3, 11, 29} {
		ps := randomLP(60, 60, seed)
		pd := randomLP(60, 60, seed) // identical twin
		r := rand.New(rand.NewSource(seed * 17))
		var bSparse, bDense Basis
		totalPivots := 0
		for step := 0; step < 12; step++ {
			// Slam a swath of RHS values so the dual simplex runs a real
			// pivot chain through the FT update machinery.
			for i := 0; i < ps.NumRows(); i++ {
				if r.Float64() < 0.5 {
					v := math.Max(0.2, ps.RHS(i)*(0.3+1.4*r.Float64()))
					ps.SetRHS(i, v)
					pd.SetRHS(i, v)
				}
			}
			// Bound rewrites: boxes and binary-style fixings, the
			// branch-and-bound access pattern layered on the FT chains.
			for j := 0; j < ps.NumVars(); j++ {
				if r.Float64() < 0.15 {
					var lo, up float64
					switch r.Intn(3) {
					case 0:
						lo, up = 0, 1+4*r.Float64()
					case 1:
						lo = float64(r.Intn(2))
						up = lo
					case 2:
						lo, up = 0, math.Inf(1)
					}
					ps.SetBounds(j, lo, up)
					pd.SetBounds(j, lo, up)
				}
			}
			ss := solveForced(t, ps, &bSparse, false)
			ds := solveForced(t, pd, &bDense, true)
			if ss.Status == Infeasible && ds.Status == Infeasible {
				// Bounds are live: the plain Farkas check in
				// compareSolutions does not account for the box, so
				// certify with the box-aware variant instead.
				if ss.Ray != nil {
					checkBoxFarkas(t, ps, ss.Ray, "sparse FT-chain ray")
				}
				if ds.Ray != nil {
					checkBoxFarkas(t, pd, ds.Ray, "dense FT-chain ray")
				}
			} else {
				compareSolutions(t, ps, ss, ds, step)
			}
			totalPivots += ss.Pivots
		}
		if totalPivots <= refactorEvery {
			t.Fatalf("seed %d: corpus too easy: %d total pivots never crossed the FT eta bound %d",
				seed, totalPivots, refactorEvery)
		}
	}
}

// TestSingularBasisFallsBackCold hands the warm path a basis whose column
// set is genuinely singular (the same marker column listed twice); the
// factorization must detect it and the solve must recover via the cold
// path, recapturing a usable basis.
func TestSingularBasisFallsBackCold(t *testing.T) {
	p := randomLP(12, 12, 7)
	var b Basis
	s, err := p.SolveFrom(&b)
	if err != nil || s.Status != Optimal {
		t.Fatalf("seed solve: %v %v", s.Status, err)
	}
	want := s.Obj

	if len(b.cols) < 2 {
		t.Fatal("basis too small for the fixture")
	}
	b.cols[0] = p.NumVars() // marker of row 0
	b.cols[1] = p.NumVars() // the same column again: B is singular
	b.eng = nil

	s, err = p.SolveFrom(&b)
	if err != nil || s.Status != Optimal {
		t.Fatalf("post-corruption solve: %v %v", s.Status, err)
	}
	if math.Abs(s.Obj-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("cold fallback obj %v, want %v", s.Obj, want)
	}
	if !b.Warm(p) {
		t.Fatal("fallback did not recapture the basis")
	}
}

// TestNearSingularPivotRejected drives the factorization into a basis whose
// only pivot candidate is below the singularity threshold; the warm path
// must refuse it (rather than dividing by ~0) and fall back cold.
func TestNearSingularPivotRejected(t *testing.T) {
	p := New()
	x := p.AddVar(-1)
	y := p.AddVar(-1)
	p.AddConstraint(LE, 1, T(x, 1), T(y, 1e-13))
	p.AddConstraint(LE, 1, T(y, 1))
	var b Basis
	s, err := p.SolveFrom(&b)
	if err != nil || s.Status != Optimal {
		t.Fatalf("seed solve: %v %v", s.Status, err)
	}
	// Force the basis to [y (via the 1e-13 row), slack of row 1]: the
	// elimination's only pivot for column y in row 0 is 1e-13 < the
	// singularity threshold.
	b.cols[0] = y
	b.cols[1] = p.NumVars() + 1
	b.eng = nil
	s, err = p.SolveFrom(&b)
	if err != nil || s.Status != Optimal {
		t.Fatalf("near-singular fallback: %v %v", s.Status, err)
	}
	if math.Abs(s.Obj-(-2)) > 1e-6 {
		t.Fatalf("obj %v, want -2", s.Obj)
	}
}

// TestEtaFileRefactorizationPath forces warm solves long enough that the
// bounded eta file fills mid-solve and the engine refactorizes in place,
// then checks the solve still lands exactly where a cold solve does. The
// pivot count assertion guarantees the path was actually exercised.
func TestEtaFileRefactorizationPath(t *testing.T) {
	p := randomLP(100, 100, 13)
	var b Basis
	if _, err := p.SolveFrom(&b); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(13))
	totalPivots := 0
	for step := 0; step < 6; step++ {
		// Slam every RHS at once: the dual simplex has real work to do.
		for i := 0; i < p.NumRows(); i++ {
			p.SetRHS(i, math.Max(0.2, p.RHS(i)*(0.3+1.4*r.Float64())))
		}
		ws, err := p.SolveFrom(&b)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		totalPivots += ws.Pivots
		cold, err := p.Clone().Solve()
		if err != nil {
			t.Fatalf("step %d cold: %v", step, err)
		}
		if ws.Status != cold.Status {
			t.Fatalf("step %d: warm %v cold %v", step, ws.Status, cold.Status)
		}
		if ws.Status == Optimal && math.Abs(ws.Obj-cold.Obj) > 1e-6*(1+math.Abs(cold.Obj)) {
			t.Fatalf("step %d: warm obj %v cold obj %v", step, ws.Obj, cold.Obj)
		}
	}
	if totalPivots <= refactorEvery {
		t.Fatalf("corpus too easy: %d total pivots never crossed the eta bound %d",
			totalPivots, refactorEvery)
	}
}

// TestWarmSteadyStateZeroAllocs pins the tentpole's allocation contract:
// once a Basis has warmed up on a problem structure, the steady-state
// SolveFrom cycle — SetRHS jiggle, dual re-entry, solution extraction,
// verification — performs zero heap allocations. This is the Benders-slave
// access pattern that the admission shards and the reopt controller run at
// load-generator scale. The Basis first goes through the milp.Solver
// pattern — Reset, then a cold solve out of the kept workspace — so the
// cold path's scratch (tableau, pivot gather, bound-row expansion) is part
// of the footprint the pin covers, and the loop reads the factor counters.
func TestWarmSteadyStateZeroAllocs(t *testing.T) {
	p := randomLP(80, 80, 21)
	var b Basis
	for i := 0; i < 2; i++ {
		b.Reset()
		if _, err := p.SolveFrom(&b); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up: populate workspace caches and let grow-amortized storage
	// reach its steady footprint (including one eta-file refactorization).
	for i := 0; i < 200; i++ {
		p.SetRHS(i%p.NumRows(), 1+float64(i%7))
		if _, err := p.SolveFrom(&b); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		i++
		p.SetRHS(i%p.NumRows(), 1+float64(i%7))
		s, err := p.SolveFrom(&b)
		if err != nil || s.Status != Optimal {
			t.Fatalf("steady-state solve: %v %v", s.Status, err)
		}
		if b.FactorStats().Updates == 0 {
			t.Fatal("no factor update counted over a warm chain")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state warm solve allocates %.1f objects/op, want 0", allocs)
	}
}

// TestBoundedWarmSteadyStateZeroAllocs extends the zero-alloc contract to
// the bounded-variable simplex: a branch-and-bound style fixing cycle —
// SetBounds flips between the unit box and binary fixings, warm re-entry,
// extraction with nonbasic-at-bound variables — must not allocate once the
// workspace has reached its steady footprint.
func TestBoundedWarmSteadyStateZeroAllocs(t *testing.T) {
	p := randomLP(60, 60, 5)
	for j := 0; j < 8; j++ {
		p.SetBounds(j, 0, 1)
	}
	var b Basis
	for i := 0; i < 2; i++ { // second pass: cold out of the kept workspace
		b.Reset()
		if _, err := p.SolveFrom(&b); err != nil {
			t.Fatal(err)
		}
	}
	// The exact cycle AllocsPerRun will replay, so every fixing pattern
	// (and any cold fallback it provokes) is already amortized.
	cycle := func(i int) {
		j := i % 8
		switch i % 3 {
		case 0:
			p.SetBounds(j, 0, 1) // relax to the unit box
		case 1:
			p.SetBounds(j, 0, 0) // binary-style fixing at the lower bound
		case 2:
			p.SetBounds(j, 0, 0.5) // tighten the box (bound-flip territory)
		}
		p.SetRHS(i%p.NumRows(), 1+float64(i%7))
		s, err := p.SolveFrom(&b)
		if err != nil || s.Status != Optimal {
			t.Fatalf("bounded steady-state solve: %v %v", s.Status, err)
		}
	}
	for i := 0; i < 240; i++ {
		cycle(i)
	}
	i := 0
	allocs := testing.AllocsPerRun(240, func() {
		cycle(i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("bounded warm solve allocates %.1f objects/op, want 0", allocs)
	}
}

// TestFtranBatchZeroAllocs pins the batched multi-RHS ftran the bound-flip
// update uses: pushing packed RHS vectors through a warm factorization, one
// ftranBatchMax chunk per call as applyFlips does, must not allocate.
func TestFtranBatchZeroAllocs(t *testing.T) {
	p := randomLP(60, 60, 9)
	var b Basis
	if _, err := p.SolveFrom(&b); err != nil {
		t.Fatal(err)
	}
	// The first solve is cold and leaves no engine on the basis; a warm
	// re-entry factorizes it.
	p.SetRHS(0, p.RHS(0)*1.1)
	if _, err := p.SolveFrom(&b); err != nil {
		t.Fatal(err)
	}
	if b.eng == nil {
		t.Fatal("warm re-entry left no factorization on the basis")
	}
	m := p.NumRows()
	k := ftranBatchMax + 3 // two chunks, the second partial
	rhs := make([]float64, k*m)
	out := make([]float64, k*m)
	for i := range rhs {
		rhs[i] = float64(i%13) - 6
	}
	batch := func() {
		for base := 0; base < k; base += ftranBatchMax {
			c := min(k-base, ftranBatchMax)
			b.eng.ftranBatch(rhs[base*m:(base+c)*m], c, out[base*m:(base+c)*m])
		}
	}
	batch()
	allocs := testing.AllocsPerRun(200, batch)
	if allocs != 0 {
		t.Fatalf("batched ftran allocates %.1f objects/op, want 0", allocs)
	}
}
