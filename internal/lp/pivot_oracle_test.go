package lp

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"
)

// pivotDense is the pivot kernel as it was before the sparse gather: scale
// the pivot row, then update every entry of every row with a non-zero
// multiplier. It is the abstract specification the production kernel must
// refine (Derrick, North & Simons, PAPERS.md): the same entering and leaving
// choices at every step, the same bits in every non-zero value.
//
// The one difference between the two is the sign of a zero inside the
// tableau. Here a stored −0 becomes +0 whenever f·rowL[j] is −0
// (−0 − (−0) = +0), while the gather never visits the entry and leaves −0.
// IEEE 754 makes that invisible to every later step — ±0 compare equal, add
// as the identity and multiply to a zero — so no pivot choice can see it.
// Nor can a caller: X is read off the rhs column, which both kernels update
// at every step, and Dual/Ray off marker reduced costs that recomputeObjRow
// has just rebuilt from +0 costs (+0 − ±0 = +0 under either kernel). The
// test below therefore demands identical bits, signed zeros included, of
// everything a Solution carries; no golden or ledger line can tell the
// kernels apart.
func pivotDense(t *tableau, leave, enter int) {
	t.pivots++
	rowL := t.row(leave)
	inv := 1 / rowL[enter]
	for j := 0; j <= t.width; j++ {
		rowL[j] *= inv
	}
	for i := 0; i < t.m; i++ {
		if i == leave {
			continue
		}
		ri := t.row(i)
		f := ri[enter]
		if f == 0 {
			continue
		}
		for j := 0; j <= t.width; j++ {
			ri[j] -= f * rowL[j]
		}
		ri[enter] = 0
	}
	f := t.obj[enter]
	if f != 0 {
		for j := 0; j <= t.width; j++ {
			t.obj[j] -= f * rowL[j]
		}
		t.obj[enter] = 0
	}
	t.basis[leave] = enter
}

// coldSolveWith is solveCold with the pivot kernel as a parameter: the same
// two phases, iteration budget, Bland switch and periodic reduced-cost
// refresh. TestSparsePivotRefinesDense first requires it to reproduce
// Problem.Solve exactly when handed the production kernel, so the copy
// cannot drift from the driver it mirrors.
func coldSolveWith(p *Problem, pivot func(t *tableau, leave, enter int)) (*Solution, error) {
	cs := new(coldScratch)
	m := len(p.rows)
	q := p
	if p.bounded() {
		q = cs.expandBounds(p)
	}
	t := newTableau(q, cs)
	sol := &Solution{}

	iterate := func(phase1 bool) Status {
		maxPivots := 200 * (t.m + t.width + 10)
		blandAfter := 20 * (t.m + t.width + 10)
		for iter := 0; ; iter++ {
			if iter >= maxPivots {
				return IterLimit
			}
			if iter > 0 && iter%256 == 0 {
				t.recomputeObjRow()
			}
			enter := t.chooseEntering(phase1, iter >= blandAfter)
			if enter < 0 {
				return Optimal
			}
			leave := t.chooseLeaving(enter)
			if leave < 0 {
				return Unbounded
			}
			pivot(t, leave, enter)
		}
	}

	status := iterate(true)
	sol.Pivots += t.pivots
	if status == IterLimit {
		sol.Status = IterLimit
		return sol, ErrIterLimit
	}
	if t.phase1Obj() > feasTol {
		sol.Status = Infeasible
		t.recomputeObjRow()
		sol.Ray = t.farkasRay()[:m]
		return sol, nil
	}
	for i := 0; i < t.m; i++ { // pivotOutArtificials
		if t.basis[i] < t.width {
			continue
		}
		for j := 0; j < t.width; j++ {
			if j >= t.n && t.eqMarker[j-t.n] {
				continue
			}
			if math.Abs(t.a[i*t.w1+j]) > 1e-7 {
				pivot(t, i, j)
				break
			}
		}
	}
	t.loadPhase2Costs()
	status = iterate(false)
	sol.Pivots += t.pivots
	switch status {
	case IterLimit:
		sol.Status = IterLimit
		return sol, ErrIterLimit
	case Unbounded:
		sol.Status = Unbounded
		return sol, nil
	}
	sol.Status = Optimal
	sol.X = t.primal()
	sol.Obj = t.objective()
	t.recomputeObjRow()
	sol.Dual = t.duals()[:m]
	return sol, nil
}

// sameSolution reports bit-for-bit equality of everything two cold solves
// returned.
func sameSolution(a, b *Solution) bool {
	sameBits := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	return a.Status == b.Status && a.Pivots == b.Pivots &&
		math.Float64bits(a.Obj) == math.Float64bits(b.Obj) &&
		sameBits(a.X, b.X) && sameBits(a.Dual, b.Dual) && sameBits(a.Ray, b.Ray)
}

// oracleLP builds a random sparse LP with mixed senses and negative
// right-hand sides (so phase 1 has work), free-above variables with negative
// costs (so some are unbounded) and, when bounded, a mix of boxes, shifted
// boxes and fixings (so the bound-row expansion is exercised).
func oracleLP(rng *rand.Rand, bounded bool) *Problem {
	p := New()
	n := 3 + rng.Intn(40)
	m := 2 + rng.Intn(40)
	for j := 0; j < n; j++ {
		p.AddVar(-1 + 3*rng.Float64())
	}
	for i := 0; i < m; i++ {
		var terms []Term
		for k, nt := 0, 1+rng.Intn(5); k < nt; k++ {
			terms = append(terms, T(rng.Intn(n), float64(rng.Intn(9)-4)+rng.Float64()))
		}
		sense, rhs := LE, 10*rng.Float64()
		switch rng.Intn(8) {
		case 0:
			sense = GE
		case 1:
			sense = EQ
		case 2:
			rhs = -rhs
		}
		p.AddConstraint(sense, rhs, terms...)
	}
	if bounded {
		for j := 0; j < n; j++ {
			switch rng.Intn(6) {
			case 0, 1:
				p.SetBounds(j, 0, 1)
			case 2:
				lo := rng.Float64()
				p.SetBounds(j, lo, lo+2*rng.Float64())
			case 3:
				p.SetBounds(j, 1, 1)
			}
		}
	}
	return p
}

// loadRecordedLP reads an LP recorded from a live solve: testdata/
// metro_master.json is the reduced root relaxation (after presolve) of the
// ninth and last Benders master of BenchmarkMetroPodCold — 289 columns, 392
// rows, 288 of the columns boxed, so its cold solve runs on a 680-row
// bound-row expansion whose pivot rows are the 2 %-dense case the sparse
// kernel exists for. testdata/churn_master.json is a Benders master node LP
// of arrival-churn (seed 1) that the cold path gets wrong (see
// TestColdOptimaInfeasibleCounted).
func loadRecordedLP(t *testing.T, path string) *Problem {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Cost, Lo, Up []float64 // Up < 0 encodes +Inf
		Rows         []struct {
			S Sense
			B float64
			T [][2]float64 // (variable, coefficient)
		}
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	p := New()
	for _, c := range rec.Cost {
		p.AddVar(c)
	}
	for j := range rec.Cost {
		up := rec.Up[j]
		if up < 0 {
			up = math.Inf(1)
		}
		if rec.Lo[j] != 0 || !math.IsInf(up, 1) {
			p.SetBounds(j, rec.Lo[j], up)
		}
	}
	for _, r := range rec.Rows {
		terms := make([]Term, len(r.T))
		for k, tm := range r.T {
			terms[k] = T(int(tm[0]), tm[1])
		}
		p.AddConstraint(r.S, r.B, terms...)
	}
	return p
}

// TestSparsePivotRefinesDense is the refinement check behind the sparse
// pivot kernel: over random bounded and bound-free LPs and one recorded
// metro master, a cold solve with the production kernel and one with the
// dense reference kernel must end in the same Status after the same number
// of pivots with every X, Dual and Ray entry (and Obj) equal bit for bit.
// Equal pivot counts over thousands of degenerate, tie-ridden
// steps mean equal entering/leaving choices throughout.
func TestSparsePivotRefinesDense(t *testing.T) {
	check := func(tag string, p *Problem) Status {
		t.Helper()
		prod, prodErr := p.Solve()
		sparse, sparseErr := coldSolveWith(p, (*tableau).pivot)
		if prodErr != sparseErr || !sameSolution(prod, sparse) {
			t.Fatalf("%s: test driver drifted from Problem.Solve:\n solve  %+v (%v)\n driver %+v (%v)",
				tag, prod, prodErr, sparse, sparseErr)
		}
		dense, denseErr := coldSolveWith(p, pivotDense)
		if sparseErr != denseErr || !sameSolution(sparse, dense) {
			t.Fatalf("%s: sparse kernel does not refine the dense one:\n sparse %+v (%v)\n dense  %+v (%v)",
				tag, sparse, sparseErr, dense, denseErr)
		}
		return sparse.Status
	}

	seen := map[Status]int{}
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 400; trial++ {
		seen[check("random", oracleLP(rng, trial%2 == 1))]++
	}
	for trial := 0; trial < 100; trial++ {
		seen[check("small bounded", buildBoundedProblem(rng))]++
	}
	for _, st := range []Status{Optimal, Infeasible, Unbounded} {
		if seen[st] < 10 {
			t.Errorf("corpus too narrow: only %d %v outcomes (%v)", seen[st], st, seen)
		}
	}

	master := loadRecordedLP(t, "testdata/metro_master.json")
	if master.NumRows() < 300 {
		t.Fatalf("recorded master has %d rows, want a metro-sized one", master.NumRows())
	}
	if st := check("metro master", master); st != Optimal {
		t.Fatalf("recorded metro master solved %v, want optimal", st)
	}
}

// TestColdOptimaInfeasibleCounted: testdata/churn_master.json — 68 rows, 65
// columns, cut coefficients down to 1.3e-17 — comes back from the cold
// tableau Optimal with an x of −7.3e31 in its [0,1] box and Obj 2.9e27.
// FactorStats.ColdOptimaInfeasible counts it and the answer is returned as it
// is; the recorded metro master, solved correctly, is not counted.
func TestColdOptimaInfeasibleCounted(t *testing.T) {
	for _, tc := range []struct {
		path string
		want int
	}{{"testdata/churn_master.json", 1}, {"testdata/metro_master.json", 0}} {
		p := loadRecordedLP(t, tc.path)
		var b Basis
		sol, err := p.SolveFrom(&b)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("%s: %v, %v; want an optimum", tc.path, sol.Status, err)
		}
		if got := b.FactorStats().ColdOptimaInfeasible; got != tc.want {
			t.Fatalf("%s: ColdOptimaInfeasible = %d, want %d", tc.path, got, tc.want)
		}
		if got := p.feasibleAt(sol.X); got != (tc.want == 0) {
			t.Fatalf("%s: returned optimum feasible = %v, want %v", tc.path, got, tc.want == 0)
		}
	}
}

// TestConcurrentColdSolvesMatchSerial drives the cold path the way
// side-by-side replay lanes do: several goroutines cold-solve different LPs
// at once, each from its own Basis, and every result must equal the bits a
// serial solve produced — the package keeps no state between solves that two
// of them could share. `make test-race` runs it with the race detector.
func TestConcurrentColdSolvesMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var lps []*Problem
	for i := 0; i < 60; i++ {
		lps = append(lps, oracleLP(rng, i%2 == 1))
	}
	type result struct {
		sol *Solution
		err error
	}
	serial := make([]result, len(lps))
	for i, p := range lps {
		var b Basis
		serial[i].sol, serial[i].err = p.SolveFrom(&b)
	}

	const workers = 4
	got := make([][]result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]result, len(lps))
			for k := range lps {
				i := (k + w*len(lps)/workers) % len(lps) // staggered: workers overlap on different LPs
				var b Basis
				got[w][i].sol, got[w][i].err = lps[i].SolveFrom(&b)
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i := range lps {
			if got[w][i].err != serial[i].err || !sameSolution(got[w][i].sol, serial[i].sol) {
				t.Fatalf("worker %d, LP %d: concurrent cold solve differs from the serial one:\n got  %+v (%v)\n want %+v (%v)",
					w, i, got[w][i].sol, got[w][i].err, serial[i].sol, serial[i].err)
			}
		}
	}
}
