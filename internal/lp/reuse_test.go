package lp

import (
	"math/rand"
	"testing"
)

// sameProblem requires q to be p's equal through everything a solver reads:
// costs, bounds, and every row's sense, right-hand side and terms in
// order. (An empty and a nil term list are the same row.)
func sameProblem(t *testing.T, what string, got, want *Problem) {
	t.Helper()
	if got.NumVars() != want.NumVars() || got.NumRows() != want.NumRows() || got.bounded() != want.bounded() {
		t.Fatalf("%s: %d vars, %d rows, bounded %v; want %d, %d, %v", what,
			got.NumVars(), got.NumRows(), got.bounded(), want.NumVars(), want.NumRows(), want.bounded())
	}
	for j := 0; j < want.NumVars(); j++ {
		glo, gup := got.Bounds(j)
		wlo, wup := want.Bounds(j)
		if got.Cost(j) != want.Cost(j) || glo != wlo || gup != wup {
			t.Fatalf("%s: variable %d differs", what, j)
		}
	}
	for i := range want.rows {
		g, w := got.rows[i], want.rows[i]
		if g.sense != w.sense || g.rhs != w.rhs || len(g.terms) != len(w.terms) {
			t.Fatalf("%s: row %d is %+v, want %+v", what, i, g, w)
		}
		for k := range w.terms {
			if g.terms[k] != w.terms[k] {
				t.Fatalf("%s: row %d term %d is %v, want %v", what, i, k, g.terms[k], w.terms[k])
			}
		}
	}
}

// TestReusedStorageMatchesFresh runs the three in-place rebuilds a
// milp.Solver and a Benders session live on — CloneInto one target,
// Presolved.Reduce on one Presolved, TruncateRows followed by re-adding the
// dropped rows — over problems that grow and shrink from one to the next,
// bounded and not, decided and not, and holds each to what a fresh Clone, a
// fresh Presolve and a fresh build produce. A Basis that solved the previous
// occupant of the reused storage must not mistake the new one for it.
func TestReusedStorageMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var clone Problem
	var reduced Presolved
	var basis Basis
	for trial := 0; trial < 120; trial++ {
		var p *Problem
		switch trial % 3 {
		case 0:
			p = presolveProblem(rng)
		case 1:
			p = buildBoundedProblem(rng)
		default:
			p = randomLP(3+rng.Intn(12), 2+rng.Intn(10), int64(trial)) // no bounds: clone's must empty
		}

		p.CloneInto(&clone)
		sameProblem(t, "CloneInto", &clone, p.Clone())

		reduced.Reduce(p)
		fresh := Presolve(p)
		if reduced.Decided != fresh.Decided || reduced.Status != fresh.Status || (reduced.Reduced == nil) != (fresh.Reduced == nil) {
			t.Fatalf("trial %d: reused presolve decided=%v status=%v, fresh decided=%v status=%v",
				trial, reduced.Decided, reduced.Status, fresh.Decided, fresh.Status)
		}
		for j := 0; j < p.NumVars(); j++ {
			rc, rv := reduced.Col(j)
			fc, fv := fresh.Col(j)
			if rc != fc || rv != fv {
				t.Fatalf("trial %d: column %d maps to (%d, %v), fresh (%d, %v)", trial, j, rc, rv, fc, fv)
			}
		}
		if !fresh.Decided {
			sameProblem(t, "Reduce", reduced.Reduced, fresh.Reduced)
			got, err := reduced.Reduced.SolveFrom(&basis)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Reduced.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if got.Status != want.Status || (want.Status == Optimal && !almost(got.Obj, want.Obj, 1e-6)) {
				t.Fatalf("trial %d: reduced problem in reused storage solves to %v %v, fresh %v %v",
					trial, got.Status, got.Obj, want.Status, want.Obj)
			}
		}

		// Drop a tail of rows and put the same rows back.
		rebuilt := p.Clone()
		keep := rng.Intn(rebuilt.NumRows() + 1)
		tail := append([]row(nil), rebuilt.rows[keep:]...)
		for i := range tail {
			tail[i].terms = append([]Term(nil), tail[i].terms...)
		}
		rev := rebuilt.rev
		rebuilt.TruncateRows(keep)
		if rebuilt.NumRows() != keep || rebuilt.rev == rev {
			t.Fatalf("trial %d: TruncateRows(%d) left %d rows, rev %d → %d", trial, keep, rebuilt.NumRows(), rev, rebuilt.rev)
		}
		for _, r := range tail {
			rebuilt.AddConstraint(r.sense, r.rhs, r.terms...)
		}
		sameProblem(t, "truncate and re-add", rebuilt, p)
	}
}

// TestClearedProblemSolvesLikeFresh is a Benders session's rebuild after a
// shape change in miniature: one Problem, cleared and rebuilt smaller and
// smaller and then larger and larger, bounded every other time, solved
// through one Basis reset before each rebuild and then re-solved warm as its
// right-hand sides move. Every solve must return what a fresh Problem solved
// through a fresh Basis returns, bit for bit: status, pivots, objective, X,
// Dual and Ray. Clear must also advance the revision, or a workspace that
// cached the old matrix under the same problem pointer could keep it.
func TestClearedProblemSolvesLikeFresh(t *testing.T) {
	var p Problem
	var b Basis
	for k, n := range []int{48, 30, 12, 6, 20, 36, 64} {
		src := randomLP(n, n+n/2, int64(k))
		if k%2 == 1 {
			for j := 0; j < n; j += 3 {
				src.SetBounds(j, 0, 1+float64(j%4))
			}
		}

		rev := p.rev
		p.Clear()
		if p.NumVars() != 0 || p.NumRows() != 0 || p.bounded() || p.rev == rev {
			t.Fatalf("shape %d: Clear left %d vars, %d rows, bounded %v, rev %d → %d",
				k, p.NumVars(), p.NumRows(), p.bounded(), rev, p.rev)
		}
		for j := 0; j < src.NumVars(); j++ {
			p.AddVar(src.Cost(j))
			if src.bounded() {
				lo, up := src.Bounds(j)
				p.SetBounds(j, lo, up)
			}
		}
		for i := 0; i < src.NumRows(); i++ {
			p.AddConstraint(src.RowSense(i), src.RHS(i), src.RowTerms(i)...)
		}
		sameProblem(t, "cleared and rebuilt", &p, src)
		b.Reset()

		var fresh Basis
		rng := rand.New(rand.NewSource(int64(k)))
		for step := 0; step < 4; step++ {
			got, err := p.SolveFrom(&b)
			if err != nil {
				t.Fatal(err)
			}
			want, err := src.SolveFrom(&fresh)
			if err != nil {
				t.Fatal(err)
			}
			if !sameSolution(got, want) {
				t.Fatalf("shape %d (%d vars) step %d: recycled %v obj %v in %d pivots, fresh %v obj %v in %d",
					k, n, step, got.Status, got.Obj, got.Pivots, want.Status, want.Obj, want.Pivots)
			}
			i := rng.Intn(src.NumRows())
			rhs := src.RHS(i) * (0.7 + 0.6*rng.Float64())
			p.SetRHS(i, rhs)
			src.SetRHS(i, rhs)
		}
	}
}
