package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refactorFlatScan is sparseLU.refactor's elimination as it was before the
// pending-step bitset: for every column, probe every earlier step in turn
// and apply those whose pivot row the column has reached. It is the
// specification the production loop must refine — the same steps in the
// same order, so the same bits in L, U and both permutations. It stops
// where the permutation is complete (L remapped to step space); the
// row-wise mirror of U that follows is a pure function of these arrays.
func refactorFlatScan(f *sparseLU, r *revised) bool {
	m := r.m
	f.reset(m)
	if m == 0 {
		return true
	}

	cnt := f.cnt[: m+2 : m+2]
	for i := range cnt {
		cnt[i] = 0
	}
	for k := 0; k < m; k++ {
		cnt[min(r.colNNZ(r.bs.cols[k]), m)+1]++
	}
	for i := 1; i < len(cnt); i++ {
		cnt[i] += cnt[i-1]
	}
	for k := 0; k < m; k++ {
		n := min(r.colNNZ(r.bs.cols[k]), m)
		f.order[cnt[n]] = int32(k)
		cnt[n]++
	}

	for i := 0; i < m; i++ {
		f.pinv[i] = -1
		f.work[i] = 0
		f.mark[i] = 0
	}
	f.stamp = 0

	for step := 0; step < m; step++ {
		pos := f.order[step]
		col := r.bs.cols[pos]
		if col < 0 || col >= r.width {
			return false
		}
		f.ucPtr[step] = int32(len(f.ucIdx))

		f.stamp++
		nz := f.nzRows[:0]
		w := f.work
		if col < r.n {
			ws := r.ws
			for t := ws.colPtr[col]; t < ws.colPtr[col+1]; t++ {
				row := ws.colRow[t]
				if f.mark[row] != f.stamp {
					f.mark[row] = f.stamp
					w[row] = 0
					nz = append(nz, row)
				}
				w[row] += ws.colVal[t]
			}
		} else {
			row := int32(col - r.n)
			f.mark[row] = f.stamp
			w[row] = r.sigma[row]
			nz = append(nz, row)
		}

		for s := 0; s < step; s++ {
			pr := f.prow[s]
			if f.mark[pr] != f.stamp {
				continue
			}
			v := w[pr]
			if v == 0 {
				continue
			}
			f.ucIdx = append(f.ucIdx, int32(s))
			f.ucVal = append(f.ucVal, v)
			for t := f.lPtr[s]; t < f.lPtr[s+1]; t++ {
				row := f.lIdx[t]
				if f.mark[row] != f.stamp {
					f.mark[row] = f.stamp
					w[row] = 0
					nz = append(nz, row)
				}
				w[row] -= f.lVal[t] * v
			}
		}

		piv := int32(-1)
		pivAbs := singularPivotTol
		for _, row := range nz {
			if f.pinv[row] >= 0 {
				continue
			}
			if a := math.Abs(w[row]); a > pivAbs || (a == pivAbs && piv >= 0 && row < piv) {
				piv, pivAbs = row, a
			}
		}
		if piv < 0 {
			return false
		}
		d := w[piv]
		f.prow[step] = piv
		f.pinv[piv] = int32(step)
		f.qcol[step] = pos
		f.uDiag[step] = d

		inv := 1 / d
		for _, row := range nz {
			if f.pinv[row] >= 0 || row == piv {
				continue
			}
			if v := w[row]; v != 0 {
				f.lIdx = append(f.lIdx, row)
				f.lVal = append(f.lVal, v*inv)
			}
		}
		f.lPtr[step+1] = int32(len(f.lIdx))
		f.ucLen[step] = int32(len(f.ucIdx)) - f.ucPtr[step]
	}
	f.lPtr[0] = 0
	for t := range f.lIdx {
		f.lIdx[t] = f.pinv[f.lIdx[t]]
	}
	return true
}

// TestRefactorMatchesFlatScan holds the pending-step bitset to the flat
// scan it replaced. Bases from 500 random LPs (the one an optimal solve
// ends on plus random column draws, singular ones included), the vertices
// a warm RHS/bound rewrite chain reaches through Forrest–Tomlin updates and
// in-solve refactorizations, and the recorded 392-row metro master's are
// factorized both ways: both must accept or refuse, and L, U's columns and
// diagonal and both permutations must be equal, floats compared with ==.
// The bitset a refactorization leaves behind must be empty again.
func TestRefactorMatchesFlatScan(t *testing.T) {
	var prod, flat sparseLU // reused, so stale scratch would show too
	checked, fill := 0, 0
	check := func(tag string, p *Problem, b *Basis) {
		t.Helper()
		if len(b.cols) != p.NumRows() || p.NumRows() == 0 {
			return // no basis captured (infeasible or unbounded cold solve)
		}
		r := b.prepare(p)
		okProd, okFlat := prod.refactor(r), refactorFlatScan(&flat, r)
		if okProd != okFlat {
			t.Fatalf("%s: refactor = %v, flat scan = %v", tag, okProd, okFlat)
		}
		if slices.ContainsFunc(prod.pend, func(w uint64) bool { return w != 0 }) {
			t.Fatalf("%s: pending-step bitset not consumed: %x", tag, prod.pend)
		}
		if !okProd {
			return
		}
		m := r.m
		if !slices.Equal(prod.lPtr[:m+1], flat.lPtr[:m+1]) ||
			!slices.Equal(prod.lIdx, flat.lIdx) || !slices.Equal(prod.lVal, flat.lVal) ||
			!slices.Equal(prod.ucPtr[:m], flat.ucPtr[:m]) || !slices.Equal(prod.ucLen[:m], flat.ucLen[:m]) ||
			!slices.Equal(prod.ucIdx, flat.ucIdx) || !slices.Equal(prod.ucVal, flat.ucVal) ||
			!slices.Equal(prod.uDiag[:m], flat.uDiag[:m]) ||
			!slices.Equal(prod.prow[:m], flat.prow[:m]) || !slices.Equal(prod.qcol[:m], flat.qcol[:m]) {
			t.Fatalf("%s (m=%d): factorization differs from the flat scan's", tag, m)
		}
		checked++
		fill += len(prod.lIdx)
	}

	// Random LPs: the basis an optimal solve ends on, and three drawn at
	// random, singular or not.
	rng := rand.New(rand.NewSource(14))
	singular := 0
	for trial := 0; trial < 500; trial++ {
		var p *Problem
		if trial < 400 {
			p = oracleLP(rng, trial%2 == 1)
		} else {
			p = buildBoundedProblem(rng)
		}
		var b Basis
		if _, err := p.SolveFrom(&b); err == nil {
			check("random", p, &b)
		}
		m, n := p.NumRows(), p.NumVars()
		for draw := 0; draw < 3; draw++ {
			rb := Basis{m: m, n: n, cols: make([]int, m)}
			for i := range rb.cols {
				rb.cols[i] = n + i
			}
			// Each structural column takes the place of the marker of a
			// row it appears in (the diagonal is structurally non-zero;
			// the basis may still be singular).
			for _, i := range rng.Perm(m)[:rng.Intn(m+1)] {
				if terms := p.rows[i].terms; len(terms) > 0 {
					rb.cols[i] = terms[rng.Intn(len(terms))].Var
				}
			}
			was := checked
			check("random basis", p, &rb)
			if checked == was {
				singular++
			}
		}
	}
	if checked < 500 || singular < 50 {
		t.Fatalf("corpus too narrow: %d factorized and %d singular bases over 500 LPs", checked, singular)
	}

	// Warm chains: each re-solve walks the basis through Forrest–Tomlin
	// updates and in-solve refactorizations to a new vertex.
	for _, seed := range []int64{3, 11, 29} {
		p := randomLP(60, 60, seed)
		r := rand.New(rand.NewSource(seed * 17))
		var b Basis
		pivots := 0
		for step := 0; step < 12; step++ {
			for i := 0; i < p.NumRows(); i++ {
				if r.Float64() < 0.5 {
					p.SetRHS(i, math.Max(0.2, p.RHS(i)*(0.3+1.4*r.Float64())))
				}
			}
			for j := 0; j < p.NumVars(); j++ {
				if r.Float64() < 0.15 {
					p.SetBounds(j, 0, 1+4*r.Float64())
				}
			}
			s, err := p.SolveFrom(&b)
			if err != nil {
				t.Fatal(err)
			}
			pivots += s.Pivots
			check("FT chain", p, &b)
		}
		if pivots <= refactorEvery {
			t.Fatalf("seed %d: %d pivots never crossed the FT eta bound %d", seed, pivots, refactorEvery)
		}
	}

	before := fill
	master := loadRecordedLP(t, "testdata/metro_master.json")
	var b Basis
	if s, err := master.SolveFrom(&b); err != nil || s.Status != Optimal {
		t.Fatalf("recorded metro master: %v, %v", s, err)
	}
	check("metro master", master, &b)
	if fill == before {
		t.Fatal("metro master's optimal basis has an empty L: the reach set was never exercised at size")
	}
}
