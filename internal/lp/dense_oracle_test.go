package lp

import "math"

// DebugForceDenseFactor routes subsequently factorized bases to the dense
// reference engine below (true) or back to the sparse LU (false). It is
// process-global and not safe to toggle concurrently with solves.
func DebugForceDenseFactor(on bool) {
	oracleEngine = nil
	if on {
		oracleEngine = func() factorEngine { return new(denseFactor) }
	}
}

// denseFactor is the explicit dense inverse B⁻¹ maintained by Gauss–Jordan
// refactorization and in-place product-form row updates — the engine the
// package used before the sparse LU rewrite, retained as the cross-check
// oracle for the dense-vs-sparse property tests and flattened from
// [][]float64 to one contiguous row-major slice. binv[k*m+i] is row k
// (basis position) column i (constraint row) of B⁻¹.
type denseFactor struct {
	m       int
	binv    []float64
	aug     []float64 // refactorization scratch: m rows × 2m columns
	updates int
}

func (f *denseFactor) refactor(r *revised) bool {
	m := r.m
	f.m = m
	f.updates = 0
	f.binv = grow(f.binv, m*m)
	f.aug = grow(f.aug, 2*m*m)
	aug := f.aug[: 2*m*m : 2*m*m]
	for i := range aug {
		aug[i] = 0
	}
	w2 := 2 * m
	for i := 0; i < m; i++ {
		aug[i*w2+m+i] = 1
	}
	for k, c := range r.bs.cols {
		if c < 0 || c >= r.width {
			return false
		}
		if c < r.n {
			ws := r.ws
			for t := ws.colPtr[c]; t < ws.colPtr[c+1]; t++ {
				aug[int(ws.colRow[t])*w2+k] += ws.colVal[t]
			}
		} else {
			aug[(c-r.n)*w2+k] += r.sigma[c-r.n]
		}
	}
	for k := 0; k < m; k++ {
		piv, pivAbs := -1, singularPivotTol
		for i := k; i < m; i++ {
			if a := math.Abs(aug[i*w2+k]); a > pivAbs {
				piv, pivAbs = i, a
			}
		}
		if piv < 0 {
			return false
		}
		if piv != k {
			rk, rp := aug[k*w2:(k+1)*w2], aug[piv*w2:(piv+1)*w2]
			for j := k; j < w2; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
		}
		rk := aug[k*w2 : (k+1)*w2]
		inv := 1 / rk[k]
		for j := k; j < w2; j++ {
			rk[j] *= inv
		}
		for i := 0; i < m; i++ {
			if i == k {
				continue
			}
			ri := aug[i*w2 : (i+1)*w2]
			fct := ri[k]
			if fct == 0 {
				continue
			}
			for j := k; j < w2; j++ {
				ri[j] -= fct * rk[j]
			}
		}
	}
	for k := 0; k < m; k++ {
		copy(f.binv[k*m:(k+1)*m], aug[k*w2+m:k*w2+2*m])
	}
	return true
}

func (f *denseFactor) ftran(rowIn, posOut []float64) {
	m := f.m
	for k := 0; k < m; k++ {
		posOut[k] = 0
	}
	for i := 0; i < m; i++ {
		v := rowIn[i]
		if v == 0 {
			continue
		}
		for k := 0; k < m; k++ {
			posOut[k] += v * f.binv[k*m+i]
		}
	}
}

// ftranBatch applies B⁻¹ to k packed vectors in one pass over the inverse:
// each binv row is loaded once and dotted against every vector.
func (f *denseFactor) ftranBatch(rowIn []float64, k int, posOut []float64) {
	m := f.m
	for i := range posOut[:k*m] {
		posOut[i] = 0
	}
	for i := 0; i < m; i++ {
		for b := 0; b < k; b++ {
			v := rowIn[b*m+i]
			if v == 0 {
				continue
			}
			out := posOut[b*m : (b+1)*m]
			for p := 0; p < m; p++ {
				out[p] += v * f.binv[p*m+i]
			}
		}
	}
}

func (f *denseFactor) btran(posIn, rowOut []float64) {
	m := f.m
	for i := 0; i < m; i++ {
		rowOut[i] = 0
	}
	for k := 0; k < m; k++ {
		v := posIn[k]
		if v == 0 {
			continue
		}
		row := f.binv[k*m : (k+1)*m]
		for i := 0; i < m; i++ {
			rowOut[i] += v * row[i]
		}
	}
}

func (f *denseFactor) update(leave int, u []float64) updateOutcome {
	m := f.m
	inv := 1 / u[leave]
	rowL := f.binv[leave*m : (leave+1)*m]
	for k := range rowL {
		rowL[k] *= inv
	}
	for i := 0; i < m; i++ {
		if i == leave {
			continue
		}
		fct := u[i]
		if fct == 0 {
			continue
		}
		ri := f.binv[i*m : (i+1)*m]
		for k := range ri {
			ri[k] -= fct * rowL[k]
		}
	}
	f.updates++
	if f.updates >= refactorEvery {
		return refactorPeriodic
	}
	return updateCommitted
}
