// factor.go holds the basis factorization engines behind the revised
// simplex. A factorEngine owns a factorized representation of the current
// basis matrix B (the columns listed in Basis.cols) and answers the two
// linear systems every simplex iteration is made of:
//
//	ftran:  u = B⁻¹·v   (entering column transformed into the basis frame)
//	btran:  y = B⁻ᵀ·c   (duals / pivot rows read out of the basis frame)
//
// One implementation ships. sparseLU is an LU factorization P·B·Q = L·U with
// a Markowitz-style static column ordering (sparsest basis column eliminated
// first) and threshold-free partial pivoting by magnitude, stored as
// compressed sparse columns, maintained across pivots by Forrest–Tomlin
// updates that keep U an explicit triangular factor. Its storage lives in
// the Basis workspace and is reused across solves — the steady-state warm
// path performs no allocations. The explicit-inverse engine the package
// shipped before the LU rewrite lives on in dense_oracle_test.go, behind
// this interface, as the numerical cross-check: the dense-vs-sparse property
// tests drive both engines over the same solve sequences and require
// identical statuses and matching solutions.
//
// The engine is strictly deterministic: pivot choices break ties by the
// smallest index, orderings are stable, and no map iteration or randomness
// is involved, so a replayed solve takes the identical pivot path.
package lp

import (
	"math"
	"math/bits"
)

// factorEngine is a factorized basis. refactor rebuilds the factorization
// from r.bs.cols (false means B is singular); ftran/btran solve against it
// including any accumulated factor updates; update applies the pivot that
// replaces the basic column at position leave with the column whose
// transformed form is u = B⁻¹·A_enter, returning why the caller must now
// refactorize (update budget exhausted, storage growth bound hit, or the
// update failed its numerical stability test and was not committed), or
// updateCommitted when it need not.
//
// Vector index conventions: "row-indexed" vectors live in the caller's
// constraint-row space; "position-indexed" vectors are aligned with
// Basis.cols. ftran maps row space to position space, btran the reverse.
// Neither call may modify its input slice.
type factorEngine interface {
	refactor(r *revised) bool
	ftran(rowIn, posOut []float64)
	btran(posIn, rowOut []float64)
	// ftranBatch is ftran over k independent right-hand sides packed with
	// stride m (rowIn[b*m:(b+1)*m] is vector b): the factors are traversed
	// once per batch instead of once per vector, so the factor-index walk
	// amortizes across the batch.
	ftranBatch(rowIn []float64, k int, posOut []float64)
	update(leave int, u []float64) updateOutcome
}

// updateOutcome is what a factor update asks of its caller.
type updateOutcome int

const (
	updateCommitted  updateOutcome = iota // absorbed; keep going
	refactorPeriodic                      // absorbed; refactorEvery updates accumulated
	refactorFill                          // absorbed; storage grew past the fill bound
	refactorUnstable                      // rejected by the stability test
)

// FactorStats counts what a Basis' factorization machinery did over the
// life of its workspace (Reset keeps them): how many pivots were absorbed as
// factor updates, why full refactorizations were forced, and which check
// sent a warm attempt to the cold two-phase tableau. They answer "why was
// this solve slow" without a profiler — a fill-bound count close to the
// update count means the updates are not paying for themselves.
type FactorStats struct {
	Updates int // factor updates committed (Forrest–Tomlin)

	RefactorPeriodic int // refactorizations forced by the refactorEvery budget
	RefactorFill     int // ... by the storage-growth bound (etaNNZPerRow)
	RefactorUnstable int // ... by an update that failed ftStabilityTol
	Singular         int // factorizations abandoned on a singular basis

	// Warm attempts that fell back to the cold path, by the check that
	// declined them.
	ColdStaleBounds int // basis predates the problem's variable bounds
	ColdSingular    int // basis matrix singular at factorization
	ColdNotFeasible int // neither primal nor dual feasible, or a pinned slack off zero
	ColdBailed      int // simplex loop gave up: pivot budget, stale pivot, singular refactor
	ColdUnbounded   int // warm loop saw unboundedness; re-derived cold
	ColdUnverified  int // result failed the post-solve verification

	// Cold optima whose X breaks a row or bound (feasibleAt), returned as
	// they are: re-solving them would move decisions.
	ColdOptimaInfeasible int
}

// ftranBatchMax caps how many right-hand sides one ftranBatch call packs;
// callers chunk larger batches. Sized so the packed scratch (2·max·m
// floats) stays cache-friendly while still amortizing the factor walk.
const ftranBatchMax = 8

// How many factor updates an engine accumulates before a full
// refactorization clears the compounded roundoff.
const refactorEvery = 64

// etaNNZPerRow bounds update-induced storage growth: once U's arenas or the
// FT eta file exceed the refactorization-time fill by more than
// etaNNZPerRow·m entries, the solves cost more than a refactorization would
// save, so update signals a rebuild even before refactorEvery pivots have
// accumulated.
const etaNNZPerRow = 8

// ftStabilityTol is the Forrest–Tomlin stability threshold: an update whose
// new U diagonal is smaller than this fraction of the spike's largest entry
// has cancelled too heavily to trust, and triggers a refactorization
// instead of committing.
const ftStabilityTol = 1e-8

// singularPivotTol is the smallest pivot magnitude a factorization accepts;
// below it the basis is declared singular and the warm path falls back to a
// cold solve (matching the pre-LU dense engine's threshold).
const singularPivotTol = 1e-10

// oracleEngine, when non-nil, supplies the engine a basis is next
// (re)factorized with in place of its workspace's sparse LU. Only _test.go
// files set it (dense_oracle_test.go), to cross-validate the sparse LU
// against another engine over identical solve sequences.
var oracleEngine func() factorEngine

// sparseLU is the sparse basis factorization P·B·Q = L·U maintained across
// pivots by Forrest–Tomlin updates. L is unit lower triangular and frozen
// between refactorizations; U is kept genuinely factored through every
// pivot: replacing a basic column swaps the corresponding U column for its
// spike (the entering column pushed through L and the accumulated row
// etas), eliminates the now-nontriangular row of U with one merged
// elementary row operation appended to the FT eta file, and moves that
// row/column pair to the end of U's *logical* order. Triangularity is a
// property of the logical order (uord/upos), never of physical storage —
// the update is pure bookkeeping plus O(row s fill) arithmetic.
//
// After t updates the factorization reads
//
//	B_t⁻¹ = Q ∘ U_t⁻¹ ∘ R_t···R_1 ∘ L⁻¹ ∘ P
//
// with each R_e = I + Σ_c m_c·e_s·e_cᵀ a merged row eta (row s of U gained
// m_c times row c during elimination). Unlike the product-form eta file
// this replaces, U_t stays an explicit triangular factor, so update cost
// and solve cost track U's actual fill instead of growing by one dense-ish
// eta per pivot — the property that lets basis dimension grow by an order
// of magnitude inside the same refactorEvery window.
type sparseLU struct {
	m int

	// L: strictly-below-diagonal entries per elimination column (the unit
	// diagonal is implicit). Indices are elimination steps after refactor.
	lPtr []int32
	lIdx []int32
	lVal []float64

	// U, stored both ways because updates need rows and solves need
	// columns. Column k (an elimination step) owns the arena slice
	// ucIdx/ucVal[ucPtr[k] : ucPtr[k]+ucLen[k]] of strictly-off-diagonal
	// entries (row step, value); urPtr/urLen/urIdx/urVal mirror it by row.
	// Updates rewrite blocks by appending fresh ones to the arena end, so
	// a refactorization also compacts.
	ucPtr []int32
	ucLen []int32
	ucIdx []int32
	ucVal []float64
	uDiag []float64
	urPtr []int32
	urLen []int32
	urIdx []int32
	urVal []float64

	prow []int32 // elimination step -> constraint row (P)
	pinv []int32 // constraint row -> elimination step (P⁻¹)
	qcol []int32 // elimination step -> basis position (Q)
	qinv []int32 // basis position -> elimination step

	// Logical triangular order of U: uord[p] is the step at logical
	// position p, upos its inverse. U[r,c] ≠ 0 ⟹ upos[r] ≤ upos[c].
	uord []int32
	upos []int32

	// Forrest–Tomlin eta file: eta e is the merged row operation
	// row ftS[e] += Σ_q ftVal[q]·row ftIdx[q], sliced by ftPtr.
	ftS   []int32
	ftPtr []int32
	ftIdx []int32
	ftVal []float64

	nUpdates int
	nnzU0    int // off-diagonal U nonzeros at refactorization (growth bound)

	// Scratch reused across refactorizations and solves.
	work   []float64 // row-space scatter / step-space solve vector
	step   []float64 // working row values during FT elimination
	spike  []float64 // FT spike column in step space
	bwork  []float64 // batched-ftran solve vectors (ftranBatchMax·m)
	btmp   []float64 // per-vector pivot values inside the batched solves
	mark   []int32   // scatter stamps (row or step space)
	stamp  int32
	nzRows []int32  // nonzero rows of the column under elimination
	order  []int32  // column elimination order
	pend   []uint64 // refactor: earlier steps whose pivot row the column has reached
	cnt    []int32  // counting-sort scratch
}

func (f *sparseLU) reset(m int) {
	f.m = m
	f.lPtr = grow(f.lPtr, m+1)
	f.ucPtr = grow(f.ucPtr, m)
	f.ucLen = grow(f.ucLen, m)
	f.urPtr = grow(f.urPtr, m)
	f.urLen = grow(f.urLen, m)
	f.uDiag = grow(f.uDiag, m)
	f.prow = grow(f.prow, m)
	f.pinv = grow(f.pinv, m)
	f.qcol = grow(f.qcol, m)
	f.qinv = grow(f.qinv, m)
	f.uord = grow(f.uord, m)
	f.upos = grow(f.upos, m)
	f.work = grow(f.work, m)
	f.step = grow(f.step, m)
	f.spike = grow(f.spike, m)
	f.bwork = grow(f.bwork, ftranBatchMax*m)
	f.btmp = grow(f.btmp, ftranBatchMax)
	f.mark = grow(f.mark, m)
	f.nzRows = grow(f.nzRows, m)
	f.order = grow(f.order, m)
	f.pend = grow(f.pend, (m+63)>>6)
	f.cnt = grow(f.cnt, m+2)
	f.lIdx = f.lIdx[:0]
	f.lVal = f.lVal[:0]
	f.ucIdx = f.ucIdx[:0]
	f.ucVal = f.ucVal[:0]
	f.urIdx = f.urIdx[:0]
	f.urVal = f.urVal[:0]
	f.clearEtas()
}

func (f *sparseLU) clearEtas() {
	f.nUpdates = 0
	f.ftS = f.ftS[:0]
	f.ftIdx = f.ftIdx[:0]
	f.ftVal = f.ftVal[:0]
	f.ftPtr = append(f.ftPtr[:0], 0)
}

// reached records that row joined the pattern of the column under
// elimination: if an earlier step pivoted on it, that step is pending.
func (f *sparseLU) reached(row int32) {
	if ps := f.pinv[row]; ps >= 0 {
		f.pend[ps>>6] |= 1 << (ps & 63)
	}
}

// refactor builds the factorization from the basic column set by
// left-looking elimination. The column elimination order is chosen up front
// by ascending column nonzero count (a static Markowitz-style minimum-degree
// heuristic: sparse columns first keeps fill-in local), ties broken by basis
// position; within a column the pivot row is the remaining entry of largest
// magnitude, ties broken by smallest row index. Returns false on a singular
// basis.
func (f *sparseLU) refactor(r *revised) bool {
	m := r.m
	f.reset(m)
	if m == 0 {
		return true
	}

	// Counting sort of basis positions by column nonzero count.
	cnt := f.cnt[: m+2 : m+2]
	for i := range cnt {
		cnt[i] = 0
	}
	for k := 0; k < m; k++ {
		n := r.colNNZ(r.bs.cols[k])
		if n > m {
			n = m
		}
		cnt[n+1]++
	}
	for i := 1; i < len(cnt); i++ {
		cnt[i] += cnt[i-1]
	}
	for k := 0; k < m; k++ {
		n := r.colNNZ(r.bs.cols[k])
		if n > m {
			n = m
		}
		f.order[cnt[n]] = int32(k)
		cnt[n]++
	}

	for i := 0; i < m; i++ {
		f.pinv[i] = -1
		f.work[i] = 0
		f.mark[i] = 0
	}
	f.stamp = 0
	pend := f.pend

	for step := 0; step < m; step++ {
		pos := f.order[step]
		col := r.bs.cols[pos]
		if col < 0 || col >= r.width {
			return false
		}
		f.ucPtr[step] = int32(len(f.ucIdx))

		// Scatter B's column for this basis position into row space.
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
					f.reached(row)
				}
				w[row] += ws.colVal[t]
			}
		} else {
			row := int32(col - r.n)
			f.mark[row] = f.stamp
			w[row] = r.sigma[row]
			nz = append(nz, row)
			f.reached(row)
		}

		// Left-looking elimination: apply the already-built columns of L in
		// step order. L entries still carry constraint-row indices here (the
		// step-space remap happens once the permutation is complete).
		//
		// Only steps whose pivot row is in this column's pattern do anything,
		// so they are kept as a bitset (set above for the scattered rows,
		// below for fill) and consumed lowest first. A column of L holds only
		// rows that were unpivoted when it was built, so fill marks later
		// steps only: the steps visited, their order and every update to w
		// are those of a scan over all earlier steps.
		for wi := range pend[:(step+63)>>6] {
			for pend[wi] != 0 {
				b := bits.TrailingZeros64(pend[wi])
				pend[wi] &^= 1 << b
				s := wi<<6 + b
				v := w[f.prow[s]]
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
						f.reached(row)
					}
					w[row] -= f.lVal[t] * v
				}
			}
		}

		// Pivot: largest-magnitude entry among rows not yet pivoted.
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

	// Remap L's row indices into elimination-step space so the solves run
	// without permutation lookups.
	for t := range f.lIdx {
		f.lIdx[t] = f.pinv[f.lIdx[t]]
	}

	// Build the row-wise mirror of U (a counting-sort transpose), the
	// basis-position inverse of Q, and the logical triangular order —
	// identity right after a refactorization; FT updates rotate it.
	nnz := len(f.ucIdx)
	f.nnzU0 = nnz
	f.urIdx = grow(f.urIdx, nnz)
	f.urVal = grow(f.urVal, nnz)
	for i := 0; i < m; i++ {
		f.urLen[i] = 0
	}
	for _, r := range f.ucIdx {
		f.urLen[r]++
	}
	off := int32(0)
	cur := f.cnt[:m]
	for i := 0; i < m; i++ {
		f.urPtr[i] = off
		cur[i] = off
		off += f.urLen[i]
	}
	for k := 0; k < m; k++ {
		end := f.ucPtr[k] + f.ucLen[k]
		for t := f.ucPtr[k]; t < end; t++ {
			row := f.ucIdx[t]
			f.urIdx[cur[row]] = int32(k)
			f.urVal[cur[row]] = f.ucVal[t]
			cur[row]++
		}
	}
	for k := 0; k < m; k++ {
		f.qinv[f.qcol[k]] = int32(k)
		f.uord[k] = int32(k)
		f.upos[k] = int32(k)
	}
	f.clearEtas()
	return true
}

// ftran computes posOut = B⁻¹·rowIn: permute, solve L, replay the FT row
// etas oldest-first, solve U in its logical order, permute back.
func (f *sparseLU) ftran(rowIn, posOut []float64) {
	m := f.m
	x := f.work[:m]
	for k := 0; k < m; k++ {
		x[k] = rowIn[f.prow[k]]
	}
	// Unit lower triangular forward solve.
	for k := 0; k < m; k++ {
		xk := x[k]
		if xk == 0 {
			continue
		}
		for t := f.lPtr[k]; t < f.lPtr[k+1]; t++ {
			x[f.lIdx[t]] -= f.lVal[t] * xk
		}
	}
	// FT row etas, oldest first: x[s] += Σ m_c·x[c].
	for e := 0; e < len(f.ftS); e++ {
		acc := x[f.ftS[e]]
		for q := f.ftPtr[e]; q < f.ftPtr[e+1]; q++ {
			acc += f.ftVal[q] * x[f.ftIdx[q]]
		}
		x[f.ftS[e]] = acc
	}
	// U backward solve in descending logical order (column saxpy form).
	for p := m - 1; p >= 0; p-- {
		k := f.uord[p]
		v := x[k] / f.uDiag[k]
		x[k] = v
		if v == 0 {
			continue
		}
		end := f.ucPtr[k] + f.ucLen[k]
		for t := f.ucPtr[k]; t < end; t++ {
			x[f.ucIdx[t]] -= f.ucVal[t] * v
		}
	}
	for k := 0; k < m; k++ {
		posOut[f.qcol[k]] = x[k]
	}
}

// ftranBatch solves the k packed right-hand sides through one traversal of
// the factors: every L entry, eta entry and U column is visited once per
// batch with the inner loop running across the vectors, so the factor-index
// walk (the memory-bound part of ftran) amortizes over the batch.
func (f *sparseLU) ftranBatch(rowIn []float64, k int, posOut []float64) {
	m := f.m
	if k == 1 {
		f.ftran(rowIn[:m], posOut[:m])
		return
	}
	x := f.bwork[:k*m]
	for b := 0; b < k; b++ {
		xb := x[b*m : (b+1)*m]
		in := rowIn[b*m : (b+1)*m]
		for i := 0; i < m; i++ {
			xb[i] = in[f.prow[i]]
		}
	}
	for s := 0; s < m; s++ {
		for t := f.lPtr[s]; t < f.lPtr[s+1]; t++ {
			idx, v := int(f.lIdx[t]), f.lVal[t]
			for b := 0; b < k; b++ {
				x[b*m+idx] -= v * x[b*m+s]
			}
		}
	}
	for e := 0; e < len(f.ftS); e++ {
		s := int(f.ftS[e])
		for q := f.ftPtr[e]; q < f.ftPtr[e+1]; q++ {
			c, v := int(f.ftIdx[q]), f.ftVal[q]
			for b := 0; b < k; b++ {
				x[b*m+s] += v * x[b*m+c]
			}
		}
	}
	tmp := f.btmp[:k]
	for p := m - 1; p >= 0; p-- {
		kc := int(f.uord[p])
		d := f.uDiag[kc]
		for b := 0; b < k; b++ {
			v := x[b*m+kc] / d
			x[b*m+kc] = v
			tmp[b] = v
		}
		end := f.ucPtr[kc] + f.ucLen[kc]
		for t := f.ucPtr[kc]; t < end; t++ {
			idx, v := int(f.ucIdx[t]), f.ucVal[t]
			for b := 0; b < k; b++ {
				x[b*m+idx] -= v * tmp[b]
			}
		}
	}
	for b := 0; b < k; b++ {
		xb := x[b*m : (b+1)*m]
		out := posOut[b*m : (b+1)*m]
		for i := 0; i < m; i++ {
			out[f.qcol[i]] = xb[i]
		}
	}
}

// btran computes rowOut = B⁻ᵀ·posIn: permute, solve Uᵀ in ascending logical
// order, replay the FT etas transposed newest-first, solve Lᵀ, permute back.
func (f *sparseLU) btran(posIn, rowOut []float64) {
	m := f.m
	x := f.work[:m]
	for k := 0; k < m; k++ {
		x[k] = posIn[f.qcol[k]]
	}
	// Uᵀ is lower triangular in the logical order: forward solve, reading
	// each column of U as the dot-product row of Uᵀ.
	for p := 0; p < m; p++ {
		k := f.uord[p]
		acc := x[k]
		end := f.ucPtr[k] + f.ucLen[k]
		for t := f.ucPtr[k]; t < end; t++ {
			acc -= f.ucVal[t] * x[f.ucIdx[t]]
		}
		x[k] = acc / f.uDiag[k]
	}
	// Transposed FT etas, newest first: x[c] += m_c·x[s].
	for e := len(f.ftS) - 1; e >= 0; e-- {
		vs := x[f.ftS[e]]
		if vs != 0 {
			for q := f.ftPtr[e]; q < f.ftPtr[e+1]; q++ {
				x[f.ftIdx[q]] += f.ftVal[q] * vs
			}
		}
	}
	// Lᵀ is upper triangular with unit diagonal: backward solve.
	for k := m - 1; k >= 0; k-- {
		acc := x[k]
		for t := f.lPtr[k]; t < f.lPtr[k+1]; t++ {
			acc -= f.lVal[t] * x[f.lIdx[t]]
		}
		x[k] = acc
	}
	for k := 0; k < m; k++ {
		rowOut[f.prow[k]] = x[k]
	}
}

// addRowEntry appends entry (row r, column c, value v) to U's row-wise
// storage, rewriting the row's block at the arena end when it cannot grow
// in place.
func (f *sparseLU) addRowEntry(r, c int32, v float64) {
	end := f.urPtr[r] + f.urLen[r]
	if int(end) != len(f.urIdx) {
		start := int32(len(f.urIdx))
		f.urIdx = append(f.urIdx, f.urIdx[f.urPtr[r]:end]...)
		f.urVal = append(f.urVal, f.urVal[f.urPtr[r]:end]...)
		f.urPtr[r] = start
	}
	f.urIdx = append(f.urIdx, c)
	f.urVal = append(f.urVal, v)
	f.urLen[r]++
}

// update applies the Forrest–Tomlin column replacement. The basic column at
// position leave (elimination step s = qinv[leave]) is replaced by the
// entering column, whose spike in U's frame is w = U·(Q⁻¹·u). Row s of the
// spiked U is eliminated against the rows after it in logical order; only
// the multipliers survive, as one merged row eta, because the elimination
// changes row s alone and row s ends up empty. U then keeps exact
// triangular form with s moved to the last logical position. A non-zero
// outcome means the caller must refactorize: the update count or arena
// growth hit their bounds, or the new diagonal failed the stability test (in
// which case any half-committed state is irrelevant — the rebuild starts
// from the already-updated basis columns).
func (f *sparseLU) update(leave int, u []float64) updateOutcome {
	m := f.m
	s := int(f.qinv[leave])

	// Spike w = U·(Q⁻¹·u): u is the entering column already pushed through
	// the whole factorization, so multiplying back through U re-expresses it
	// in the frame where it can replace U's column s.
	w := f.spike[:m]
	for i := range w {
		w[i] = 0
	}
	for k := 0; k < m; k++ {
		xk := u[f.qcol[k]]
		if xk == 0 {
			continue
		}
		w[k] += f.uDiag[k] * xk
		end := f.ucPtr[k] + f.ucLen[k]
		for t := f.ucPtr[k]; t < end; t++ {
			w[f.ucIdx[t]] += f.ucVal[t] * xk
		}
	}
	maxw := 0.0
	for k := 0; k < m; k++ {
		if a := math.Abs(w[k]); a > maxw {
			maxw = a
		}
	}

	// Eliminate row s of the spiked U. The working row starts as the
	// committed row s and picks up fill from each row operation; committed
	// rows are only read. The spike column's contribution shows up purely
	// in the diagonal: row op c hits column s at value w[c].
	f.stamp++
	rowW := f.step[:m]
	endS := f.urPtr[s] + f.urLen[s]
	for t := f.urPtr[s]; t < endS; t++ {
		c := f.urIdx[t]
		f.mark[c] = f.stamp
		rowW[c] = f.urVal[t]
	}
	etaStart := len(f.ftIdx)
	newDiag := w[s]
	for p := int(f.upos[s]) + 1; p < m; p++ {
		c := f.uord[p]
		if f.mark[c] != f.stamp {
			continue
		}
		v := rowW[c]
		if v == 0 {
			continue
		}
		mc := -v / f.uDiag[c]
		rend := f.urPtr[c] + f.urLen[c]
		for t := f.urPtr[c]; t < rend; t++ {
			j := f.urIdx[t]
			if f.mark[j] != f.stamp {
				f.mark[j] = f.stamp
				rowW[j] = 0
			}
			rowW[j] += mc * f.urVal[t]
		}
		newDiag += mc * w[c]
		f.ftIdx = append(f.ftIdx, c)
		f.ftVal = append(f.ftVal, mc)
	}
	if len(f.ftIdx) > etaStart {
		f.ftS = append(f.ftS, int32(s))
		f.ftPtr = append(f.ftPtr, int32(len(f.ftIdx)))
	}

	// Stability test: a diagonal that is absolutely tiny, or tiny relative
	// to the spike it came from, means heavy cancellation — committing it
	// would poison every later solve. Signal refactorization instead.
	if a := math.Abs(newDiag); a <= singularPivotTol || a < ftStabilityTol*maxw {
		return refactorUnstable
	}

	// Commit. Stale row-s entries leave their columns, stale column-s
	// entries leave their rows, the spike becomes the new column s (and is
	// mirrored into the row storage), and s rotates to the last logical
	// position. Physical blocks never move except by append, so all other
	// row/column views stay valid.
	for t := f.urPtr[s]; t < endS; t++ {
		j := f.urIdx[t]
		cend := f.ucPtr[j] + f.ucLen[j]
		for q := f.ucPtr[j]; q < cend; q++ {
			if int(f.ucIdx[q]) == s {
				f.ucIdx[q] = f.ucIdx[cend-1]
				f.ucVal[q] = f.ucVal[cend-1]
				f.ucLen[j]--
				break
			}
		}
	}
	cendS := f.ucPtr[s] + f.ucLen[s]
	for t := f.ucPtr[s]; t < cendS; t++ {
		r := f.ucIdx[t]
		rend := f.urPtr[r] + f.urLen[r]
		for q := f.urPtr[r]; q < rend; q++ {
			if int(f.urIdx[q]) == s {
				f.urIdx[q] = f.urIdx[rend-1]
				f.urVal[q] = f.urVal[rend-1]
				f.urLen[r]--
				break
			}
		}
	}
	f.ucPtr[s] = int32(len(f.ucIdx))
	n0 := len(f.ucIdx)
	for r := 0; r < m; r++ {
		if r == s || w[r] == 0 {
			continue
		}
		f.ucIdx = append(f.ucIdx, int32(r))
		f.ucVal = append(f.ucVal, w[r])
		f.addRowEntry(int32(r), int32(s), w[r])
	}
	f.ucLen[s] = int32(len(f.ucIdx) - n0)
	f.uDiag[s] = newDiag
	f.urLen[s] = 0

	ps := int(f.upos[s])
	copy(f.uord[ps:m-1], f.uord[ps+1:m])
	f.uord[m-1] = int32(s)
	for p := ps; p < m; p++ {
		f.upos[f.uord[p]] = int32(p)
	}

	f.nUpdates++
	bound := f.nnzU0 + etaNNZPerRow*m + refactorEvery
	switch {
	case f.nUpdates >= refactorEvery:
		return refactorPeriodic
	case len(f.ucIdx) > bound || len(f.urIdx) > bound || len(f.ftIdx) > bound:
		return refactorFill
	}
	return updateCommitted
}
