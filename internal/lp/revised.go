// revised.go implements the warm-start half of the solver: a revised
// simplex over an explicit Basis (basic column set plus a factorized basis
// matrix — sparse LU with Forrest–Tomlin updates, see factor.go). Where the
// tableau in lp.go rebuilds everything from a cold start, SolveFrom
// re-enters from a previous optimal basis:
//
//   - right-hand-side and bound changes (the Benders slave rewrites only
//     RHS per iteration; the milp branch-and-bound rewrites only variable
//     bounds per node via SetBounds) leave the basis dual feasible, so a
//     handful of dual simplex pivots restore optimality;
//   - cost changes leave it primal feasible, so the primal revised simplex
//     re-optimizes directly;
//   - anything the warm path cannot certify — stale shape, a singular
//     basis, neither feasibility holding, or a failed post-solve check —
//     falls back to the cold two-phase tableau, which then recaptures the
//     basis. Warm starting is therefore always safe, merely sometimes slow.
//
// The column space matches the tableau's: structural variables 0..n-1
// followed by one marker column per row (slack for ≤, surplus for ≥, and a
// pinned pseudo-slack for = rows that may sit in the basis of a redundant
// row at level zero but never enters a pivot). Unlike the tableau, rows are
// kept in the caller's orientation — no sign flips — so duals and Farkas
// rays read off the factorization directly.
//
// Pricing: the dual simplex selects its leaving row by dual Devex weights
// (approximate steepest edge, updated for free from vectors the pivot
// already computes); the primal simplex prices entering columns by Devex
// reference weights. Both cut pivot counts on the larger instances without
// changing any correctness property, and both retain the Bland anti-cycling
// fallback after a degenerate-pivot budget. All scratch lives in the
// Basis-owned workspace (workspace.go): the steady-state warm solve —
// factorization reused, zero or few pivots — allocates nothing.
package lp

import "math"

// Basis is resumable solver state: the basic column set of a previous
// solve over the same problem shape, plus the factorized basis matrix and
// the reusable solver workspace. The zero value is an empty basis;
// SolveFrom on one cold-starts and captures. A Basis belongs to one Problem
// structure (same variable and row counts, same senses) whose RHS, costs
// and variable bounds may change between solves; it is not safe for
// concurrent use.
type Basis struct {
	m, n int   // shape (rows, structural variables) the basis was taken on
	cols []int // basic column per row position: j < n structural, n+r marker
	// stat records which bound each nonbasic column sits at (atLower or
	// atUpper), indexed like inBasis over [structurals | markers]. Entries
	// of basic columns are meaningless. Only consulted for problems with
	// variable bounds; zeroed (all at-lower) otherwise.
	stat []uint8
	// eng is the factorized basis matrix; nil ⇒ factorize on next use. It
	// points into ws-owned storage (ws.lu).
	eng factorEngine
	ws  *workspace
}

// Nonbasic bound statuses.
const (
	atLower uint8 = 0 // nonbasic at its lower bound (or at zero)
	atUpper uint8 = 1 // nonbasic at a finite upper bound
)

// Warm reports whether the basis holds resumable state matching p's shape.
func (b *Basis) Warm(p *Problem) bool {
	return b != nil && b.m == len(p.rows) && b.n == len(p.cost) && len(b.cols) == b.m
}

// Reset discards all solver state so the next SolveFrom cold-starts, on
// this problem or any other. The workspace (allocated scratch, the cold
// tableau included) is deliberately kept: a milp.Solver resets before every
// search, and a Benders session's slave resets when it is rebuilt into a
// cleared problem after a shape change — neither should re-pay allocation,
// and neither can tell the kept memory from fresh (the next solve takes a
// fresh Basis's pivot path bit for bit).
func (b *Basis) Reset() {
	b.m, b.n, b.eng = 0, 0, nil
	b.cols = b.cols[:0]
	b.stat = b.stat[:0]
}

// capture stores the final basis of a cold tableau solve. Rows that ended
// on a virtual artificial (redundant rows) are mapped to their marker
// column; if that marker is already basic elsewhere the resulting matrix is
// singular and the next warm attempt will detect it and fall back.
func (b *Basis) capture(t *tableau) {
	b.m, b.n = t.m, t.n
	b.cols = grow(b.cols, t.m)
	b.stat = grow(b.stat, t.width) // all nonbasic columns sit at zero
	for i, c := range t.basis {
		if c >= t.width {
			c = t.n + i
		}
		b.cols[i] = c
	}
	b.eng = nil
}

// captureBounded folds the final basis of a bound-row expansion tableau
// (see solveCold, coldScratch.expandBounds) into a bounded-variable basis
// over the original m rows. A structural variable joins the basic set iff it is basic in the
// expansion with every one of its bound-row markers also basic (a nonbasic
// bound marker means that bound is tight, so the variable really sits at a
// bound); original-row markers carry over directly. Nonbasic statuses are
// read off the same markers: a tight lower-bound row (or full exclusion
// from the expanded basis, which forces x_j = 0 = lo) records atLower, a
// tight upper-bound row atUpper. Counting shows the fold yields exactly m
// columns whenever every bound row keeps one of its (variable, marker)
// pair basic — true of any nonsingular expanded basis; degenerate corners
// (redundant rows captured on their pinned marker) can still produce a
// singular set, which the next warm attempt detects and resolves with a
// cold solve. The construction reads only the deterministic tableau end
// state, so recapture is reproducible bit for bit.
func (b *Basis) captureBounded(p *Problem, t *tableau) {
	m, n := len(p.rows), len(p.cost)
	cs := &b.ws.cold
	lbRow, ubRow := cs.lbRow, cs.ubRow
	cs.structBasic = grow(cs.structBasic, n)
	cs.expMarkerBasic = grow(cs.expMarkerBasic, t.m)
	structBasic, markerBasic := cs.structBasic, cs.expMarkerBasic
	for i, c := range t.basis {
		if c >= t.width {
			c = t.n + i // virtual artificial of a redundant row → its marker
		}
		if c < n {
			structBasic[c] = true
		} else {
			markerBasic[c-n] = true
		}
	}

	b.m, b.n = m, n
	b.cols = grow(b.cols, m)[:0]
	b.stat = grow(b.stat, n+m)
	for j := 0; j < n; j++ {
		lbFree := lbRow[j] < 0 || markerBasic[lbRow[j]]
		ubFree := ubRow[j] < 0 || markerBasic[ubRow[j]]
		if structBasic[j] && lbFree && ubFree {
			b.cols = append(b.cols, j)
			continue
		}
		if structBasic[j] && lbFree && !ubFree {
			b.stat[j] = atUpper
		}
	}
	for rIdx := 0; rIdx < m; rIdx++ {
		if markerBasic[rIdx] {
			b.cols = append(b.cols, n+rIdx)
		}
	}
	if len(b.cols) != m {
		b.Reset() // fold failed (degenerate expansion); next solve is cold
		return
	}
	b.eng = nil
}

// SolveFrom solves the problem starting from a previous basis, updating
// basis in place so the next call re-enters from this solve's endpoint.
// A nil basis is identical to Solve. Results are equivalent to those Solve
// would produce (same statuses, duals oriented the same way, Farkas rays
// valid for the same certificate check); only the pivot path differs.
//
// Ownership: on the warm path the returned Solution and its X/Dual/Ray
// slices are views into basis-owned buffers, valid until the next SolveFrom
// on the same basis. Callers that keep values across solves must copy them
// (every caller in this repository does).
func (p *Problem) SolveFrom(basis *Basis) (*Solution, error) {
	if basis == nil {
		return p.Solve()
	}
	if basis.Warm(p) {
		if sol, ok := p.solveWarm(basis); ok {
			return sol, nil
		}
	}
	return p.solveCold(basis)
}

// Reduced-cost slack accepted when testing whether a stale basis is still
// dual feasible; looser than costTol so harmless drift from the previous
// solve does not force a cold restart.
const warmDualTol = 1e-7

// warmStatus is the outcome of one revised-simplex loop.
type warmStatus int

const (
	warmOptimal warmStatus = iota
	warmInfeasible
	warmUnbounded
	warmBail // numerical trouble or budget exhausted: fall back to cold
)

// revised is the per-solve working state of the warm-start engine, a view
// assembled by workspace.prepare. It mutates the Basis it was built from in
// place, so the caller's handle tracks every pivot.
type revised struct {
	p     *Problem
	m, n  int
	width int

	ws     *workspace
	sigma  []float64 // marker coefficient per row: +1 for ≤ and =, −1 for ≥
	pinned []bool    // = rows: marker may be basic at zero but never enters
	rhs    []float64

	bs      *Basis
	inBasis []bool
	xB      []float64 // basic variable values, aligned with bs.cols
	y       []float64 // duals c_Bᵀ·B⁻¹, updated incrementally per pivot
	pivots  int
	ray     []float64 // Farkas certificate when dual simplex proves infeasible

	// Bounded-variable state: bounded mirrors p.bounded(); stat is the
	// basis' nonbasic bound statuses (nil when the basis predates the
	// problem's bounds, which sends the warm path cold to recapture).
	bounded bool
	stat    []uint8
}

// loCol/upCol return the bound range of column j: structural variables read
// the problem's bounds, markers are slacks in [0, ∞).
func (r *revised) loCol(j int) float64 {
	if r.bounded && j < r.n {
		return r.p.lo[j]
	}
	return 0
}

func (r *revised) upCol(j int) float64 {
	if r.bounded && j < r.n {
		return r.p.up[j]
	}
	return math.Inf(1)
}

// colAtUpper reports whether nonbasic column j sits at a finite upper
// bound. A stale atUpper status (the caller widened the bound to +∞
// between solves) reads as at-lower; the feasibility checks then repair or
// reject the basis as usual.
func (r *revised) colAtUpper(j int) bool {
	return r.stat != nil && r.stat[j] == atUpper && !math.IsInf(r.upCol(j), 1)
}

// valCol is the current value of nonbasic column j.
func (r *revised) valCol(j int) float64 {
	if r.colAtUpper(j) {
		return r.upCol(j)
	}
	return r.loCol(j)
}

// fixedCol reports lo == up: a fixed column never enters the basis and its
// reduced cost may take any sign without breaking dual feasibility.
func (r *revised) fixedCol(j int) bool {
	return r.bounded && j < r.n && r.p.lo[j] == r.p.up[j]
}

// solveWarm attempts the revised-simplex warm path; ok == false means the
// caller must fall back to a cold solve.
func (p *Problem) solveWarm(bs *Basis) (*Solution, bool) {
	r := bs.prepare(p)
	st := &r.ws.stats
	if r.bounded && r.stat == nil {
		st.ColdStaleBounds++ // basis predates the bounds: recapture cold
		return nil, false
	}
	if !r.ensureFactorized() {
		st.ColdSingular++
		return nil, false
	}
	r.computeXB()
	if r.pinnedViolated() {
		st.ColdNotFeasible++
		return nil, false
	}
	r.computeY()

	var end warmStatus
	switch {
	case r.dualFeasible():
		end = r.dualSimplex()
	case r.primalFeasible():
		end = r.primalSimplex()
	default:
		st.ColdNotFeasible++
		return nil, false
	}

	switch end {
	case warmOptimal:
		sol := r.optimalSolution()
		if !r.verifyOptimal(sol) {
			st.ColdUnverified++
			return nil, false
		}
		return sol, true
	case warmInfeasible:
		if !r.verifyRay() {
			st.ColdUnverified++
			return nil, false
		}
		sol := &r.ws.sol
		*sol = Solution{Status: Infeasible, Ray: r.ray, Pivots: r.pivots}
		return sol, true
	case warmUnbounded:
		// Unbounded is rare on the workloads that warm-start (bounded
		// slave LPs); re-derive it from the cold path where the result is
		// established by the tableau's own certificates.
		st.ColdUnbounded++
		return nil, false
	default:
		st.ColdBailed++
		return nil, false
	}
}

// pinnedViolated reports whether an equality pseudo-slack sits in the basis
// away from zero — a state the pivot rules cannot repair (it would need a
// phase-1 restart), so the warm path declines it.
func (r *revised) pinnedViolated() bool {
	for i, c := range r.bs.cols {
		if c >= r.n && r.pinned[c-r.n] && math.Abs(r.xB[i]) > feasTol {
			return true
		}
	}
	return false
}

// colNNZ returns the nonzero count of column j of [A | markers].
func (r *revised) colNNZ(j int) int {
	if j < 0 || j >= r.width {
		return 0
	}
	if j < r.n {
		return int(r.ws.colPtr[j+1] - r.ws.colPtr[j])
	}
	return 1
}

// colDot returns vᵀ·A_j for a row-indexed v.
func (r *revised) colDot(v []float64, j int) float64 {
	if j >= r.n {
		row := j - r.n
		return v[row] * r.sigma[row]
	}
	ws := r.ws
	s := 0.0
	for t := ws.colPtr[j]; t < ws.colPtr[j+1]; t++ {
		s += v[ws.colRow[t]] * ws.colVal[t]
	}
	return s
}

// scatterCol writes column j of [A | markers] into the row-space buffer
// dst (assumed zero) and returns it; clearCol undoes the scatter.
func (r *revised) scatterCol(j int, dst []float64) {
	if j >= r.n {
		row := j - r.n
		dst[row] += r.sigma[row]
		return
	}
	ws := r.ws
	for t := ws.colPtr[j]; t < ws.colPtr[j+1]; t++ {
		dst[ws.colRow[t]] += ws.colVal[t]
	}
}

func (r *revised) clearCol(j int, dst []float64) {
	if j >= r.n {
		dst[j-r.n] = 0
		return
	}
	ws := r.ws
	for t := ws.colPtr[j]; t < ws.colPtr[j+1]; t++ {
		dst[ws.colRow[t]] = 0
	}
}

// ftran computes u = B⁻¹·A_j into the workspace u buffer.
func (r *revised) ftran(j int) []float64 {
	ws := r.ws
	r.scatterCol(j, ws.scat)
	r.bs.eng.ftran(ws.scat, ws.u)
	r.clearCol(j, ws.scat)
	return ws.u[:r.m]
}

// btranRow computes ρ = e_posᵀ·B⁻¹ (row `pos` of the basis inverse, in the
// caller's row orientation) into the workspace rho buffer.
func (r *revised) btranRow(pos int) []float64 {
	ws := r.ws
	ws.unit[pos] = 1
	r.bs.eng.btran(ws.unit, ws.rho)
	ws.unit[pos] = 0
	return ws.rho[:r.m]
}

// costOfCol is the phase-2 cost of a column (markers cost nothing).
func (r *revised) costOfCol(j int) float64 {
	if j < r.n {
		return r.p.cost[j]
	}
	return 0
}

// reducedCost returns d_j = c_j − yᵀ·A_j for the current duals.
func (r *revised) reducedCost(j int) float64 {
	return r.costOfCol(j) - r.colDot(r.y, j)
}

// ensureFactorized (re)builds the basis factorization from the basic column
// set; false means B is singular. The engine is the workspace's sparse LU
// (a test's oracleEngine aside).
func (r *revised) ensureFactorized() bool {
	if r.bs.eng != nil {
		return true
	}
	eng := factorEngine(&r.ws.lu)
	if oracleEngine != nil {
		eng = oracleEngine()
	}
	if !eng.refactor(r) {
		r.ws.stats.Singular++
		return false
	}
	r.bs.eng = eng
	return true
}

// refactorize rebuilds the factorization in place and refreshes the
// incrementally maintained vectors; false means B went singular.
func (r *revised) refactorize() bool {
	r.bs.eng = nil
	if !r.ensureFactorized() {
		return false
	}
	r.computeXB()
	r.computeY()
	return true
}

// computeXB refreshes x_B = B⁻¹·b̃, where b̃ shifts the RHS by the nonbasic
// columns pinned at nonzero bound values (b̃ = b for bound-free problems).
func (r *revised) computeXB() {
	rhs := r.rhs
	if r.bounded {
		ws := r.ws
		b := ws.brhs[:r.m]
		copy(b, r.rhs)
		for j := 0; j < r.n; j++ {
			if r.inBasis[j] {
				continue
			}
			if v := r.valCol(j); v != 0 {
				for t := ws.colPtr[j]; t < ws.colPtr[j+1]; t++ {
					b[ws.colRow[t]] -= ws.colVal[t] * v
				}
			}
		}
		rhs = b
	}
	r.bs.eng.ftran(rhs, r.xB)
}

// computeY refreshes y = c_Bᵀ·B⁻¹ exactly: scatter the basic costs into
// position space and btran them through the factorization.
func (r *revised) computeY() {
	cb := r.ws.scat[:r.m] // borrow the scatter buffer for position space
	for i, c := range r.bs.cols {
		cb[i] = r.costOfCol(c)
	}
	r.bs.eng.btran(cb, r.y)
	for i := range cb {
		cb[i] = 0
	}
}

// dualFeasible reports sign-correct reduced costs over every enterable
// nonbasic column: d_j ≥ −tol at a lower bound, d_j ≤ tol at an upper
// bound; fixed columns are feasible at any sign.
func (r *revised) dualFeasible() bool {
	for j := 0; j < r.width; j++ {
		if r.inBasis[j] || (j >= r.n && r.pinned[j-r.n]) || r.fixedCol(j) {
			continue
		}
		d := r.reducedCost(j)
		if r.colAtUpper(j) {
			if d > warmDualTol {
				return false
			}
		} else if d < -warmDualTol {
			return false
		}
	}
	return true
}

// primalFeasible reports x_B within bounds (≥ −tol for bound-free problems).
func (r *revised) primalFeasible() bool {
	if !r.bounded {
		for _, v := range r.xB {
			if v < -feasTol {
				return false
			}
		}
		return true
	}
	for i, v := range r.xB {
		c := r.bs.cols[i]
		if v < r.loCol(c)-feasTol || v > r.upCol(c)+feasTol {
			return false
		}
	}
	return true
}

// budget mirrors the tableau's pivot limits.
func (r *revised) budget() (maxPivots, blandAfter int) {
	return 200 * (r.m + r.width + 10), 20 * (r.m + r.width + 10)
}

// pivotUpdate makes column enter basic in row leave, given u = B⁻¹·A_enter,
// the primal step theta (x_B ← x_B − θ·u off the pivot row), the entering
// variable's landing value, and the bound status the leaving variable
// settles at. The factorization absorbs the pivot as a Forrest–Tomlin
// update, and a periodic full refactorization flushes accumulated roundoff.
// false means refactorization found B singular (caller bails to cold).
func (r *revised) pivotUpdate(leave, enter int, u []float64, theta, enterVal float64, leaveStat uint8) bool {
	r.pivots++
	for i := 0; i < r.m; i++ {
		if i == leave {
			continue
		}
		if f := u[i]; f != 0 {
			r.xB[i] -= f * theta
		}
	}
	r.xB[leave] = enterVal

	left := r.bs.cols[leave]
	r.inBasis[left] = false
	r.inBasis[enter] = true
	r.bs.cols[leave] = enter
	if r.stat != nil {
		r.stat[left] = leaveStat
		r.stat[enter] = atLower // meaningless while basic; keep deterministic
	}

	st := &r.ws.stats
	outcome := r.bs.eng.update(leave, u)
	if outcome != refactorUnstable {
		st.Updates++
	}
	switch outcome {
	case updateCommitted:
		return true
	case refactorPeriodic:
		st.RefactorPeriodic++
	case refactorFill:
		st.RefactorFill++
	case refactorUnstable:
		st.RefactorUnstable++
	}
	return r.refactorize()
}

// applyFlips pushes nf recorded bound flips (workspace flipJ/flipDir)
// through the basis: each flipped column j moves by flipDir_j = ±(up−lo),
// so x_B ← x_B − Σ_j flipDir_j·B⁻¹·A_j. The B⁻¹ solves run through the
// engine's batched multi-RHS ftran — one factor traversal per
// ftranBatchMax columns instead of one traversal each.
func (r *revised) applyFlips(nf int) {
	ws := r.ws
	m := r.m
	for base := 0; base < nf; base += ftranBatchMax {
		k := nf - base
		if k > ftranBatchMax {
			k = ftranBatchMax
		}
		in := ws.batchIn[: k*m : k*m]
		for i := range in {
			in[i] = 0
		}
		for b := 0; b < k; b++ {
			r.scatterCol(ws.flipJ[base+b], in[b*m:(b+1)*m])
		}
		out := ws.batchOut[:k*m]
		r.bs.eng.ftranBatch(in, k, out)
		for b := 0; b < k; b++ {
			d := ws.flipDir[base+b]
			ub := out[b*m : (b+1)*m]
			for i := 0; i < m; i++ {
				if v := ub[i]; v != 0 {
					r.xB[i] -= d * v
				}
			}
			r.stat[ws.flipJ[base+b]] ^= 1
		}
	}
}

// dualSimplex restores primal feasibility from a dual-feasible basis after
// a right-hand-side (or bound) change: pick the leaving row by dual Devex
// weights (largest violation in the approximate steepest-edge norm), pick
// the entering column by the bound-flip dual ratio test, pivot, repeat.
//
// The bound-flip ratio test (BFRT) generalizes the classical dual ratio
// test to boxed columns: candidates are walked in ratio order, and a boxed
// candidate whose entire range cannot absorb the remaining violation is
// *flipped* to its opposite bound instead of entering — the violation
// shrinks, dual feasibility is untouched (the flip changes no reduced
// cost), and the walk continues until some candidate must truly enter.
// Flipped columns' B⁻¹ images are applied to x_B through one batched
// multi-RHS ftran. On bound-free problems every range is infinite, no flip
// ever fires, and the pivot sequence is identical to the classical test.
//
// No admissible entering column proves (box-)infeasibility, with the
// certificate f = −dir·ρ read off the violated row of B⁻¹ (see verifyRay).
func (r *revised) dualSimplex() warmStatus {
	maxPivots, blandAfter := r.budget()
	dw := r.ws.dwRow[:r.m]
	for i := range dw {
		dw[i] = 1
	}
	for iter := 0; ; iter++ {
		if iter >= maxPivots {
			return warmBail
		}
		bland := iter >= blandAfter

		// Leaving row: a basic variable outside its range. delta is the
		// signed violation relative to the bound it must return to.
		leave := -1
		delta := 0.0
		if bland {
			for i, v := range r.xB {
				if lo := r.loCol(r.bs.cols[i]); v < lo-feasTol {
					leave, delta = i, v-lo // smallest violated row index wins
					break
				}
				if r.bounded {
					if up := r.upCol(r.bs.cols[i]); v > up+feasTol {
						leave, delta = i, v-up
						break
					}
				}
			}
		} else {
			best := 0.0
			for i, v := range r.xB {
				d := 0.0
				if lo := r.loCol(r.bs.cols[i]); v < lo-feasTol {
					d = v - lo
				} else if r.bounded {
					if up := r.upCol(r.bs.cols[i]); v > up+feasTol {
						d = v - up
					}
				}
				if d != 0 {
					if score := d * d / dw[i]; score > best {
						best, leave, delta = score, i, d
					}
				}
			}
		}
		if leave < 0 {
			return warmOptimal
		}
		// dir orients the ratio test: +1 repairs a below-lower violation,
		// −1 an above-upper one.
		dir := 1.0
		leaveStat := atLower
		if delta > 0 {
			dir, leaveStat = -1, atUpper
		}
		target := r.xB[leave] - delta // the violated bound's value

		rho := r.btranRow(leave)

		// Collect the entering candidates and their dual ratios.
		nc := 0
		candJ, candW, candRatio := r.ws.candJ, r.ws.candW, r.ws.candRatio
		for j := 0; j < r.width; j++ {
			if r.inBasis[j] || (j >= r.n && r.pinned[j-r.n]) || r.fixedCol(j) {
				continue
			}
			w := r.colDot(rho, j)
			var ratio float64
			if r.colAtUpper(j) {
				if dir*w <= pivotTol {
					continue
				}
				d := math.Max(-r.reducedCost(j), 0)
				ratio = d / (dir * w)
			} else {
				if dir*w >= -pivotTol {
					continue
				}
				d := math.Max(r.reducedCost(j), 0)
				ratio = d / -(dir * w)
			}
			candJ[nc], candW[nc], candRatio[nc] = j, w, ratio
			nc++
		}
		if nc == 0 {
			// Row `leave` pins Σ_j w_j·x_j to a value the nonbasic ranges
			// cannot absorb: infeasible. f = −dir·ρ is the certificate.
			ray := r.ws.ray[:r.m]
			for k := 0; k < r.m; k++ {
				ray[k] = -dir * rho[k]
			}
			r.ray = ray
			return warmInfeasible
		}

		// BFRT walk: repeatedly take the min-(ratio, index) candidate.
		nf := 0
		enter := -1
		wq := 0.0
		rem := delta
		for nc > 0 {
			bi := 0
			for k := 1; k < nc; k++ {
				if candRatio[k] < candRatio[bi]-1e-12 ||
					(candRatio[k] < candRatio[bi]+1e-12 && candJ[k] < candJ[bi]) {
					bi = k
				}
			}
			j, w := candJ[bi], candW[bi]
			if r.bounded {
				rng := r.upCol(j) - r.loCol(j)
				if !math.IsInf(rng, 1) && math.Abs(w)*rng < math.Abs(rem)-feasTol {
					fd := rng // at lower: flips up by the range
					if r.colAtUpper(j) {
						fd = -rng
					}
					r.ws.flipJ[nf], r.ws.flipDir[nf] = j, fd
					nf++
					rem -= w * fd
					nc--
					candJ[bi], candW[bi], candRatio[bi] = candJ[nc], candW[nc], candRatio[nc]
					continue
				}
			}
			enter, wq = j, w
			break
		}
		if nf > 0 {
			r.applyFlips(nf)
		}
		if enter < 0 {
			continue // every candidate flipped; re-select the leaving row
		}

		u := r.ftran(enter)
		alpha := u[leave]
		if math.Abs(alpha) <= pivotTol {
			return warmBail // factorization too stale for this pivot
		}

		// Incremental dual update: y ← y + (d_q/w_q)·ρ keeps reduced costs
		// current without a btran per pricing pass; computeY at every
		// refactorization flushes the drift. Bound flips never touch y.
		if step := r.reducedCost(enter) / wq; step != 0 {
			for i := 0; i < r.m; i++ {
				r.y[i] += step * rho[i]
			}
		}

		// Dual Devex weight update, free from vectors already in hand.
		// Skipped once Bland selection is active: it never reads dw again.
		if !bland {
			wr := dw[leave]
			inv2 := 1 / (alpha * alpha)
			for i := 0; i < r.m; i++ {
				if i == leave {
					continue
				}
				if ui := u[i]; ui != 0 {
					if s := ui * ui * inv2 * wr; s > dw[i] {
						dw[i] = s
					}
				}
			}
			if dw[leave] = wr * inv2; dw[leave] < 1 {
				dw[leave] = 1
			}
		}

		theta := (r.xB[leave] - target) / alpha
		if !r.pivotUpdate(leave, enter, u, theta, r.valCol(enter)+theta, leaveStat) {
			return warmBail
		}
	}
}

// primalSimplex re-optimizes from a primal-feasible basis after a cost
// change: revised primal iterations with Devex reference-weight pricing and
// a Bland fallback. With variable bounds, a column at its upper bound
// enters *downward* when its reduced cost is positive, basic variables can
// block at either end of their range, and the entering column's own range
// is a ratio-test candidate — crossing it is a bound flip with no pivot.
func (r *revised) primalSimplex() warmStatus {
	maxPivots, blandAfter := r.budget()
	dw := r.ws.dwCol[:r.width]
	for j := range dw {
		dw[j] = 1
	}
	for iter := 0; ; iter++ {
		if iter >= maxPivots {
			return warmBail
		}
		bland := iter >= blandAfter

		enter := -1
		dir := 1.0
		if bland {
			for j := 0; j < r.width; j++ {
				if r.inBasis[j] || (j >= r.n && r.pinned[j-r.n]) || r.fixedCol(j) {
					continue
				}
				d := r.reducedCost(j)
				if r.colAtUpper(j) {
					if d > costTol {
						enter, dir = j, -1
						break
					}
				} else if d < -costTol {
					enter, dir = j, 1
					break
				}
			}
		} else {
			best := 0.0
			for j := 0; j < r.width; j++ {
				if r.inBasis[j] || (j >= r.n && r.pinned[j-r.n]) || r.fixedCol(j) {
					continue
				}
				d := r.reducedCost(j)
				if r.colAtUpper(j) {
					if d <= costTol {
						continue
					}
				} else if d >= -costTol {
					continue
				}
				if score := d * d / dw[j]; score > best {
					best, enter = score, j
					if d > 0 {
						dir = -1
					} else {
						dir = 1
					}
				}
			}
		}
		if enter < 0 {
			return warmOptimal
		}

		u := r.ftran(enter)
		leave := -1
		leaveStat := atLower
		bestRatio := math.Inf(1)
		if r.bounded {
			// The entering column's own range blocks first when no basic
			// variable does: crossing it is a bound flip.
			bestRatio = r.upCol(enter) - r.loCol(enter)
		}
		for i := 0; i < r.m; i++ {
			du := dir * u[i]
			var ratio float64
			var st uint8
			if du > pivotTol {
				ratio = (r.xB[i] - r.loCol(r.bs.cols[i])) / du
				st = atLower
			} else if r.bounded && du < -pivotTol {
				up := r.upCol(r.bs.cols[i])
				if math.IsInf(up, 1) {
					continue
				}
				ratio = (r.xB[i] - up) / du
				st = atUpper
			} else {
				continue
			}
			if ratio < bestRatio-1e-12 ||
				(ratio < bestRatio+1e-12 && (leave < 0 || r.bs.cols[i] < r.bs.cols[leave])) {
				bestRatio, leave, leaveStat = ratio, i, st
			}
		}
		if leave < 0 {
			if math.IsInf(bestRatio, 1) {
				return warmUnbounded
			}
			// Bound flip: the entering column crosses its whole range
			// before any basic variable blocks. The basis is unchanged and
			// the objective strictly improves by |d|·range.
			theta := dir * bestRatio
			for i := 0; i < r.m; i++ {
				if v := u[i]; v != 0 {
					r.xB[i] -= v * theta
				}
			}
			r.stat[enter] ^= 1
			continue
		}
		alpha := u[leave]

		// Devex reference-weight update over the pivot row — the one
		// O(nnz) sweep Devex costs per pivot — plus the incremental dual
		// update (same formula as the dual simplex). The weight sweep is
		// skipped once Bland selection is active (it never reads dw
		// again); ρ is still needed for the dual update.
		rho := r.btranRow(leave)
		dq := r.reducedCost(enter)
		if !bland {
			gq := dw[enter]
			inv2 := 1 / (alpha * alpha)
			leaveCol := r.bs.cols[leave]
			for j := 0; j < r.width; j++ {
				if r.inBasis[j] || j == enter || (j >= r.n && r.pinned[j-r.n]) {
					continue
				}
				aj := r.colDot(rho, j)
				if aj == 0 {
					continue
				}
				if s := aj * aj * inv2 * gq; s > dw[j] {
					dw[j] = s
				}
			}
			if dw[leaveCol] = gq * inv2; dw[leaveCol] < 1 {
				dw[leaveCol] = 1
			}
		}
		if step := dq / alpha; step != 0 {
			for i := 0; i < r.m; i++ {
				r.y[i] += step * rho[i]
			}
		}

		theta := dir * bestRatio
		if !r.pivotUpdate(leave, enter, u, theta, r.valCol(enter)+theta, leaveStat) {
			return warmBail
		}
	}
}

// optimalSolution extracts primal values, objective and duals at the
// current basis into workspace-owned buffers. Rows were never flipped, so
// duals come out already in the caller's orientation. The duals are
// recomputed exactly from the factorization — not the incrementally
// updated y — so pivot-drift never reaches callers.
func (r *revised) optimalSolution() *Solution {
	ws := r.ws
	x := ws.x[:r.n]
	if r.bounded {
		for j := range x {
			if r.inBasis[j] {
				x[j] = 0
			} else {
				x[j] = r.valCol(j) // nonbasic structurals sit at a bound
			}
		}
	} else {
		for j := range x {
			x[j] = 0
		}
	}
	obj := 0.0
	for i, c := range r.bs.cols {
		if c < r.n {
			x[c] = r.xB[i]
			obj += r.p.cost[c] * r.xB[i]
		}
	}
	if r.bounded {
		for j := 0; j < r.n; j++ {
			if !r.inBasis[j] {
				if v := x[j]; v != 0 {
					obj += r.p.cost[j] * v
				}
			}
		}
	}
	r.computeY()
	dual := ws.dual[:r.m]
	copy(dual, r.y)
	sol := &ws.sol
	*sol = Solution{Status: Optimal, Obj: obj, X: x, Dual: dual, Pivots: r.pivots}
	return sol
}

// verifyOptimal cross-checks a warm optimum the way the package tests do —
// primal feasibility row by row and strong duality — so a numerically
// degraded basis can never silently return a wrong answer; a failed check
// sends the caller to the cold path.
func (r *revised) verifyOptimal(sol *Solution) bool {
	if !r.p.feasibleAt(sol.X) {
		return false
	}
	dualObj := 0.0
	for i, d := range sol.Dual {
		dualObj += d * r.p.rows[i].rhs
	}
	if r.bounded {
		// Bound duals live in the nonbasic reduced costs: strong duality
		// over a box reads Obj = y·b + Σ_{nonbasic j} d_j·x_j.
		for j := 0; j < r.n; j++ {
			if r.inBasis[j] {
				continue
			}
			if v := sol.X[j]; v != 0 {
				dualObj += r.reducedCost(j) * v
			}
		}
	}
	return math.Abs(dualObj-sol.Obj) <= 1e-6*(1+math.Abs(sol.Obj))
}

// verifyRay checks the Farkas certificate exactly as callers will:
// sense-consistent signs and, over a box, more demand than the variable
// ranges can absorb: f·b − Σ_{fᵀA_j>0} (fᵀA_j)·up_j − Σ_{fᵀA_j<0}
// (fᵀA_j)·lo_j > 0. For bound-free problems (up = ∞, lo = 0) this is the
// classical fᵀA ≤ 0 on every structural column with f·b > 0.
func (r *revised) verifyRay() bool {
	rb := 0.0
	for i := range r.p.rows {
		row := &r.p.rows[i]
		f := r.ray[i]
		switch row.sense {
		case LE:
			if f > 1e-7 {
				return false
			}
		case GE:
			if f < -1e-7 {
				return false
			}
		}
		rb += f * row.rhs
	}
	for j := 0; j < r.n; j++ {
		fa := r.colDot(r.ray, j)
		if fa > 1e-6 {
			up := r.upCol(j)
			if math.IsInf(up, 1) {
				return false
			}
			rb -= fa * up
		} else if fa < -1e-6 {
			if lo := r.loCol(j); lo > 0 {
				rb -= fa * lo
			}
		}
	}
	return rb > 1e-9
}
