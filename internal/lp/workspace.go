// workspace.go owns every piece of mutable solver scratch the warm path
// needs, so that a long-lived Basis — the Benders slave carried across
// epochs by core.BendersSession, the per-shard sessions of the admission
// engine, the reopt controller's re-solve loop, the shared node basis of
// the milp branch-and-bound — amortizes all allocation across solves. After
// the first warm solve on a given problem structure, the steady-state
// SolveFrom path (factorize-check, ftran/btran, pricing, pivots, solution
// extraction, verification) performs zero heap allocations; the
// TestWarmSteadyStateZeroAllocs pin holds it there.
package lp

// grow returns a zeroed slice of length n, reusing buf's backing array when
// it is large enough. A fresh array gets a quarter more capacity than asked
// for: the Benders master gains one cut row per iteration, and with exact
// sizing every iteration's slightly larger tableau (m·w1 floats, megabytes on
// a metro pod) would be a new allocation. Callers only ever see len == n.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, n+n/4)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Resized returns s at length n and, where grow zeroes, keeps: every element
// s had room for — up to its capacity, so truncated ones too — is still there,
// for the sake of the storage it owns (a dropped row's terms; in core, a
// tenant's item lists).
func Resized[T any](s []T, n int) []T {
	if c := cap(s); c < n {
		s = append(s[:c], make([]T, n-c)...)
	}
	return s[:n]
}

// workspace is the reusable solver state owned by a Basis. It caches the
// problem's structural matrix in compressed-sparse-column form (rebuilt only
// when the problem's structural revision moves), the factorization engines,
// all iteration scratch, and the Solution buffers the warm path returns.
type workspace struct {
	// Structural cache validity: the problem pointer and its structural
	// revision at cache-build time. SetRHS/SetCost do not advance rev, so
	// the Benders slave's per-iteration RHS rewrites and the cross-epoch
	// refresh keep the cache; any AddVar/AddConstraint invalidates it.
	owner *Problem
	rev   int

	// Column-sparse structural A (caller row orientation), flattened.
	colPtr []int32
	colRow []int32
	colVal []float64

	sigma  []float64 // marker coefficient per row: +1 for ≤ and =, −1 for ≥
	pinned []bool    // = rows: marker may be basic at zero but never enters
	rhs    []float64 // current right-hand sides, refreshed per solve
	brhs   []float64 // bound-shifted RHS b̃ = b − Σ_{nonbasic at bound} A_j·x_j

	fillCur []int32 // CSC fill cursor scratch for structure rebuilds

	inBasis []bool

	// Iteration scratch, all m- or width-sized.
	xB    []float64 // basic variable values, aligned with Basis.cols
	y     []float64 // duals c_Bᵀ·B⁻¹, maintained incrementally per pivot
	u     []float64 // ftran result B⁻¹·A_enter (position-indexed)
	rho   []float64 // btran result: pivot row of B⁻¹ (row-indexed)
	unit  []float64 // all-zero vector; one entry set/cleared around btran
	scat  []float64 // row-space scatter buffer for ftran inputs
	dwRow []float64 // dual-simplex Devex row weights
	dwCol []float64 // primal-simplex Devex column weights

	// Bound-flip ratio test scratch: the dual simplex collects entering
	// candidates here, walks them in ratio order, and records the boxed
	// columns it flips; flips are then pushed through the factorization in
	// one batched ftran (batchIn/batchOut hold up to ftranBatchMax packed
	// m-vectors).
	candJ     []int
	candW     []float64
	candRatio []float64
	flipJ     []int
	flipDir   []float64
	batchIn   []float64
	batchOut  []float64

	// Solution buffers returned by the warm path. They are owned by the
	// Basis and overwritten by the next SolveFrom on it.
	x    []float64
	dual []float64
	ray  []float64
	sol  Solution

	r     revised
	lu    sparseLU
	stats FactorStats

	// Cold-path reuse: when SolveFrom falls back to the two-phase tableau
	// (or a reset Basis cold-starts, the milp.Solver pattern), its dense
	// state is carved out of these buffers instead of being reallocated.
	cold coldScratch
}

// prepare (re)binds the workspace to problem p and basis bs, rebuilding the
// structural caches only when the problem's structure changed, and
// refreshing the cheap per-solve state (RHS snapshot, basis membership).
// It returns the per-solve revised-simplex view.
func (b *Basis) prepare(p *Problem) *revised {
	if b.ws == nil {
		b.ws = &workspace{}
	}
	ws := b.ws
	m, n := len(p.rows), len(p.cost)

	if ws.owner != p || ws.rev != p.rev {
		// Structure changed (or first use): rebuild the CSC matrix and row
		// metadata, and drop any factorization taken on the old matrix.
		b.eng = nil
		ws.owner, ws.rev = p, p.rev
		nnz := 0
		for i := range p.rows {
			nnz += len(p.rows[i].terms)
		}
		ws.colPtr = grow(ws.colPtr, n+1)
		ws.colRow = grow(ws.colRow, nnz)
		ws.colVal = grow(ws.colVal, nnz)
		for i := range p.rows {
			for _, tm := range p.rows[i].terms {
				ws.colPtr[tm.Var+1]++
			}
		}
		for j := 0; j < n; j++ {
			ws.colPtr[j+1] += ws.colPtr[j]
		}
		ws.fillCur = grow(ws.fillCur, n)
		next := ws.fillCur
		copy(next, ws.colPtr[:n])
		for i := range p.rows {
			for _, tm := range p.rows[i].terms {
				t := next[tm.Var]
				ws.colRow[t] = int32(i)
				ws.colVal[t] = tm.Coef
				next[tm.Var] = t + 1
			}
		}

		ws.sigma = grow(ws.sigma, m)
		ws.pinned = grow(ws.pinned, m)
		for i := range p.rows {
			switch p.rows[i].sense {
			case LE:
				ws.sigma[i] = 1
			case GE:
				ws.sigma[i] = -1
			case EQ:
				ws.sigma[i] = 1
				ws.pinned[i] = true
			}
		}

		ws.rhs = grow(ws.rhs, m)
		ws.brhs = grow(ws.brhs, m)
		ws.candJ = grow(ws.candJ, n+m)
		ws.candW = grow(ws.candW, n+m)
		ws.candRatio = grow(ws.candRatio, n+m)
		ws.flipJ = grow(ws.flipJ, n+m)
		ws.flipDir = grow(ws.flipDir, n+m)
		ws.batchIn = grow(ws.batchIn, ftranBatchMax*m)
		ws.batchOut = grow(ws.batchOut, ftranBatchMax*m)
		ws.inBasis = grow(ws.inBasis, n+m)
		ws.xB = grow(ws.xB, m)
		ws.y = grow(ws.y, m)
		ws.u = grow(ws.u, m)
		ws.rho = grow(ws.rho, m)
		ws.unit = grow(ws.unit, m)
		ws.scat = grow(ws.scat, m)
		ws.dwRow = grow(ws.dwRow, m)
		ws.dwCol = grow(ws.dwCol, n+m)
		ws.x = grow(ws.x, n)
		ws.dual = grow(ws.dual, m)
		ws.ray = grow(ws.ray, m)
	}

	// Cheap per-solve refresh.
	for i := range p.rows {
		ws.rhs[i] = p.rows[i].rhs
	}
	inb := ws.inBasis[: n+m : n+m]
	for j := range inb {
		inb[j] = false
	}
	for _, c := range b.cols {
		if c >= 0 && c < n+m {
			inb[c] = true
		}
	}

	r := &ws.r
	*r = revised{
		p: p, m: m, n: n, width: n + m,
		ws:      ws,
		sigma:   ws.sigma[:m],
		pinned:  ws.pinned[:m],
		rhs:     ws.rhs[:m],
		bs:      b,
		inBasis: inb,
		xB:      ws.xB[:m],
		y:       ws.y[:m],
		bounded: p.bounded(),
	}
	if r.bounded && len(b.stat) >= n+m {
		r.stat = b.stat[: n+m : n+m]
	}
	return r
}
