package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is the direction of a linear constraint.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // aᵢ·x ≤ bᵢ
	GE              // aᵢ·x ≥ bᵢ
	EQ              // aᵢ·x = bᵢ
)

// String returns the conventional mathematical symbol for the sense.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return fmt.Sprintf("Sense(%d)", int(s))
}

// Status reports the outcome of a Solve call.
type Status int

// Solver outcomes.
const (
	Optimal    Status = iota // an optimal basic feasible solution was found
	Infeasible               // no feasible point exists; a Farkas ray is available
	Unbounded                // the objective decreases without bound
	IterLimit                // the pivot budget was exhausted (numerical trouble)
)

// String names the status for logs and test failures.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Term is a single coefficient applied to a variable in a constraint row.
type Term struct {
	Var  int     // variable index returned by AddVar
	Coef float64 // coefficient multiplying the variable
}

// T is shorthand for constructing a Term.
func T(v int, coef float64) Term { return Term{Var: v, Coef: coef} }

type row struct {
	terms []Term
	sense Sense
	rhs   float64
}

// Problem is a linear program under construction. The zero value is an
// empty minimization problem, ready to use (New returns one on the heap).
type Problem struct {
	cost []float64
	rows []row
	// lo/up are the variable bounds, materialized lazily by the first
	// SetBounds call; empty (emptied storage counts, not just nil) means
	// every variable keeps the default [0, +∞) range. Invariant:
	// 0 ≤ lo[j] ≤ up[j], with up[j] = +Inf for unbounded.
	lo, up []float64
	// rev counts structural mutations (AddVar, AddConstraint, TruncateRows,
	// CloneInto's overwrite) and only ever grows. SetRHS, SetCost and
	// SetBounds deliberately do not advance it: a Basis workspace caches the
	// problem's sparse matrix keyed on (pointer, rev), and RHS/cost/bound
	// rewrites — the warm-start access patterns, and branch-and-bound's
	// per-node bounds — must keep that cache valid.
	rev int
}

// New returns an empty minimization problem.
func New() *Problem { return &Problem{} }

// AddVar adds a variable with the given objective cost and returns its
// index. All variables are implicitly bounded below by zero.
func (p *Problem) AddVar(cost float64) int {
	p.cost = append(p.cost, cost)
	if p.bounded() {
		p.lo = append(p.lo, 0)
		p.up = append(p.up, math.Inf(1))
	}
	p.rev++
	return len(p.cost) - 1
}

// SetBounds restricts variable v to the range [lo, up]. Bounds are handled
// natively by the bounded-variable simplex — no constraint rows are added —
// so rewriting them between solves (the branch-and-bound fixing pattern) is
// as cheap as SetRHS and keeps every warm-start cache valid. lo must satisfy
// 0 ≤ lo ≤ up; use math.Inf(1) for an unbounded upper range. lo == up fixes
// the variable.
func (p *Problem) SetBounds(v int, lo, up float64) {
	if lo < 0 || up < lo || math.IsNaN(lo) || math.IsNaN(up) {
		panic(fmt.Sprintf("lp: SetBounds(%d, %g, %g): need 0 <= lo <= up", v, lo, up))
	}
	if !p.bounded() {
		p.lo = grow(p.lo, len(p.cost))
		p.up = grow(p.up, len(p.cost))
		for j := range p.up {
			p.up[j] = math.Inf(1)
		}
	}
	p.lo[v] = lo
	p.up[v] = up
}

// Bounds returns the [lo, up] range of variable v.
func (p *Problem) Bounds(v int) (lo, up float64) {
	if !p.bounded() {
		return 0, math.Inf(1)
	}
	return p.lo[v], p.up[v]
}

// bounded reports whether any variable carries a non-default bound range.
// The solver paths stay byte-identical to their pre-bounds behavior when
// this is false.
func (p *Problem) bounded() bool { return len(p.lo) != 0 }

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.cost) }

// NumRows returns the number of constraint rows added so far.
func (p *Problem) NumRows() int { return len(p.rows) }

// SetCost overwrites the objective coefficient of variable v.
func (p *Problem) SetCost(v int, cost float64) { p.cost[v] = cost }

// Cost returns the objective coefficient of variable v.
func (p *Problem) Cost(v int) float64 { return p.cost[v] }

// AddConstraint appends the row  Σ terms {sense} rhs  and returns its index.
// Terms referencing the same variable are accumulated.
func (p *Problem) AddConstraint(sense Sense, rhs float64, terms ...Term) int {
	i := len(p.rows)
	p.rows = Resized(p.rows, i+1)
	// The slot may be a row TruncateRows dropped: its term storage is reused.
	p.rows[i] = row{terms: append(p.rows[i].terms[:0], terms...), sense: sense, rhs: rhs}
	p.rev++
	return i
}

// TruncateRows drops every row from index n on. Their term storage stays
// with the problem for later AddConstraint calls to refill, so rebuilding the
// same tail of rows over and over (a Benders master's cuts on its skeleton)
// stops allocating. What RowTerms returned for a dropped row is invalid.
func (p *Problem) TruncateRows(n int) {
	p.rows = p.rows[:n]
	p.rev++
}

// Clear empties the problem — no variables, bounds or rows — and keeps their
// storage for the AddVar and AddConstraint calls that rebuild it, the way
// TruncateRows keeps a dropped row's terms: a Benders session rebuilding its
// slave and master after a shape change allocates only what the new shape
// outgrows. Like every structural mutation it advances rev, so a Basis
// workspace that cached the old matrix rebuilds its cache.
func (p *Problem) Clear() {
	p.cost, p.lo, p.up = p.cost[:0], p.lo[:0], p.up[:0]
	p.rows = p.rows[:0]
	p.rev++
}

// SetRHS overwrites the right-hand side of row i. This lets callers (the
// Benders slave, branch-and-bound nodes) reuse one problem structure across
// many solves that differ only in their right-hand sides.
func (p *Problem) SetRHS(i int, rhs float64) { p.rows[i].rhs = rhs }

// RHS returns the right-hand side of row i.
func (p *Problem) RHS(i int) float64 { return p.rows[i].rhs }

// RowSense returns the sense of row i.
func (p *Problem) RowSense(i int) Sense { return p.rows[i].sense }

// RowTerms returns the terms of row i. The returned slice is the problem's
// backing storage; callers must treat it as read-only. It exists so callers
// holding a dual vector from an earlier solve (the Benders cut pool) can
// check it against the current costs without rebuilding the matrix.
func (p *Problem) RowTerms(i int) []Term { return p.rows[i].terms }

// CloneInto overwrites q with a deep copy of p, sharing nothing with p and
// reusing the storage q owns: cloning problem after problem of similar size
// into one q (milp.Solver, every master's root) stops allocating.
func (p *Problem) CloneInto(q *Problem) {
	q.cost = append(q.cost[:0], p.cost...)
	q.lo = append(q.lo[:0], p.lo...)
	q.up = append(q.up[:0], p.up...)
	q.rows = Resized(q.rows, len(p.rows))
	for i, r := range p.rows {
		r.terms = append(q.rows[i].terms[:0], r.terms...)
		q.rows[i] = r
	}
	q.rev++
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status Status
	// Obj is the optimal objective value when Status == Optimal.
	Obj float64
	// X holds the optimal variable values when Status == Optimal.
	X []float64
	// Dual holds one dual value per constraint row when Status == Optimal,
	// oriented so that Obj == Σᵢ Dual[i]·rhs[i] (strong duality; all
	// variable bounds other than x ≥ 0 are explicit rows).
	Dual []float64
	// Ray holds a Farkas infeasibility certificate per constraint row when
	// Status == Infeasible: any rhs vector r for which Σᵢ Ray[i]·r[i] > 0
	// is infeasible for this constraint matrix. It is the dual extreme ray
	// used for Benders feasibility cuts.
	Ray []float64
	// Pivots is the total simplex pivot count, for diagnostics.
	Pivots int
}

// Numerical tolerances. They are deliberately loose enough to survive the
// mildly ill-conditioned bases that big-M rows produce, and tight enough
// that the cross-validation tests (Benders vs direct MILP) agree to 1e-6.
const (
	pivotTol = 1e-9 // smallest pivot magnitude accepted
	costTol  = 1e-9 // reduced-cost optimality tolerance
	feasTol  = 1e-7 // feasibility tolerance on row activity
)

// ErrIterLimit is returned when the simplex exceeds its pivot budget.
var ErrIterLimit = errors.New("lp: simplex iteration limit exceeded")

// Solve runs the two-phase simplex and returns the solution. It never
// mutates the problem, so a Problem may be solved repeatedly (for example
// with different right-hand sides between calls). For solve sequences that
// perturb RHS or costs between calls, SolveFrom re-enters from the previous
// basis instead of restarting from scratch.
func (p *Problem) Solve() (*Solution, error) { return p.solveCold(nil) }

// solveCold is the two-phase tableau path. When cap is non-nil, the final
// basis is captured into it so a later SolveFrom can warm-start; outcomes
// without a usable basis (iteration limit, infeasibility, unboundedness)
// reset it. A phase-1-terminal basis in particular is almost never dual
// feasible for the real costs, so capturing it would make every later warm
// attempt factorize B⁻¹ only to bail to cold; warm chains start from optimal
// (or warm-infeasible) bases only.
//
// All working storage — the tableau, the pivot kernel's scratch, the
// bound-row expansion — comes from cap's workspace, so cold fallbacks inside
// a warm chain and a milp.Solver's successive masters do not re-pay the
// allocation; a nil cap solves out of a throwaway scratch.
//
// The tableau itself only understands x ≥ 0. A problem with variable bounds
// is solved through its bound-row expansion (x_j ≥ lo for lo > 0, x_j ≤ up
// for finite up, appended after the original rows) and the result mapped
// back: Dual and Ray are truncated to the original rows — bound-row duals
// live on as nonbasic reduced costs in the bounded-variable warm path
// (strong duality then reads Obj = Σ Dual·rhs + Σ_{nonbasic j} d_j·x_j), and
// an infeasibility Ray is a box-Farkas certificate: Σ Ray·rhs exceeds the
// slack the variable boxes can absorb (see revised.verifyRay). The expanded
// basis is folded into a bounded-variable basis over the original rows by
// captureBounded.
func (p *Problem) solveCold(cap *Basis) (*Solution, error) {
	var cs *coldScratch
	if cap != nil {
		if cap.ws == nil {
			cap.ws = &workspace{}
		}
		cs = &cap.ws.cold
	} else {
		cs = new(coldScratch)
	}
	m := len(p.rows)
	q := p
	if p.bounded() {
		q = cs.expandBounds(p)
	}
	t := newTableau(q, cs)
	sol := &Solution{}

	fail := func(st Status, err error) (*Solution, error) {
		sol.Status = st
		if cap != nil {
			cap.Reset()
		}
		return sol, err
	}

	// Phase 1: drive the artificial variables to zero.
	status := t.iterate(true)
	sol.Pivots += t.pivots
	if status == IterLimit {
		return fail(IterLimit, ErrIterLimit)
	}
	if t.phase1Obj() > feasTol {
		t.recomputeObjRow() // exact reduced costs for the certificate
		sol.Ray = t.farkasRay()[:m]
		return fail(Infeasible, nil)
	}
	t.pivotOutArtificials()

	// Phase 2: optimize the true objective from the feasible basis.
	t.loadPhase2Costs()
	status = t.iterate(false)
	sol.Pivots += t.pivots
	switch status {
	case IterLimit:
		return fail(IterLimit, ErrIterLimit)
	case Unbounded:
		return fail(Unbounded, nil)
	}

	sol.Status = Optimal
	sol.X = t.primal()
	sol.Obj = t.objective()
	if cap != nil && !p.feasibleAt(sol.X) {
		cap.ws.stats.ColdOptimaInfeasible++
	}
	t.recomputeObjRow() // exact reduced costs for the duals
	sol.Dual = t.duals()[:m]
	if cap != nil {
		if p.bounded() {
			cap.captureBounded(p, t)
		} else {
			cap.capture(t)
		}
	}
	return sol, nil
}

// feasibleAt reports whether x satisfies every row and, on a bounded problem,
// every box, within feasTol·10 (rows: scaled by their largest coefficient).
func (p *Problem) feasibleAt(x []float64) bool {
	for i := range p.rows {
		row := &p.rows[i]
		act, scale := 0.0, 1.0
		for _, tm := range row.terms {
			act += tm.Coef * x[tm.Var]
			if c := math.Abs(tm.Coef); c > scale {
				scale = c
			}
		}
		switch row.sense {
		case LE:
			if act > row.rhs+feasTol*scale*10 {
				return false
			}
		case GE:
			if act < row.rhs-feasTol*scale*10 {
				return false
			}
		case EQ:
			if math.Abs(act-row.rhs) > feasTol*scale*10 {
				return false
			}
		}
	}
	if p.bounded() {
		for j := range p.cost {
			if x[j] < p.lo[j]-feasTol*10 || x[j] > p.up[j]+feasTol*10 {
				return false
			}
		}
	}
	return true
}

// coldScratch is the cold path's reusable storage, owned by a Basis
// workspace: the tableau's dense state, the pivot kernel's gather buffers,
// and — for bounded problems — the bound-row expansion and the fold's
// membership flags.
type coldScratch struct {
	tab   tableau
	a     []float64
	obj   []float64
	cost  []float64
	basis []int
	sign  []float64
	eq    []bool
	flip  []float64
	cb    []float64

	// Pivot-row gather (see tableau.pivot): column indices and values of the
	// scaled pivot row's non-zero entries, rhs last.
	nzIdx []int32
	nzVal []float64

	// Bound-row expansion (see expandBounds). lbRow/ubRow[j] is the expanded
	// row index of x_j's lower/upper bound row, -1 when it has none.
	exp            Problem
	expRows        []row
	expTerms       []Term
	lbRow, ubRow   []int
	structBasic    []bool
	expMarkerBasic []bool
}

// expandBounds builds p's bound-row expansion in scratch storage. Structural
// columns, costs and the original rows are shared read-only with p; only the
// bound rows are written. The result is valid until the next call.
func (cs *coldScratch) expandBounds(p *Problem) *Problem {
	m, n := len(p.rows), len(p.cost)
	cs.expRows = grow(cs.expRows, m+2*n)
	cs.expTerms = grow(cs.expTerms, 2*n)
	cs.lbRow = grow(cs.lbRow, n)
	cs.ubRow = grow(cs.ubRow, n)
	rows := cs.expRows[:m]
	copy(rows, p.rows)
	boundRow := func(j int, sense Sense, rhs float64) int {
		k := len(rows) - m
		cs.expTerms[k] = Term{Var: j, Coef: 1}
		rows = append(rows, row{terms: cs.expTerms[k : k+1 : k+1], sense: sense, rhs: rhs})
		return len(rows) - 1
	}
	for j := 0; j < n; j++ {
		cs.lbRow[j] = -1
		if p.lo[j] > 0 {
			cs.lbRow[j] = boundRow(j, GE, p.lo[j])
		}
	}
	for j := 0; j < n; j++ {
		cs.ubRow[j] = -1
		if !math.IsInf(p.up[j], 1) {
			cs.ubRow[j] = boundRow(j, LE, p.up[j])
		}
	}
	cs.exp = Problem{cost: p.cost, rows: rows}
	return &cs.exp
}

// tableau is the dense simplex working state. Columns are laid out as
// [structural 0..n) | markers n..n+m) | rhs]. Every row owns exactly one
// marker column: the slack/surplus for inequality rows (free to enter the
// basis) or a pinned pseudo-slack for equality rows (never enters, exists
// only so duals and Farkas rays can be read from its reduced cost).
// Rows whose marker cannot serve as the initial basic variable start from a
// *virtual* artificial: basis[i] = width+i. Virtual columns are never
// stored or updated — they can never re-enter — which keeps the tableau
// narrow; phase 1 only has work to do on rows that actually start virtual.
//
// The matrix is one contiguous row-major slice with stride width+1 (the
// last column is the rhs): flat storage keeps the O(m·width) pivot loops on
// sequential memory, and lets a Basis workspace donate the buffers so cold
// fallbacks inside a warm-start chain do not reallocate the tableau.
type tableau struct {
	p *Problem

	m, n  int // rows, structural columns
	width int // total stored columns excluding rhs: n + m
	w1    int // row stride: width + 1

	a     []float64 // m rows × w1 columns, row-major; a[i*w1+width] is rhs
	obj   []float64 // reduced-cost row, width+1 (last is -objective value)
	cost  []float64 // cost vector over stored columns (phase-dependent)
	basis []int     // basis[i] = column basic in row i; width+r = virtual artificial of row r

	markerSign []float64 // ±1 coefficient of each row's marker column
	eqMarker   []bool    // true: marker is pinned (EQ row), never enters
	flip       []float64
	nVirtual   int // rows starting from a virtual artificial

	cb []float64 // recomputeObjRow scratch

	nzIdx []int32   // pivot scratch: non-zero columns of the scaled pivot row
	nzVal []float64 // ... and their values, parallel to nzIdx

	pivots   int
	inPhase1 bool
}

// row returns row i of the matrix including its rhs entry.
func (t *tableau) row(i int) []float64 { return t.a[i*t.w1 : (i+1)*t.w1 : (i+1)*t.w1] }

func newTableau(p *Problem, cs *coldScratch) *tableau {
	m := len(p.rows)
	n := len(p.cost)
	w1 := n + m + 1

	cs.sign = grow(cs.sign, m)
	cs.eq = grow(cs.eq, m)
	cs.flip = grow(cs.flip, m)
	cs.basis = grow(cs.basis, m)
	cs.cost = grow(cs.cost, n+m)
	cs.a = grow(cs.a, m*w1)
	cs.obj = grow(cs.obj, w1)
	cs.cb = grow(cs.cb, m)
	cs.nzIdx = grow(cs.nzIdx, w1)
	cs.nzVal = grow(cs.nzVal, w1)
	cs.tab = tableau{
		p: p, m: m, n: n, width: n + m, w1: w1,
		a: cs.a, obj: cs.obj, cost: cs.cost, basis: cs.basis,
		markerSign: cs.sign, eqMarker: cs.eq, flip: cs.flip, cb: cs.cb,
		nzIdx: cs.nzIdx, nzVal: cs.nzVal,
	}
	t := &cs.tab

	for i := range p.rows {
		r := &p.rows[i]
		ri := t.row(i)
		// Normalize so rhs ≥ 0; remember the sign flip to restore the
		// caller's row orientation in duals and rays.
		f := 1.0
		if r.rhs < 0 {
			f = -1.0
		}
		t.flip[i] = f
		for _, tm := range r.terms {
			ri[tm.Var] += f * tm.Coef
		}
		ri[t.width] = f * r.rhs

		marker := n + i
		switch r.sense {
		case LE:
			t.markerSign[i] = f
		case GE:
			t.markerSign[i] = -f
		case EQ:
			t.markerSign[i] = 1
			t.eqMarker[i] = true
		}
		ri[marker] = t.markerSign[i]

		// Initial basis: the marker when it forms a feasible identity
		// column (+1 with non-negative rhs), a virtual artificial else.
		if t.markerSign[i] > 0 && !t.eqMarker[i] {
			t.basis[i] = marker
		} else {
			t.basis[i] = t.width + i
			t.nVirtual++
		}
	}
	t.inPhase1 = true

	// Phase-1 reduced costs: cost 1 on virtual artificials only, so
	// obj[j] = −Σ_{i virtual} a[i][j].
	for i := 0; i < m; i++ {
		if t.basis[i] < t.width {
			continue
		}
		ri := t.row(i)
		for j := 0; j <= t.width; j++ {
			t.obj[j] -= ri[j]
		}
	}
	return t
}

// costOf returns the current-phase cost of a column, including virtual
// artificials.
func (t *tableau) costOf(col int) float64 {
	if col >= t.width {
		if t.inPhase1 {
			return 1
		}
		return 0
	}
	return t.cost[col]
}

// phase1Obj returns the current phase-1 objective (sum of artificials).
func (t *tableau) phase1Obj() float64 { return -t.obj[t.width] }

// objective returns the current phase-2 objective value.
func (t *tableau) objective() float64 { return -t.obj[t.width] }

// iterate pivots until optimal, unbounded, or the budget runs out.
func (t *tableau) iterate(phase1 bool) Status {
	// Generous budget: simplex is expected to finish in O(m+n) pivots in
	// practice; Bland's rule after the threshold guarantees termination.
	maxPivots := 200 * (t.m + t.width + 10)
	blandAfter := 20 * (t.m + t.width + 10)

	for iter := 0; ; iter++ {
		if iter >= maxPivots {
			return IterLimit
		}
		// Incremental updates to the reduced-cost row accumulate floating
		// point drift over long degenerate runs; refactorize periodically
		// so stale ±1e-10 noise cannot masquerade as negative reduced
		// costs and stall convergence.
		if iter > 0 && iter%256 == 0 {
			t.recomputeObjRow()
		}
		useBland := iter >= blandAfter

		enter := t.chooseEntering(phase1, useBland)
		if enter < 0 {
			return Optimal
		}
		leave := t.chooseLeaving(enter)
		if leave < 0 {
			return Unbounded
		}
		t.pivot(leave, enter)
	}
}

// chooseEntering picks a column with negative reduced cost, or -1 at
// optimality. Pinned equality markers never enter; virtual artificials are
// not stored and therefore cannot.
func (t *tableau) chooseEntering(phase1, bland bool) int {
	if bland {
		for j := 0; j < t.width; j++ {
			if t.obj[j] < -costTol && !(j >= t.n && t.eqMarker[j-t.n]) {
				return j
			}
		}
		return -1
	}
	best, bestVal := -1, -costTol
	for j := 0; j < t.width; j++ {
		if t.obj[j] < bestVal && !(j >= t.n && t.eqMarker[j-t.n]) {
			best, bestVal = j, t.obj[j]
		}
	}
	return best
}

// chooseLeaving runs the minimum-ratio test on the entering column,
// breaking ties by smallest basis column to curb cycling.
func (t *tableau) chooseLeaving(enter int) int {
	leave := -1
	bestRatio := math.Inf(1)
	for i := 0; i < t.m; i++ {
		aij := t.a[i*t.w1+enter]
		if aij <= pivotTol {
			continue
		}
		ratio := t.a[i*t.w1+t.width] / aij
		if ratio < bestRatio-1e-12 || (ratio < bestRatio+1e-12 && (leave < 0 || t.basis[i] < t.basis[leave])) {
			bestRatio = ratio
			leave = i
		}
	}
	return leave
}

// pivot makes column enter basic in row leave. A tableau row is mostly
// zeros (the Benders master's pivot rows are 2–5 % dense), and an entry the
// scaled pivot row holds as zero leaves every other row's entry in that
// column as it was, so the row updates run over the pivot row's non-zero
// columns only, gathered once per pivot. Each visited entry gets exactly the
// arithmetic the flat loop gave it: entering and leaving choices and every
// non-zero value are bit-identical to the dense kernel (pinned by
// TestSparsePivotRefinesDense). The one difference is a sign: the flat loop
// turned a stored −0 into +0 whenever f·rowL[j] was −0, the gather leaves it
// −0. Signed zeros compare, add and multiply alike, so no choice ever sees
// it. The rhs column is always in the list.
func (t *tableau) pivot(leave, enter int) {
	t.pivots++
	rowL := t.row(leave)
	inv := 1 / rowL[enter]
	idx, val := t.nzIdx, t.nzVal
	nz := 0
	for j, v := range rowL {
		v *= inv
		rowL[j] = v
		if v != 0 || j == t.width {
			idx[nz], val[nz] = int32(j), v
			nz++
		}
	}
	idx, val = idx[:nz], val[:nz]
	for i := 0; i < t.m; i++ {
		if i == leave {
			continue
		}
		ri := t.row(i)
		f := ri[enter]
		if f == 0 {
			continue
		}
		for k, j := range idx {
			ri[j] -= f * val[k]
		}
		ri[enter] = 0 // kill roundoff residue exactly
	}
	if f := t.obj[enter]; f != 0 {
		obj := t.obj
		for k, j := range idx {
			obj[j] -= f * val[k]
		}
		obj[enter] = 0
	}
	t.basis[leave] = enter
}

// pivotOutArtificials removes zero-level virtual artificials from the
// basis where possible; rows where no stored pivot column exists are
// redundant and keep their virtual basic at level zero.
func (t *tableau) pivotOutArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.width {
			continue
		}
		for j := 0; j < t.width; j++ {
			if j >= t.n && t.eqMarker[j-t.n] {
				continue
			}
			if math.Abs(t.a[i*t.w1+j]) > 1e-7 {
				t.pivot(i, j)
				break
			}
		}
	}
}

// loadPhase2Costs swaps in the true objective for the current basis.
func (t *tableau) loadPhase2Costs() {
	t.inPhase1 = false
	for j := range t.cost {
		t.cost[j] = 0
	}
	copy(t.cost, t.p.cost)
	t.recomputeObjRow()
}

// recomputeObjRow rebuilds the reduced-cost row exactly from the current
// phase costs and tableau, clearing accumulated pivot roundoff. Row-major
// accumulation keeps the pass sequential over the flat matrix.
func (t *tableau) recomputeObjRow() {
	cb := t.cb[:t.m]
	for i := 0; i < t.m; i++ {
		cb[i] = t.costOf(t.basis[i])
	}
	for j := 0; j < t.width; j++ {
		t.obj[j] = t.cost[j]
	}
	t.obj[t.width] = 0
	for i := 0; i < t.m; i++ {
		c := cb[i]
		if c == 0 {
			continue
		}
		ri := t.row(i)
		for j := 0; j <= t.width; j++ {
			t.obj[j] -= c * ri[j]
		}
	}
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.width {
			t.obj[t.basis[i]] = 0
		}
	}
}

// primal extracts the structural variable values from the basis.
func (t *tableau) primal() []float64 {
	x := make([]float64, t.n)
	for i, b := range t.basis {
		if b < t.n {
			x[b] = t.a[i*t.w1+t.width]
		}
	}
	return x
}

// duals reads y = c_Bᵀ·B⁻¹ off the marker columns' reduced costs: row r's
// marker has cost 0 and column σ_r·e_r, so its reduced cost is −σ_r·y_r.
// Output is in the caller's row orientation.
func (t *tableau) duals() []float64 {
	y := make([]float64, t.m)
	for r := 0; r < t.m; r++ {
		y[r] = -t.obj[t.n+r] * t.markerSign[r] * t.flip[r]
	}
	return y
}

// farkasRay returns f = c₁_Bᵀ·B⁻¹ at phase-1 termination with positive
// objective, read off the marker reduced costs of the phase-1 objective
// row: the certificate satisfies f·b > 0 while fᵀA ≤ 0 over every column,
// proving Ax = b, x ≥ 0 infeasible. Oriented to the caller's rows.
func (t *tableau) farkasRay() []float64 {
	f := make([]float64, t.m)
	for r := 0; r < t.m; r++ {
		f[r] = -t.obj[t.n+r] * t.markerSign[r] * t.flip[r]
	}
	return f
}
