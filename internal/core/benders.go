package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/lp"
	"repro/internal/milp"
)

// slaveProblem is the continuous subproblem P_S(x̄) of §4.1 (Problem 3):
// given fixed admission/placement decisions x̄, optimize the reservations
// (y, z). Every row's right-hand side is affine in x̄, which makes both
// Benders cut families mechanical:
//
//	optimality cut (21):  θ ≥ Σᵢ µᵢ·r0ᵢ + Σⱼ (µᵀR)ⱼ·xⱼ   (dual extreme point µ)
//	feasibility cut (22): Σⱼ (fᵀR)ⱼ·xⱼ ≤ −fᵀr0            (dual extreme ray f)
//
// where µ comes out of the LP solver's dual values and f out of its Farkas
// certificate (the "PDS(x) is unbounded" branch of Algorithm 1).
type slaveProblem struct {
	m          *model
	p          *lp.Problem
	yVar       []int
	zVar       []int
	dR, dT, dC int
	rows       []slaveRow // parallel to p's rows
	lamRow     []int      // each item's row (18), the one row λ̂ enters
	// basis carries the revised-simplex state across solves: successive
	// P_S(x̄) instances differ only in their right-hand sides, so the
	// previous optimal basis stays dual feasible and re-entry costs a few
	// dual simplex pivots instead of a full two-phase solve. The Basis also
	// owns the solver workspace — sparse LU factors, scratch vectors,
	// solution buffers — so the steady-state slave solve allocates nothing:
	// every layer holding a session (the sim pipeline, each admission
	// shard, the reopt controller) amortizes solver memory across epochs by
	// construction.
	basis lp.Basis

	xs, terms []lp.Term // the row rowSet has under assembly
	coefs     []float64 // what cutFromDuals returns
	acc       []float64 // dualStillFeasible's column sums
}

// solve runs the slave LP, warm-starting from the previous iteration's
// basis unless the caller disabled it. The warm Solution's X/Dual/Ray
// slices are views into basis-owned buffers, valid until the next solve:
// everything bendersSolve keeps (incumbent vectors, pooled duals) is
// copied out before the next slave call, per lp.SolveFrom's ownership
// contract.
func (s *slaveProblem) solve(warm bool) (*lp.Solution, error) {
	if !warm {
		return s.p.Solve()
	}
	return s.p.SolveFrom(&s.basis)
}

// rowSet enumerates the slave LP rows, all ≤, into s.p and s.rows in an
// order fixed by the solver shape (sameSolverShape), and records each item's
// row (18) in s.lamRow for refresh. Rows are assembled in the slave's two
// buffers, sized up front so no append below allocates.
func (s *slaveProblem) rowSet(m *model) {
	inst, yVar, zVar := m.inst, s.yVar, s.zVar
	s.xs = slices.Grow(s.xs[:0], len(m.items))
	s.terms = slices.Grow(s.terms[:0], len(m.items)+1)
	xs, terms := s.xs, s.terms
	s.rows = s.rows[:0]
	// (2)/(14) CU compute: Σ bτ·z − δc ≤ Cc − Σ aτ·xⱼ.
	for c, cu := range inst.Net.CUs {
		xs, terms = xs[:0], terms[:0]
		for idx, it := range m.items {
			if it.cu != c {
				continue
			}
			cm := inst.Tenants[it.tenant].SLA.Compute
			if cm.CPUPerMbps != 0 {
				terms = append(terms, lp.T(zVar[idx], cm.CPUPerMbps))
			}
			if cm.BaselineCPU != 0 {
				xs = append(xs, lp.T(idx, -cm.BaselineCPU))
			}
		}
		if len(terms) == 0 && len(xs) == 0 {
			continue
		}
		if s.dC >= 0 {
			terms = append(terms, lp.T(s.dC, -1))
		}
		if len(terms) == 0 {
			continue
		}
		s.addRow(cu.CPUCores, xs, terms)
	}
	// (3)/(15) transport.
	for _, l := range inst.Net.Links {
		if l.CapMbps >= unlimitedLinkMbps {
			continue
		}
		terms = terms[:0]
		for idx, it := range m.items {
			if inst.Paths[it.bs][it.cu][it.path].Uses(l.ID) {
				terms = append(terms, lp.T(zVar[idx], inst.EtaTransport))
			}
		}
		if len(terms) == 0 {
			continue
		}
		if s.dT >= 0 {
			terms = append(terms, lp.T(s.dT, -1))
		}
		s.addRow(l.CapMbps, nil, terms)
	}
	// (4)/(16) radio.
	for b, bs := range inst.Net.BSs {
		terms = terms[:0]
		for idx, it := range m.items {
			if it.bs == b {
				terms = append(terms, lp.T(zVar[idx], bs.Eta))
			}
		}
		if len(terms) == 0 {
			continue
		}
		if s.dR >= 0 {
			terms = append(terms, lp.T(s.dR, -1))
		}
		s.addRow(bs.CapMHz, nil, terms)
	}
	// Coupling rows (17)–(20) plus linearization (11): one block per item.
	xs, terms = xs[:0], terms[:0]
	s.lamRow = lp.Resized(s.lamRow, len(m.items))
	for idx, it := range m.items {
		y, z := yVar[idx], zVar[idx]
		s.addRow(0, append(xs, lp.T(idx, it.lambda)), append(terms, lp.T(z, 1))) // (17) z ≤ Λx̄
		s.lamRow[idx] = len(s.rows)
		s.addRow(0, append(xs, lp.T(idx, -it.lambdaHat)), append(terms, lp.T(z, -1)))                  // (18) λ̂x̄ ≤ z
		s.addRow(0, append(xs, lp.T(idx, it.lambda)), append(terms, lp.T(y, 1)))                       // (19) y ≤ Λx̄
		s.addRow(0, nil, append(terms, lp.T(y, 1), lp.T(z, -1)))                                       // (11) y ≤ z
		s.addRow(it.lambda, append(xs, lp.T(idx, -it.lambda)), append(terms, lp.T(z, 1), lp.T(y, -1))) // (20)
	}
}

// addRow installs terms ≤ r0 + xs·x̄: the matrix into s.p, the affine
// right-hand side into s.rows (a dropped row's xs storage is refilled).
func (s *slaveProblem) addRow(r0 float64, xs, terms []lp.Term) {
	s.p.AddConstraint(lp.LE, r0, terms...)
	i := len(s.rows)
	s.rows = lp.Resized(s.rows, i+1)
	s.rows[i] = slaveRow{r0: r0, xs: append(s.rows[i].xs[:0], xs...)}
}

// buildSlave assembles the slave LP skeleton; per-iteration solves only
// rewrite the right-hand sides for the current x̄. It builds into s, or into a
// new slave when s is nil: a session rebuilding after a shape change passes
// its old slave, whose problem, basis workspace and row storage are refilled,
// so the rebuild allocates only what the new shape outgrows. Nothing else
// carries over — the problem is cleared and the basis reset — and the result
// equals a fresh build row for row and solves like one bit for bit.
func (m *model) buildSlave(s *slaveProblem) *slaveProblem {
	if s == nil {
		s = &slaveProblem{p: lp.New()}
	}
	s.p.Clear()
	s.basis.Reset()
	s.m, s.dR, s.dT, s.dC = m, -1, -1, -1
	s.yVar = lp.Resized(s.yVar, len(m.items))
	s.zVar = lp.Resized(s.zVar, len(m.items))
	for idx, it := range m.items {
		s.yVar[idx] = s.p.AddVar(it.yCoef)
		s.zVar[idx] = s.p.AddVar(it.zCoef)
	}
	if m.inst.BigM > 0 {
		s.dR = s.p.AddVar(m.inst.BigM)
		s.dT = s.p.AddVar(m.inst.BigM)
		s.dC = s.p.AddVar(m.inst.BigM)
	}
	s.rowSet(m)
	return s
}

// refresh re-binds the slave skeleton to a model with an identical solver
// shape (sameSolverShape must hold): the y/z costs and each item's row-(18)
// coefficient −λ̂ are rewritten in place while the constraint matrix and the
// carried simplex basis survive, so the next solve re-enters from the
// previous epoch's optimal basis. Nothing else can move: the shape fixes the
// *Network, the items, their Λ and the compute models, and with them every
// other r0 and x term.
func (s *slaveProblem) refresh(m *model) {
	s.m = m
	for idx, it := range m.items {
		s.p.SetCost(s.yVar[idx], it.yCoef)
		s.p.SetCost(s.zVar[idx], it.zCoef)
		s.rows[s.lamRow[idx]].xs[0] = lp.T(idx, -it.lambdaHat)
	}
}

// dualStillFeasible reports whether a dual extreme point µ from an earlier
// solve remains dual feasible under the slave's *current* costs — the
// condition for its Benders optimality cut to stay valid across an epoch
// boundary (the cut underestimates the slave optimum for any feasible µ).
// With the solver's duals oriented so that Obj = Σ µᵢ·rhsᵢ, dual
// feasibility is µ ≤ 0 on ≤ rows, µ ≥ 0 on ≥ rows (the slave only emits ≤
// today, but the check reads each row's sense rather than assuming), and
// reduced costs c − Aᵀµ ≥ 0.
func (s *slaveProblem) dualStillFeasible(mu []float64) bool {
	const tol = 1e-7
	p := s.p
	if len(mu) != p.NumRows() {
		return false
	}
	s.acc = lp.Resized(s.acc, p.NumVars())
	acc := s.acc
	clear(acc)
	for i := range mu {
		if mu[i] == 0 {
			continue
		}
		switch p.RowSense(i) {
		case lp.LE:
			if mu[i] > tol {
				return false
			}
		case lp.GE:
			if mu[i] < -tol {
				return false
			}
		}
		for _, tm := range p.RowTerms(i) {
			acc[tm.Var] += mu[i] * tm.Coef
		}
	}
	for v := 0; v < p.NumVars(); v++ {
		if acc[v] > p.Cost(v)+tol {
			return false
		}
	}
	return true
}

// setX rewrites every affine right-hand side for the given binary vector.
func (s *slaveProblem) setX(x []float64) {
	for i, r := range s.rows {
		rhs := r.r0
		for _, t := range r.xs {
			rhs += t.Coef * x[t.Var]
		}
		s.p.SetRHS(i, rhs)
	}
}

// cutFromDuals folds a dual vector (point or ray) into per-x coefficients
// and a constant: value(x) = constant + Σ coefs[j]·x[j]. coefs is the
// slave's own buffer, overwritten by the next call.
func (s *slaveProblem) cutFromDuals(mu []float64) (constant float64, coefs []float64) {
	s.coefs = lp.Resized(s.coefs, len(s.m.items))
	coefs = s.coefs
	clear(coefs)
	for i, r := range s.rows {
		if mu[i] == 0 {
			continue
		}
		constant += mu[i] * r.r0
		for _, t := range r.xs {
			coefs[t.Var] += mu[i] * t.Coef
		}
	}
	return constant, coefs
}

// bendersEpsilon is the relative UB−LB convergence tolerance. It sits below
// the smallest gap the lexicographic tie-break perturbation (tieBreakBase)
// creates between otherwise-equivalent decisions on CI-sized instances, so
// convergence cannot stop on the "wrong" side of a broken tie.
const bendersEpsilon = 1e-7

// BendersOptions tune Algorithm 1.
type BendersOptions struct {
	// MaxIterations bounds master-slave rounds; 0 means 200.
	MaxIterations int
	// ColdSlave disables warm-starting the slave LP between iterations.
	// The default (warm) path threads the previous optimal basis through
	// every P_S(x̄) solve; this switch exists for benchmarks and for
	// cross-checking that warm starts change nothing but the pivot count.
	ColdSlave bool
}

func (o BendersOptions) withDefaults() BendersOptions {
	if o.MaxIterations == 0 {
		o.MaxIterations = 200
	}
	return o
}

// SolveBenders runs the paper's Algorithm 1: iterate between the binary
// master problem P_M(C1, C2) (Problem 5) and the continuous slave P_S(x̄)
// (Problem 3), adding an optimality cut per dual extreme point and a
// feasibility cut per dual extreme ray, until the bound gap closes.
func SolveBenders(inst *Instance, opts BendersOptions) (*Decision, error) {
	m, err := buildModel(inst)
	if err != nil {
		return nil, err
	}
	d, err := bendersSolve(m, m.buildSlave(nil), m.buildMaster(nil), opts.withDefaults(), nil)
	if err != nil {
		// Numerical distress even without carried state: fall back to the
		// monolithic oracle. A cold Benders run is a pure function of the
		// instance, so this branch triggers identically in any replay of
		// the same round — determinism survives the fallback.
		return solveDirectFallback(inst, err)
	}
	return d, nil
}

// solveDirectFallback re-solves an instance that defeated the Benders
// machinery numerically with the monolithic oracle. The original distress
// is attached to any direct-solve failure so neither error is lost.
func solveDirectFallback(inst *Instance, benderErr error) (*Decision, error) {
	d, err := SolveDirect(inst)
	if err != nil {
		return nil, fmt.Errorf("core: direct fallback failed: %w (after Benders distress: %v)", err, benderErr)
	}
	d.FellBack = true
	return d, nil
}

// masterProblem is the binary master P_M(C1, C2) of §4.1 (Problem 5) —
// min Σ xCoef·x + θ subject to the placement rows (5), (6), (13), its
// skeleton, then one row per Benders cut — with the vectors Algorithm 1's
// loop works in. The skeleton depends only on the solver shape, so a session
// keeps one master across same-shape epochs and rebinds it each epoch.
type masterProblem struct {
	p        *lp.Problem
	xVar     []int
	thetaVar int // θ' = θ + bigTheta, shifted because LP variables are ≥ 0
	skeleton int // placement rows; the cut rows follow them
	// bigTheta bounds how far below zero the slave objective can go,
	// Σ min(yCoef,0)·Λ (deficits only add cost), plus one.
	bigTheta float64

	terms              []lp.Term // the cut row under assembly
	xBar, bestX, bestZ []float64
}

// buildMaster assembles the master skeleton for the model's solver shape,
// into mp's storage (see buildSlave), or a new master's when mp is nil.
// Variables and rows go unnamed: nothing reads an LP name.
func (m *model) buildMaster(mp *masterProblem) *masterProblem {
	if mp == nil {
		mp = &masterProblem{p: lp.New()}
	}
	mp.p.Clear()
	mp.xVar = lp.Resized(mp.xVar, len(m.items))
	for idx := range m.items {
		mp.xVar[idx] = mp.p.AddVar(0)
	}
	mp.thetaVar = mp.p.AddVar(1)
	addPlacementRows(mp.p, m, func(idx int) int { return mp.xVar[idx] })
	mp.skeleton = mp.p.NumRows()
	mp.rebind(m)
	return mp
}

// rebind points the master at a model of its own solver shape: the x costs
// and the θ shift, where the forecasts live, are rewritten and every cut row
// is dropped — cuts are re-derived, never carried as rows (see session.go).
func (mp *masterProblem) rebind(m *model) {
	mp.bigTheta = 1
	for idx, it := range m.items {
		mp.p.SetCost(mp.xVar[idx], it.xCoef)
		if it.yCoef < 0 {
			mp.bigTheta += -it.yCoef * it.lambda
		}
	}
	mp.p.TruncateRows(mp.skeleton)
}

// cutScale is what a cut row's coefficients are divided by: the largest
// coefficient magnitude, at least 1. Benders cut coefficients inherit the
// big-M duals' scale (~1e4 × a capacity), and mixing such rows with the
// unit-coefficient placement rows wrecks the master tableau's conditioning —
// the scaling is mathematically neutral and keeps every pivot well-sized.
func cutScale(coefs []float64) float64 {
	s := 1.0
	for _, cf := range coefs {
		if a := math.Abs(cf); a > s {
			s = a
		}
	}
	return s
}

// addOptCut installs θ ≥ constant + coefs·x in the master, as
// θ'/s − Σ (coefs/s)·x ≥ (constant + bigTheta)/s with s = cutScale(coefs).
func (mp *masterProblem) addOptCut(constant float64, coefs []float64) {
	s := cutScale(coefs)
	terms := append(mp.terms[:0], lp.T(mp.thetaVar, 1/s))
	for idx, cf := range coefs {
		if cf != 0 {
			terms = append(terms, lp.T(mp.xVar[idx], -cf/s))
		}
	}
	mp.terms = terms
	mp.p.AddConstraint(lp.GE, (constant+mp.bigTheta)/s, terms...)
}

// addFeasCut installs Σ coefs·x ≤ −constant, scaled like addOptCut; it
// reports false when the cut is degenerate (no x terms).
func (mp *masterProblem) addFeasCut(constant float64, coefs []float64) bool {
	s := cutScale(coefs)
	terms := mp.terms[:0]
	for idx, cf := range coefs {
		if cf != 0 {
			terms = append(terms, lp.T(mp.xVar[idx], cf/s))
		}
	}
	mp.terms = terms
	if len(terms) == 0 {
		return false
	}
	mp.p.AddConstraint(lp.LE, -constant/s, terms...)
	return true
}

// bendersSolve is Algorithm 1's master–slave loop over an already-built
// model, slave and master. A non-nil session — which has seeded the master
// with the re-derived still-valid cuts of previous epochs — collects this
// solve's dual vectors for the next one.
func bendersSolve(m *model, slave *slaveProblem, master *masterProblem, opts BendersOptions, sess *BendersSession) (*Decision, error) {
	// The master is re-solved every iteration, one cut row larger each time:
	// all of them run out of one borrowed LP workspace.
	solver := solverPool.Get().(*milp.Solver)
	defer solverPool.Put(solver)

	n := len(m.items)
	xVar, bigTheta := master.xVar, master.bigTheta
	master.bestZ = lp.Resized(master.bestZ, n)
	master.xBar = lp.Resized(master.xBar, n)

	d := m.newDecision()
	ub := math.Inf(1)
	haveUB := false
	var bestPsi float64
	var bestDef [3]float64

	// evaluate solves the slave at x̄, updates the incumbent, and installs
	// the resulting cut (optimality or feasibility) in the master.
	evaluate := func(xBar []float64, iter int) error {
		slave.setX(xBar)
		ssol, err := slave.solve(!opts.ColdSlave)
		if err != nil {
			return fmt.Errorf("core: Benders slave (iter %d): %w", iter, err)
		}
		switch ssol.Status {
		case lp.Optimal:
			// Line 10–13 of Algorithm 1: optimality cut and UB update.
			xCost := 0.0
			for idx := range m.items {
				xCost += m.items[idx].xCoef * xBar[idx]
			}
			gamma := xCost + ssol.Obj
			if gamma < ub-1e-12 || !haveUB {
				ub = gamma
				haveUB = true
				master.bestX = append(master.bestX[:0], xBar...)
				bestPsi = xCost
				for idx := range m.items {
					master.bestZ[idx] = ssol.X[slave.zVar[idx]]
					bestPsi += m.items[idx].yCoef * ssol.X[slave.yVar[idx]]
				}
				if slave.dR >= 0 {
					bestDef = [3]float64{ssol.X[slave.dR], ssol.X[slave.dT], ssol.X[slave.dC]}
				}
			}
			constant, coefs := slave.cutFromDuals(ssol.Dual)
			if sess != nil {
				sess.remember(false, ssol.Dual)
			}
			// θ ≥ constant + coefs·x  ⇒  θ' − coefs·x ≥ constant + bigTheta.
			master.addOptCut(constant, coefs)

		case lp.Infeasible:
			// Line 6–8: the dual slave is unbounded along the Farkas ray;
			// add a feasibility cut removing this x̄.
			constant, coefs := slave.cutFromDuals(ssol.Ray)
			if sess != nil {
				sess.remember(true, ssol.Ray)
			}
			// Infeasibility certificate: constant + coefs·x̄ > 0, so demand
			// constant + coefs·x ≤ 0, i.e. Σ coefs·x ≤ −constant.
			if !master.addFeasCut(constant, coefs) {
				return fmt.Errorf("core: degenerate feasibility cut (ray has no x terms)")
			}

		default:
			return fmt.Errorf("core: slave LP returned %v", ssol.Status)
		}
		return nil
	}
	finish := func() *Decision {
		m.fill(d, master.bestX, master.bestZ)
		d.Obj = bestPsi
		d.DeficitRadio, d.DeficitTransport, d.DeficitCompute = bestDef[0], bestDef[1], bestDef[2]
		if sess != nil {
			sess.prevX = append(sess.prevX[:0], master.bestX...)
		}
		return d
	}

	// Incumbent short-circuit: in the cross-epoch steady state the previous
	// epoch's optimal x̄ usually stays optimal, so evaluate it first. One
	// warm slave solve yields a valid upper bound plus the cut that is tight
	// at x̄; the first master solve then typically proves optimality
	// immediately (lb ≥ ub − ε) and the epoch costs one master and one
	// slave solve instead of two of each. If x̄ went stale the loop below
	// proceeds exactly as a fresh solve would, with one extra seeded cut.
	if sess != nil && len(sess.prevX) == n {
		if err := evaluate(sess.prevX, 0); err != nil {
			return nil, err
		}
	}

	for iter := 1; iter <= opts.MaxIterations; iter++ {
		d.Iterations = iter

		msol, err := milpSolve(solver, master.p, xVar)
		if err != nil {
			return nil, fmt.Errorf("core: Benders master (iter %d): %w", iter, err)
		}
		if msol == nil {
			return nil, fmt.Errorf("core: Benders master infeasible (committed slices unsatisfiable)")
		}
		lb := msol.Obj - bigTheta // undo the θ shift
		if haveUB && ub-lb <= bendersEpsilon*(1+math.Abs(ub)) {
			// The master's bound proves the incumbent optimal; no further
			// slave evaluation needed.
			return finish(), nil
		}
		xBar := master.xBar
		for idx := range xBar {
			xBar[idx] = clampUnit(msol.X[xVar[idx]])
		}
		if err := evaluate(xBar, iter); err != nil {
			return nil, err
		}
		if haveUB && ub-lb <= bendersEpsilon*(1+math.Abs(ub)) {
			return finish(), nil
		}
	}

	if !haveUB {
		return nil, fmt.Errorf("core: Benders did not find a feasible point in %d iterations", opts.MaxIterations)
	}
	// Iteration budget exhausted: return the incumbent (still feasible,
	// possibly suboptimal).
	return finish(), nil
}
