package core

// session.go carries Benders solver state ACROSS decision epochs. PR 1's
// warm start lives inside one SolveBenders call (the slave re-enters from
// the previous iteration's basis); a BendersSession extends the same idea to
// the simulator's epoch loop, where consecutive AC-RR instances differ only
// in forecasts unless slices arrived, departed, or got pinned by commitment.
//
// Three pieces of state survive an epoch boundary when sameSolverShape
// certifies the solver matrices identical:
//
//   - the slave LP skeleton and — while sameCommitments also holds — the
//     master's (no re-enumeration of matrix rows, no re-allocation);
//   - the slave's simplex basis — basic column set, sparse LU factorization
//     and the solver workspace that makes steady-state warm solves
//     allocation-free — so epoch t+1's first slave solve re-enters from
//     epoch t's optimum via lp.Problem.SolveFrom (dual pivots after the
//     RHS moved, primal pivots after the costs moved, verified cold
//     fallback otherwise — the PR 1 safety contract);
//   - the pool of dual vectors behind every cut discovered so far. Cuts are
//     never carried as frozen inequalities: each epoch re-derives them from
//     their duals against the current affine RHS maps, re-checks optimality
//     duals against the current costs, and silently drops whatever expired.
//     A carried cut is therefore always exactly the cut this epoch's solve
//     would have produced from the same dual vector.
//
// When the shape check fails (arrival, departure, commitment pinning, a new
// topology) the session drops all three and rebuilds the slave and master
// cold, into the storage the old ones held: the problems, the basis
// workspace with its dense cold tableau and LU buffers, the row metadata.
// Memory carries over, state never does — each rebuild equals a fresh build
// and solves like one bit for bit — so the rebuild is always correct: the
// session never trades safety for speed.

// maxSessionDuals bounds the carried cut pool. Old duals are evicted
// first-in-first-out: steady-state epochs converge in a couple of rounds, so
// the pool holds the recent active cuts, and a larger pool only slows the
// master MILP down with slack rows.
const maxSessionDuals = 64

// sessionDual is one pooled dual vector: a dual extreme point (optimality
// cut) or a Farkas extreme ray (feasibility cut) of the slave.
type sessionDual struct {
	ray bool
	mu  []float64
}

// BendersSession is a reusable AC-RR solver that carries still-valid Benders
// cuts and the slave simplex basis across Solve calls. The zero value is not
// usable; call NewBendersSession. A session is not safe for concurrent use;
// decisions are identical to a fresh SolveBenders on every call (the
// cross-epoch state changes only the pivot/iteration path, never the
// admission outcome — pinned by the sim warm/cold equality tests).
type BendersSession struct {
	opts BendersOptions
	// model is the previous Solve's model, one of models; the next Solve
	// builds into the other. Two, not one: sameSolverShape compares last
	// epoch's enumeration with this epoch's, and one buffer rebuilt in place
	// would be compared with itself and pass any change.
	model  *model
	models [2]model
	slave  *slaveProblem
	master *masterProblem
	duals  []sessionDual
	// prevX is the previous epoch's optimal master vector, evaluated first
	// by the next solve (incumbent short-circuit): one warm slave solve
	// turns it into an upper bound plus a tight cut, and the first master
	// solve usually proves it optimal outright.
	prevX []float64
}

// NewBendersSession returns an empty session; the first Solve cold-builds.
func NewBendersSession(opts BendersOptions) *BendersSession {
	return &BendersSession{opts: opts.withDefaults()}
}

// Solve runs Algorithm 1 on the instance, re-entering from the previous
// call's solver state whenever the instance differs from the previous one
// only in costs and right-hand sides (forecast drift), and cold-rebuilding
// whenever the decision structure changed (arrivals, departures, pinning).
//
// Numerical distress in the decomposition — a master rendered infeasible
// by ill-conditioned accumulated cuts, a simplex pivot budget exhausted by
// degenerate cycling — does not fail the epoch: the poisoned carried state
// (cuts, incumbent) is dropped and the instance is re-solved cold. A cold
// Benders solve is a pure function of the instance, so a serial or cold
// replay of the same round reaches the identical decision and the
// warm==cold equality contract survives distress by construction. (Should
// even the cold solve hit distress, SolveBenders falls back to the
// monolithic oracle as a last resort — equally instance-deterministic.)
func (s *BendersSession) Solve(inst *Instance) (*Decision, error) {
	m, err := s.bind(inst)
	if err != nil {
		return nil, err
	}
	d, err := bendersSolve(m, s.slave, s.master, s.opts, s)
	if err == nil {
		return d, nil
	}
	s.model, s.slave, s.master = nil, nil, nil
	s.duals, s.prevX = s.duals[:0], s.prevX[:0]
	if d, err = SolveBenders(inst, s.opts); err != nil {
		return nil, err
	}
	d.FellBack = true
	return d, nil
}

// bind readies the solver state for the instance and returns its model,
// enumerated into the spare buffer: slave and master are refreshed in place
// when the solver shape held and rebuilt cold, the carried state dropped,
// when it did not; then the master is seeded with the carried cuts, each
// re-derived from its dual vector against the *current* affine RHS maps (the
// λ̂ in rows (18) moved with the forecasts).
func (s *BendersSession) bind(inst *Instance) (*model, error) {
	m := &s.models[0]
	if m == s.model {
		m = &s.models[1]
	}
	if err := m.build(inst); err != nil {
		return nil, err
	}
	switch {
	case s.slave == nil || !sameSolverShape(s.model, m):
		s.slave, s.master = m.buildSlave(s.slave), m.buildMaster(s.master)
		s.duals, s.prevX = s.duals[:0], s.prevX[:0]
	case sameCommitments(s.model.inst, inst):
		s.slave.refresh(m)
		s.master.rebind(m)
	default:
		// Same matrices, other commitments: the master's rows (5) changed
		// sense, so it alone is rebuilt, and the incumbent, which may violate
		// the new rows and would then bound nothing, goes. The duals stay.
		s.slave.refresh(m)
		s.master, s.prevX = m.buildMaster(s.master), s.prevX[:0]
	}
	s.model = m

	kept := s.duals[:0]
	for _, sd := range s.duals {
		constant, coefs := s.slave.cutFromDuals(sd.mu)
		switch {
		case sd.ray:
			// Farkas rays live in the dual recession cone, which depends
			// only on the constraint matrix — unchanged by construction
			// (sameSolverShape) — so every carried ray still certifies,
			// unless it went degenerate under the new affine map.
			if !s.master.addFeasCut(constant, coefs) {
				continue
			}
		case s.slave.dualStillFeasible(sd.mu):
			// Optimality cuts are valid for any dual-feasible µ; cost
			// changes can expel µ from the dual polyhedron, hence the check.
			s.master.addOptCut(constant, coefs)
		default:
			continue
		}
		kept = append(kept, sd)
	}
	s.duals = kept
	return m, nil
}

// remember pools a freshly discovered dual vector, evicting the oldest
// entries beyond the pool bound.
func (s *BendersSession) remember(ray bool, mu []float64) {
	s.duals = append(s.duals, sessionDual{ray: ray, mu: append([]float64(nil), mu...)})
	if n := len(s.duals); n > maxSessionDuals {
		copy(s.duals, s.duals[n-maxSessionDuals:])
		s.duals = s.duals[:maxSessionDuals]
	}
}
