package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/lp"
	"repro/internal/slice"
	"repro/internal/topology"
)

// This file holds the routines the warm session's in-place rebinding
// replaced, kept as oracles: a slave refreshed in place must equal a slave
// built fresh from the same model, the master the session keeps must equal
// the master every round used to build from lp.New(), and a slave and master
// rebuilt into the old ones' storage must equal a fresh build.

// drifted returns the instance one forecast step later: the same tenants with
// λ̂ and σ̂ moved, in a fresh Tenants slice — the way the admission engine
// hands a session its rounds (a new specs slice every round).
func drifted(inst *Instance, rng *rand.Rand) *Instance {
	next := *inst
	next.Tenants = append([]TenantSpec(nil), inst.Tenants...)
	for i := range next.Tenants {
		tn := &next.Tenants[i]
		tn.LambdaHat = math.Max(0.5, tn.LambdaHat*(0.8+0.4*rng.Float64()))
		tn.Sigma = math.Min(1, math.Max(0.02, tn.Sigma*(0.6+0.8*rng.Float64())))
	}
	return &next
}

// metroPodInstance is one metro pod (24 BSs) with a mixed tenant set, one of
// them committed.
func metroPodInstance() *Instance {
	net := topology.Metro(topology.MetroPodBS)
	ts := []TenantSpec{
		embbTenant("e1", 20, 0.3, 1, 6),
		typedTenant("m1", slice.MMTC, 6, 0.2, 1, 4),
		typedTenant("u1", slice.URLLC, 8, 0.25, 2, 4),
		embbTenant("e2", 30, 0.2, 2, 4),
	}
	ts[0].Committed, ts[0].CommittedCU = true, 0
	return &Instance{Net: net, Paths: net.Paths(2), Tenants: ts, Overbook: true, BigM: DefaultBigM}
}

// sameLP requires two problems to agree variable for variable and row for
// row, bit for bit: every cost, sense, right-hand side and term, in order.
func sameLP(t *testing.T, what string, got, want *lp.Problem) {
	t.Helper()
	if got.NumVars() != want.NumVars() || got.NumRows() != want.NumRows() {
		t.Fatalf("%s: %d vars × %d rows, want %d × %d", what, got.NumVars(), got.NumRows(), want.NumVars(), want.NumRows())
	}
	for v := 0; v < want.NumVars(); v++ {
		if !sameBits(got.Cost(v), want.Cost(v)) {
			t.Fatalf("%s: cost of variable %d is %v, want %v", what, v, got.Cost(v), want.Cost(v))
		}
	}
	for i := 0; i < want.NumRows(); i++ {
		gt, wt := got.RowTerms(i), want.RowTerms(i)
		if got.RowSense(i) != want.RowSense(i) || !sameBits(got.RHS(i), want.RHS(i)) || len(gt) != len(wt) {
			t.Fatalf("%s: row %d is %v %v %v, want %v %v %v", what, i, gt, got.RowSense(i), got.RHS(i), wt, want.RowSense(i), want.RHS(i))
		}
		for k := range wt {
			if !sameTerm(gt[k], wt[k]) {
				t.Fatalf("%s: row %d term %d is %v, want %v", what, i, k, gt[k], wt[k])
			}
		}
	}
}

// TestRefreshMatchesRowSet: refresh rewrites only the y/z costs and each
// item's row-(18) −λ̂, so a refreshed slave must equal, bit for bit, a slave
// built fresh from the same model — over the warm corpus, a metro pod, an
// instance without overbooking (λ̂ = Λ, nothing moves) and one without
// deficit columns (BigM = 0). TestRefreshMatchesRowSetOnArchetypes runs
// the same check over every scenario archetype.
func TestRefreshMatchesRowSet(t *testing.T) {
	corpus := warmCheckInstances()
	corpus["metro-pod"] = metroPodInstance()
	hard := *corpus["committed"]
	hard.Overbook = false
	corpus["no-overbooking"] = &hard
	noDeficit := *corpus["small"]
	noDeficit.BigM = 0
	corpus["bigm-0"] = &noDeficit
	for name, inst := range corpus {
		checkRefresh(t, name, inst)
	}
}

// checkRefresh drives inst through five forecast-drift steps, refreshing one
// slave in place at each. After every step the refreshed slave's affine row
// metadata (r0, every x term) and its LP (every cost, sense,
// right-hand side and term) must be bit-identical (math.Float64bits) to
// those of a slave built fresh from the same model.
func checkRefresh(t *testing.T, name string, inst *Instance) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	m, err := buildModel(inst)
	if err != nil {
		t.Fatal(err)
	}
	warm := m.buildSlave(nil)
	for step := 0; step < 5; step++ {
		inst = drifted(inst, rng)
		next, err := buildModel(inst)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSolverShape(m, next) {
			t.Fatalf("%s step %d: forecast drift changed the solver shape", name, step)
		}
		warm.refresh(next)
		fresh := next.buildSlave(nil)
		m = next

		if warm.m != next || len(warm.rows) != len(fresh.rows) {
			t.Fatalf("%s step %d: refreshed slave has %d rows on model %p, want %d on %p", name, step, len(warm.rows), warm.m, len(fresh.rows), next)
		}
		for i, want := range fresh.rows {
			got := warm.rows[i]
			if !sameBits(got.r0, want.r0) || len(got.xs) != len(want.xs) {
				t.Fatalf("%s step %d row %d: %+v, want %+v", name, step, i, got, want)
			}
			for k := range want.xs {
				if !sameTerm(got.xs[k], want.xs[k]) {
					t.Fatalf("%s step %d row %d x term %d: %v, want %v", name, step, i, k, got.xs[k], want.xs[k])
				}
			}
		}
		// A fresh slave's right-hand sides are its r0; the refreshed one's
		// are whatever x̄ was last installed. Level them before comparing.
		zero := make([]float64, len(next.items))
		warm.setX(zero)
		fresh.setX(zero)
		sameLP(t, name+": refreshed slave LP", warm.p, fresh.p)
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameTerm(a, b lp.Term) bool { return a.Var == b.Var && sameBits(a.Coef, b.Coef) }

// freshMaster is the master as bendersSolve built it every round before the
// session kept one: lp.New(), the x and θ variables, the placement rows, then
// one cut per pooled dual, derived by the old allocating routines. With check
// set, optimality duals the slave's current costs expelled are dropped, as
// the seeding pass does; kept reports which duals made it in.
func freshMaster(m *model, slave *slaveProblem, duals []sessionDual, check bool) (master *lp.Problem, kept []sessionDual) {
	bigTheta := 1.0
	for _, it := range m.items {
		if it.yCoef < 0 {
			bigTheta += -it.yCoef * it.lambda
		}
	}
	master = lp.New()
	xVar := make([]int, len(m.items))
	for idx, it := range m.items {
		xVar[idx] = master.AddVar(it.xCoef)
	}
	thetaVar := master.AddVar(1)
	addPlacementRows(master, m, func(idx int) int { return xVar[idx] })

	for _, sd := range duals {
		constant, coefs := 0.0, make([]float64, len(m.items))
		for i, r := range slave.rows {
			if sd.mu[i] == 0 {
				continue
			}
			constant += sd.mu[i] * r.r0
			for _, t := range r.xs {
				coefs[t.Var] += sd.mu[i] * t.Coef
			}
		}
		s := 1.0
		for _, cf := range coefs {
			if a := math.Abs(cf); a > s {
				s = a
			}
		}
		var terms []lp.Term
		if !sd.ray {
			if check && !slave.dualStillFeasible(sd.mu) {
				continue
			}
			terms = append(terms, lp.T(thetaVar, 1/s))
		}
		for idx, cf := range coefs {
			switch {
			case cf == 0:
			case sd.ray:
				terms = append(terms, lp.T(xVar[idx], cf/s))
			default:
				terms = append(terms, lp.T(xVar[idx], -cf/s))
			}
		}
		switch {
		case !sd.ray:
			master.AddConstraint(lp.GE, (constant+bigTheta)/s, terms...)
		case len(terms) == 0:
			continue
		default:
			master.AddConstraint(lp.LE, -constant/s, terms...)
		}
		kept = append(kept, sd)
	}
	return master, kept
}

// TestMasterSkeletonMatchesFreshBuild drives a session through 60 drifting
// epochs, with a shape change in the middle that keeps the tenant count and
// changes one tenant's SLA.Compute — the change a model buffer rebuilt in
// place would hide from sameSolverShape — and, either side of it, a URLLC
// tenant whose only feasible CU is the one it gets pinned to going pending →
// committed → pending: the solver shape holds, the slave is kept, and the
// master's rows (5) must still follow the flag. At every epoch it holds the master
// the session kept to the one the old per-round build produces: after the
// carried cuts are re-derived into it (cuts carried, cuts dropped), and again
// after the solve has appended this epoch's cuts. The session must rebuild
// cold exactly when freshly built models of consecutive epochs differ in
// shape.
func TestMasterSkeletonMatchesFreshBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst := testInstance([]TenantSpec{
		embbTenant("e1", 22, 0.4, 1, 6),
		embbTenant("e2", 31, 0.5, 2, 4),
		typedTenant("u1", slice.URLLC, 6, 0.3, 1, 4),
		typedTenant("m1", slice.MMTC, 5, 0.2, 1, 4),
	}, true)
	sess := NewBendersSession(BendersOptions{})
	var prev *model
	carried, droppedCuts, rebuilds := 0, 0, 0
	for epoch := 0; epoch < 60; epoch++ {
		inst = drifted(inst, rng)
		switch epoch {
		case 15: // u1, admitted, comes back committed: rows (5) turn into (13)
			inst.Tenants[2].Committed, inst.Tenants[2].CommittedCU = true, 0
		case 30:
			inst.Tenants[3].SLA.Compute.BaselineCPU += 0.5
		case 45: // u1 expired and a pending URLLC request took its index
			inst.Tenants[2].Committed = false
		}
		ref, err := buildModel(inst)
		if err != nil {
			t.Fatal(err)
		}
		wantWarm := sameSolverShape(prev, ref)
		if epoch == 30 && wantWarm {
			t.Fatal("a changed compute model must change the solver shape")
		}
		if (epoch == 15 || epoch == 45) && !wantWarm {
			t.Fatal("a URLLC tenant reaches only CU 0 on the testbed: pinning it there must keep the solver shape")
		}
		prev = ref
		pool := append([]sessionDual(nil), sess.duals...)
		if !wantWarm {
			pool = nil
		}

		m, err := sess.bind(inst)
		if err != nil {
			t.Fatal(err)
		}
		// A rebuild recycles the slave's storage, so it shows in state, not
		// in pointers: the rebuilt slave's basis is reset, a kept one is warm.
		if warm := sess.slave.basis.Warm(sess.slave.p); warm != wantWarm {
			t.Fatalf("epoch %d: session reused its solver state = %v, want %v", epoch, warm, wantWarm)
		}
		if !wantWarm {
			rebuilds++
		}
		refSlave := ref.buildSlave(nil)
		want, kept := freshMaster(ref, refSlave, pool, true)
		sameLP(t, "seeded master", sess.master.p, want)
		if len(kept) != len(sess.duals) {
			t.Fatalf("epoch %d: session kept %d duals, the fresh build %d", epoch, len(sess.duals), len(kept))
		}
		carried += len(kept)
		droppedCuts += len(pool) - len(kept)

		if _, err := bendersSolve(m, sess.slave, sess.master, sess.opts, sess); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if sess.master.p.NumRows() == sess.master.skeleton+len(sess.duals) { // nothing evicted
			want, _ = freshMaster(ref, refSlave, sess.duals, false)
			sameLP(t, "master after the solve", sess.master.p, want)
		}
	}
	if carried == 0 || droppedCuts == 0 || rebuilds != 2 {
		t.Fatalf("run carried %d cuts, dropped %d, rebuilt %d times: want some, some and 2 (first epoch, compute change)", carried, droppedCuts, rebuilds)
	}
}

// TestWarmSessionSolveAllocs caps what one warm session round allocates. The
// model, the slave's row metadata, the master and its cut rows, the cut
// scratch and the MILP root's clone and presolve are all rewritten in place;
// what is left is the Decision (5 + 2 per tenant), one pooled copy per
// discovered dual, and per master solve the branch-and-bound's nodes and
// returned solutions: 48 a round here, where the per-round rebuild took
// 1,097. The ceiling is one number that also holds under the race detector,
// where sync.Pool drops a Put in four and the Benders loop's borrowed
// milp.Solver is then grown again from nothing (120–140 a round).
func TestWarmSessionSolveAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inst := testInstance([]TenantSpec{
		embbTenant("e1", 22, 0.4, 1, 6), embbTenant("e2", 31, 0.5, 2, 4),
		embbTenant("e3", 18, 0.3, 1, 4), embbTenant("e4", 25, 0.2, 4, 4),
		typedTenant("u1", slice.URLLC, 6, 0.3, 1, 4), typedTenant("m1", slice.MMTC, 5, 0.2, 1, 4),
	}, true)
	sess := NewBendersSession(BendersOptions{})
	var rounds []*Instance
	for i := 0; i < 140; i++ {
		inst = drifted(inst, rng)
		rounds = append(rounds, inst)
	}
	next := 0
	solve := func() {
		if _, err := sess.Solve(rounds[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for next < 30 {
		solve()
	}
	const ceiling = 240
	if n := testing.AllocsPerRun(100, solve); n > ceiling {
		t.Fatalf("a warm session round allocates %v times, want at most %d", n, ceiling)
	} else {
		t.Logf("a warm session round allocates %v times (ceiling %d)", n, ceiling)
	}
}

// shapeWalk walks one domain through every kind of shape change a session
// rebuilds on, growing and shrinking, with forecast drift in between: an
// arrival, two expiries, a compute-model change that keeps every row count, a
// URLLC tenant pinned to the one CU it reaches (commitments only: the master
// alone is rebuilt), an eMBB tenant pinned to a CU (fewer items), and two
// arrivals past the first peak.
func shapeWalk() []*Instance {
	rng := rand.New(rand.NewSource(12))
	inst := testInstance([]TenantSpec{
		embbTenant("e1", 22, 0.4, 1, 6), embbTenant("e2", 31, 0.5, 2, 4),
		typedTenant("u1", slice.URLLC, 6, 0.3, 1, 4), typedTenant("m1", slice.MMTC, 5, 0.2, 1, 4),
	}, true)
	var seq []*Instance
	step := func(change func(ts []TenantSpec) []TenantSpec) {
		inst = drifted(inst, rng)
		inst.Tenants = change(inst.Tenants)
		seq = append(seq, inst)
	}
	same := func(ts []TenantSpec) []TenantSpec { return ts }
	step(same)
	step(same)
	step(func(ts []TenantSpec) []TenantSpec { return append(ts, embbTenant("e3", 18, 0.3, 1, 4)) })
	step(same)
	step(func(ts []TenantSpec) []TenantSpec { return append(append(ts[:1:1], ts[2]), ts[4]) }) // e2, m1 expire
	step(same)
	step(func(ts []TenantSpec) []TenantSpec { ts[1].SLA.Compute.BaselineCPU += 0.5; return ts })
	step(same)
	step(func(ts []TenantSpec) []TenantSpec { ts[1].Committed, ts[1].CommittedCU = true, 0; return ts })
	step(same)
	step(func(ts []TenantSpec) []TenantSpec { ts[0].Committed, ts[0].CommittedCU = true, 1; return ts })
	step(func(ts []TenantSpec) []TenantSpec {
		return append(ts, typedTenant("m2", slice.MMTC, 6, 0.2, 1, 4), embbTenant("e4", 25, 0.2, 4, 4), embbTenant("e5", 12, 0.4, 1, 4))
	})
	step(same)
	return seq
}

// sameSlave requires a slave to equal a fresh build of the same model: the
// LP, the variable maps, each item's row (18) and every row's affine metadata.
func sameSlave(t *testing.T, what string, got, want *slaveProblem) {
	t.Helper()
	sameLP(t, what, got.p, want.p)
	if !slices.Equal(got.yVar, want.yVar) || !slices.Equal(got.zVar, want.zVar) ||
		!slices.Equal(got.lamRow, want.lamRow) || got.dR != want.dR || got.dT != want.dT || got.dC != want.dC {
		t.Fatalf("%s: variable maps differ from a fresh build", what)
	}
	if len(got.rows) != len(want.rows) {
		t.Fatalf("%s: %d rows of metadata, want %d", what, len(got.rows), len(want.rows))
	}
	for i, w := range want.rows {
		g := got.rows[i]
		if g.r0 != w.r0 || !slices.Equal(g.xs, w.xs) {
			t.Fatalf("%s: row %d is %+v, want %+v", what, i, g, w)
		}
	}
}

// TestRecycledRebuildMatchesFresh walks a session through shapeWalk and, on
// every rebuild, holds the slave and master it rebuilt into its old ones'
// storage to a fresh build — and the rebuilt slave's basis to a cold one. It
// requires every Decision to DeepEqual that of a reference session that
// rebuilds from nothing, as every session did before rebuilds recycled.
func TestRecycledRebuildMatchesFresh(t *testing.T) {
	sess := NewBendersSession(BendersOptions{})
	ref := NewBendersSession(BendersOptions{})
	var prev *model
	rebuilds, masterRebuilds := 0, 0
	for e, inst := range shapeWalk() {
		want, err := buildModel(inst)
		if err != nil {
			t.Fatal(err)
		}
		shape := sameSolverShape(prev, want)
		commits := shape && sameCommitments(prev.inst, inst)
		prev = want

		// The reference session gets no storage to rebuild into.
		if !shape {
			ref.slave, ref.master = nil, nil
		} else if !commits {
			ref.master = nil
		}
		refD, err := ref.Solve(inst)
		if err != nil {
			t.Fatalf("epoch %d reference: %v", e, err)
		}

		oldSlave, oldMaster := sess.slave, sess.master
		m, err := sess.bind(inst)
		if err != nil {
			t.Fatal(err)
		}
		if !shape {
			rebuilds++
			if oldSlave != nil && sess.slave != oldSlave {
				t.Fatalf("epoch %d: the slave was rebuilt into new storage", e)
			}
			if sess.slave.m != m || sess.slave.basis.Warm(sess.slave.p) {
				t.Fatalf("epoch %d: the rebuilt slave is not bound to the round's model or kept a warm basis", e)
			}
			sameSlave(t, "rebuilt slave", sess.slave, want.buildSlave(nil))
		}
		if !commits {
			masterRebuilds++
			if oldMaster != nil && sess.master != oldMaster {
				t.Fatalf("epoch %d: the master was rebuilt into new storage", e)
			}
			fresh := want.buildMaster(nil)
			if !slices.Equal(sess.master.xVar, fresh.xVar) || sess.master.thetaVar != fresh.thetaVar ||
				sess.master.skeleton != fresh.skeleton || sess.master.bigTheta != fresh.bigTheta {
				t.Fatalf("epoch %d: the rebuilt master's layout differs from a fresh build", e)
			}
			seeded, _ := freshMaster(want, want.buildSlave(nil), sess.duals, false)
			sameLP(t, "rebuilt master", sess.master.p, seeded)
		}

		d, err := bendersSolve(m, sess.slave, sess.master, sess.opts, sess)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if !reflect.DeepEqual(d, refD) {
			t.Fatalf("epoch %d: recycling session decided %+v, the reference %+v", e, d, refD)
		}
	}
	if rebuilds != 6 || masterRebuilds != 7 {
		t.Fatalf("walk rebuilt %d times, the master alone %d: want 6 and 1 more", rebuilds, masterRebuilds-rebuilds)
	}
}

// coldRounds alternates a 6-tenant and a 5-tenant instance of drifting
// forecasts: every round an arrival or an expiry, so every round rebuilds.
func coldRounds(n int) []*Instance {
	rng := rand.New(rand.NewSource(4))
	inst := testInstance([]TenantSpec{
		embbTenant("e1", 22, 0.4, 1, 6), embbTenant("e2", 31, 0.5, 2, 4),
		embbTenant("e3", 18, 0.3, 1, 4), embbTenant("e4", 25, 0.2, 4, 4),
		typedTenant("u1", slice.URLLC, 6, 0.3, 1, 4), typedTenant("m1", slice.MMTC, 5, 0.2, 1, 4),
	}, true)
	rounds := make([]*Instance, n)
	for i := range rounds {
		inst = drifted(inst, rng)
		rounds[i] = inst
		if i%2 == 1 {
			short := *inst
			short.Tenants = inst.Tenants[:5]
			rounds[i] = &short
		}
	}
	return rounds
}

// TestColdRebuildSessionAllocs caps what a session round that rebuilds
// allocates. The slave's problem, basis workspace (the dense cold tableau,
// the LU buffers) and row metadata and the master's problem are rebuilt into
// the storage the session already holds; what is left is the model's
// per-round lists, the master's placement rows, the Decision, the pooled
// duals and the branch-and-bound's nodes and solutions: 136 a round here,
// where building fresh slaves and masters took 553. The ceiling also holds
// under the race detector, where the borrowed milp.Solver is regrown from
// nothing after a dropped Put (205–251 a round; see
// TestWarmSessionSolveAllocs).
func TestColdRebuildSessionAllocs(t *testing.T) {
	rounds := coldRounds(140)
	sess := NewBendersSession(BendersOptions{})
	next := 0
	solve := func() {
		if _, err := sess.Solve(rounds[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for next < 30 {
		solve()
	}
	const ceiling = 330
	if n := testing.AllocsPerRun(100, solve); n > ceiling {
		t.Fatalf("a rebuilding session round allocates %v times, want at most %d", n, ceiling)
	} else {
		t.Logf("a rebuilding session round allocates %v times (ceiling %d)", n, ceiling)
	}
}
