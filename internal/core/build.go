package core

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/lp"
	"repro/internal/milp"
)

// The unlimited-capacity marker: links at or above this capacity (the
// emulated edge↔core interconnect) are not given capacity rows.
const unlimitedLinkMbps = 1e8

// DefaultBigM prices a unit of leased deficit capacity (Instance.BigM); it
// must dwarf any attainable reward so deficits appear only when constraint
// (13) forces them (§3.4). Every layer that relaxes capacity uses it.
const DefaultBigM = 1e4

// slaveRow describes one slave-LP row whose right-hand side is affine in
// the master's binary vector: rhs(x) = r0 + Σ coef_j·x_j. The Benders cuts
// are mechanical inner products against these rows.
type slaveRow struct {
	sense lp.Sense
	r0    float64
	xs    []lp.Term // terms over *item indices* (master x variables)
}

// dirVars maps model entities to LP variable indices for the monolithic
// MILP (Problem 2 with the big-M relaxation of §3.4).
type dirVars struct {
	x, y, z    []int
	dR, dT, dC int // deficit variables; -1 when BigM == 0
}

// buildDirect assembles the full AC-RR MILP: objective Ψ(x,y) + M·δ with
// constraints (14)–(16), (5), (6), (8)–(13) and the linearization rows
// (10)–(12).
func (m *model) buildDirect() (*lp.Problem, *dirVars) {
	p := lp.New()
	v := &dirVars{
		x:  make([]int, len(m.items)),
		y:  make([]int, len(m.items)),
		z:  make([]int, len(m.items)),
		dR: -1, dT: -1, dC: -1,
	}
	for idx, it := range m.items {
		v.x[idx] = p.AddVar(it.xCoef)
		v.y[idx] = p.AddVar(it.yCoef)
		v.z[idx] = p.AddVar(it.zCoef)
	}
	bigM := m.inst.BigM
	if bigM > 0 {
		v.dR = p.AddVar(bigM)
		v.dT = p.AddVar(bigM)
		v.dC = p.AddVar(bigM)
	}

	addCapacityRows(p, m, func(idx int) (zVar int, xVar int) { return v.z[idx], v.x[idx] }, v.dR, v.dT, v.dC)
	addPlacementRows(p, m, func(idx int) int { return v.x[idx] })
	addCouplingRows(p, m, v)
	return p, v
}

// addCapacityRows emits constraints (14), (15), (16) — or their strict
// (2)–(4) forms when no deficit variables exist.
func addCapacityRows(p *lp.Problem, m *model, vars func(idx int) (z, x int), dR, dT, dC int) {
	inst := m.inst
	// (14) CU compute: Σ aτ·x + bτ·z ≤ Cc + δc.
	for c, cu := range inst.Net.CUs {
		var terms []lp.Term
		for idx, it := range m.items {
			if it.cu != c {
				continue
			}
			zv, xv := vars(idx)
			cm := inst.Tenants[it.tenant].SLA.Compute
			if cm.CPUPerMbps != 0 {
				terms = append(terms, lp.T(zv, cm.CPUPerMbps))
			}
			if cm.BaselineCPU != 0 {
				terms = append(terms, lp.T(xv, cm.BaselineCPU))
			}
		}
		if len(terms) == 0 {
			continue
		}
		if dC >= 0 {
			terms = append(terms, lp.T(dC, -1))
		}
		p.AddConstraint(lp.LE, cu.CPUCores, terms...)
	}
	// (15) transport links: Σ z·ηe·1_{e∈p} ≤ Ce + δb.
	for _, l := range inst.Net.Links {
		if l.CapMbps >= unlimitedLinkMbps {
			continue
		}
		var terms []lp.Term
		for idx, it := range m.items {
			if inst.Paths[it.bs][it.cu][it.path].Uses(l.ID) {
				zv, _ := vars(idx)
				terms = append(terms, lp.T(zv, inst.EtaTransport))
			}
		}
		if len(terms) == 0 {
			continue
		}
		if dT >= 0 {
			terms = append(terms, lp.T(dT, -1))
		}
		p.AddConstraint(lp.LE, l.CapMbps, terms...)
	}
	// (16) radio: Σ z·ητ,b ≤ Cb + δr.
	for b, bs := range inst.Net.BSs {
		var terms []lp.Term
		for idx, it := range m.items {
			if it.bs == b {
				zv, _ := vars(idx)
				terms = append(terms, lp.T(zv, bs.Eta))
			}
		}
		if len(terms) == 0 {
			continue
		}
		if dR >= 0 {
			terms = append(terms, lp.T(dR, -1))
		}
		p.AddConstraint(lp.LE, bs.CapMHz, terms...)
	}
}

// addPlacementRows emits the pure-binary constraints (5), (6) and (13).
func addPlacementRows(p *lp.Problem, m *model, xv func(idx int) int) {
	inst := m.inst
	for t := range inst.Tenants {
		// (5): at most one path per (tenant, BS) across all CUs — exactly
		// one for committed tenants (13).
		for b := 0; b < m.nBS; b++ {
			items := m.byTenantBS[t][b]
			if len(items) == 0 {
				continue
			}
			terms := make([]lp.Term, len(items))
			for i, idx := range items {
				terms[i] = lp.T(xv(idx), 1)
			}
			if inst.Tenants[t].Committed {
				p.AddConstraint(lp.EQ, 1, terms...)
			} else {
				p.AddConstraint(lp.LE, 1, terms...)
			}
		}
		// (6): every BS of an accepted slice connects to the same CU.
		// The paper states it pairwise over all m ≠ n; a circular chain of
		// ≤ relations is equivalent and needs only B rows per (τ, c).
		if m.nBS > 1 {
			for c := 0; c < m.nCU; c++ {
				sums := make([][]int, m.nBS)
				any := false
				for _, idx := range m.byTenantCU[t][c] {
					it := m.items[idx]
					sums[it.bs] = append(sums[it.bs], idx)
					any = true
				}
				if !any {
					continue
				}
				for b := 0; b < m.nBS; b++ {
					nb := (b + 1) % m.nBS
					var terms []lp.Term
					for _, idx := range sums[b] {
						terms = append(terms, lp.T(xv(idx), 1))
					}
					for _, idx := range sums[nb] {
						terms = append(terms, lp.T(xv(idx), -1))
					}
					if len(terms) > 0 {
						p.AddConstraint(lp.LE, 0, terms...)
					}
				}
			}
		}
	}
}

// addCouplingRows emits the reservation coupling (8), (9) and the
// linearization rows (10)–(12) for the monolithic MILP.
func addCouplingRows(p *lp.Problem, m *model, v *dirVars) {
	for idx, it := range m.items {
		x, y, z := v.x[idx], v.y[idx], v.z[idx]
		p.AddConstraint(lp.LE, 0, lp.T(z, 1), lp.T(x, -it.lambda))                     // (8)  z ≤ Λx
		p.AddConstraint(lp.LE, 0, lp.T(x, it.lambdaHat), lp.T(z, -1))                  // (9)  λ̂x ≤ z
		p.AddConstraint(lp.LE, 0, lp.T(y, 1), lp.T(x, -it.lambda))                     // (10) y ≤ Λx
		p.AddConstraint(lp.LE, 0, lp.T(y, 1), lp.T(z, -1))                             // (11) y ≤ z
		p.AddConstraint(lp.LE, it.lambda, lp.T(z, 1), lp.T(x, it.lambda), lp.T(y, -1)) // (12)
	}
}

// SolveDirect solves the AC-RR MILP (Problem 2) monolithically. It is
// exact and serves as the oracle for the decomposition methods; the
// no-overbooking baseline uses it with Instance.Overbook = false.
func SolveDirect(inst *Instance) (*Decision, error) {
	m, err := buildModel(inst)
	if err != nil {
		return nil, err
	}
	p, v := m.buildDirect()
	solver := solverPool.Get().(*milp.Solver)
	defer solverPool.Put(solver)
	sol, err := milpSolve(solver, p, v.x)
	if err != nil {
		return nil, err
	}
	d := m.newDecision()
	d.Iterations = 1
	if sol == nil { // infeasible
		return nil, fmt.Errorf("core: AC-RR infeasible (committed slices exceed capacity and BigM is disabled)")
	}
	x := make([]float64, len(m.items))
	z := make([]float64, len(m.items))
	psi := 0.0
	for idx := range m.items {
		x[idx] = sol.X[v.x[idx]]
		z[idx] = sol.X[v.z[idx]]
		psi += m.items[idx].xCoef*sol.X[v.x[idx]] + m.items[idx].yCoef*sol.X[v.y[idx]]
	}
	m.fill(d, x, z)
	d.Obj = psi
	if v.dR >= 0 {
		d.DeficitRadio = sol.X[v.dR]
		d.DeficitTransport = sol.X[v.dT]
		d.DeficitCompute = sol.X[v.dC]
	}
	return d, nil
}

// solverPool lends a milp.Solver — an LP workspace, nothing else — to
// whoever is about to run MILP solves: a Benders loop for every iteration's
// master, a direct solve for its one model. A Solver resets its basis before
// every search, so which caller held it last cannot reach any result; what
// the loan saves is allocating, zeroing and faulting in the root relaxation's
// dense tableau (megabytes on a metro pod) per solve.
//
// A pool, not a field on BendersSession: with one Solver per session, 44
// metro pod domains each kept their own ≈ 7 MB tableau — the resident set
// grew by 200 MB, and because rounds visit domains in turn every round
// streamed a different cold tableau through the cache (BenchmarkMetroRound
// 15 → 28 ms, DESIGN.md §12). The pool's population follows the number of
// solves in flight (shards), the same hot buffers serve every domain, and
// an idle process's share is released by the garbage collector.
var solverPool = sync.Pool{New: func() any { return new(milp.Solver) }}

// milpSolve wraps the branch-and-bound with the solver options used
// throughout; nil solution means integer-infeasible.
func milpSolve(solver *milp.Solver, p *lp.Problem, binaries []int) (*milp.Solution, error) {
	s, err := solver.Solve(p, binaries, milp.Options{MaxNodes: 100000})
	if err != nil {
		return nil, err
	}
	if s.Status == milp.Infeasible {
		return nil, nil
	}
	if s.X == nil {
		return nil, fmt.Errorf("core: MILP returned %v with no incumbent", s.Status)
	}
	return s, nil
}

// Verify re-derives the item vectors from a Decision and checks capacity
// and reservation-window feasibility against the instance, returning the
// independently recomputed Ψ. Deficit allowances from the big-M relaxation
// are honored. It is the safety net the tests run over every solver's
// output; no production path calls it.
func Verify(inst *Instance, d *Decision) (float64, error) {
	m, err := buildModel(inst)
	if err != nil {
		return 0, err
	}
	x := make([]float64, len(m.items))
	z := make([]float64, len(m.items))
	for idx, it := range m.items {
		if d.Accepted[it.tenant] && d.CU[it.tenant] == it.cu && d.PathIdx[it.tenant][it.bs] == it.path {
			x[idx] = 1
			z[idx] = d.Z[it.tenant][it.bs]
		}
	}
	return m.verifyDecision(x, z, d.DeficitCompute, d.DeficitTransport, d.DeficitRadio)
}

// verifyDecision recomputes Ψ and checks capacity feasibility of a
// decision against the instance; shared by tests and the KAC heuristic's
// final sanity pass. Returns the recomputed Ψ.
func (m *model) verifyDecision(x, z []float64, defC, defT, defR float64) (float64, error) {
	inst := m.inst
	psi := 0.0
	cuUse := make([]float64, m.nCU)
	bsUse := make([]float64, m.nBS)
	linkUse := make(map[int]float64)
	for idx, it := range m.items {
		if x[idx] < 0.5 {
			if z[idx] > 1e-6 {
				return 0, fmt.Errorf("item %d: z=%v with x=0", idx, z[idx])
			}
			continue
		}
		if z[idx] < it.lambdaHat-1e-6 || z[idx] > it.lambda+1e-6 {
			return 0, fmt.Errorf("item %d: z=%v outside [λ̂=%v, Λ=%v]", idx, z[idx], it.lambdaHat, it.lambda)
		}
		psi += it.xCoef + it.yCoef*z[idx]
		cm := inst.Tenants[it.tenant].SLA.Compute
		cuUse[it.cu] += cm.BaselineCPU + cm.CPUPerMbps*z[idx]
		bsUse[it.bs] += z[idx] * inst.Net.BSs[it.bs].Eta
		for _, lid := range inst.Paths[it.bs][it.cu][it.path].LinkIDs {
			linkUse[lid] += z[idx] * inst.EtaTransport
		}
	}
	const tol = 1e-5
	for c, u := range cuUse {
		if u > inst.Net.CUs[c].CPUCores+defC+tol {
			return 0, fmt.Errorf("CU %d over capacity: %v > %v", c, u, inst.Net.CUs[c].CPUCores)
		}
	}
	for b, u := range bsUse {
		if u > inst.Net.BSs[b].CapMHz+defR+tol {
			return 0, fmt.Errorf("BS %d over capacity: %v > %v", b, u, inst.Net.BSs[b].CapMHz)
		}
	}
	for lid, u := range linkUse {
		l := inst.Net.LinkByID(lid)
		if l.CapMbps < unlimitedLinkMbps && u > l.CapMbps+defT+tol {
			return 0, fmt.Errorf("link %d over capacity: %v > %v", lid, u, l.CapMbps)
		}
	}
	return psi, nil
}

// clampUnit snaps a relaxed binary to {0,1}.
func clampUnit(v float64) float64 {
	if v >= 0.5 {
		return 1
	}
	return 0
}

// sameSolverShape reports whether two models produce identical solver
// matrices, i.e. whether LP/MILP structures (and warm-start state: a carried
// simplex basis, pooled Benders cut duals) built for prev may be re-bound to
// next by rewriting only objective costs and affine right-hand-side metadata.
//
// This is the delta test behind the cross-epoch pipeline: consecutive sim
// epochs usually differ only in forecasts (λ̂, σ̂, remaining lifetime), which
// enter the objective coefficients and the affine RHS maps but never the
// constraint matrix. The matrix is a function of
//
//   - the item enumeration (tenant, BS, CU, path) — changed by arrivals,
//     departures, and commitment pinning;
//   - each tenant's compute model sτ = {aτ, bτ} (capacity-row coefficients
//     and row existence);
//   - the topology, the path sets, ηe and the big-M deficit columns.
//
// Anything else — λ̂, σ̂, Λ-clamping, risk horizon, holding fraction,
// overbooking mode — is cost/RHS-only and safe to rebind.
func sameSolverShape(prev, next *model) bool {
	if prev == nil || next == nil {
		return false
	}
	a, b := prev.inst, next.inst
	if a.Net != b.Net || a.EtaTransport != b.EtaTransport || a.BigM != b.BigM {
		return false
	}
	if len(a.Tenants) != len(b.Tenants) || len(prev.items) != len(next.items) {
		return false
	}
	if prev.nBS != next.nBS || prev.nCU != next.nCU {
		return false
	}
	for ti := range a.Tenants {
		if a.Tenants[ti].SLA.Compute != b.Tenants[ti].SLA.Compute {
			return false
		}
	}
	for idx := range prev.items {
		pi, ni := &prev.items[idx], &next.items[idx]
		if pi.tenant != ni.tenant || pi.bs != ni.bs || pi.cu != ni.cu ||
			pi.path != ni.path || pi.lambda != ni.lambda {
			return false
		}
	}
	// The item enumeration encodes the delay-filtered path *indices*; make
	// sure they index the same path sets (callers reuse one Paths slice
	// across epochs, so backing-array identity is the cheap sufficient
	// check — a rebuilt Paths forces a conservative cold rebuild).
	if len(a.Paths) != len(b.Paths) {
		return false
	}
	for bsi := range a.Paths {
		if len(a.Paths[bsi]) != len(b.Paths[bsi]) {
			return false
		}
		for cui := range a.Paths[bsi] {
			pa, pb := a.Paths[bsi][cui], b.Paths[bsi][cui]
			if len(pa) != len(pb) {
				return false
			}
			if len(pa) > 0 && &pa[0] != &pb[0] {
				return false
			}
		}
	}
	return true
}

// sameCommitments reports whether two instances of one solver shape commit
// the same tenants: whether the master's rows (5) read = 1 (13) in the same
// places. The shape does not say — a tenant reaching one CU only keeps its
// items when pinned there.
func sameCommitments(a, b *Instance) bool {
	return slices.EqualFunc(a.Tenants, b.Tenants, func(x, y TenantSpec) bool { return x.Committed == y.Committed })
}

// DebugBuild exposes the monolithic MILP construction for profiling tools;
// not part of the stable API.
func DebugBuild(inst *Instance) (*lp.Problem, []int) {
	m, err := buildModel(inst)
	if err != nil {
		panic(err)
	}
	p, v := m.buildDirect()
	return p, v.x
}
