package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/lp"
)

// bundle is the KAC selection unit: a tenant's complete assignment to one
// CU, with the minimum-delay feasible path chosen at every BS. Selecting a
// bundle satisfies constraints (5) and (6) structurally, which is what lets
// the heuristic treat admission as a pure knapsack over bundles.
type bundle struct {
	tenant, cu int
	items      []int // item indices, one per BS
	// gamma is the bundle's admission score: the estimated Ψ contribution
	// at the midpoint reservation z = (λ̂+Λ)/2. The paper's eq. (26) uses
	// the bare master coefficient γτ,p = ΛξK/(Λ−λ̂) − R, but that term
	// diverges as λ̂ → Λ and would bar deterministic slices (mMTC) that
	// the paper's own KAC results admit; evaluating the full linearized
	// objective at a concrete reservation keeps the same risk ordering
	// while staying bounded. Negative = profitable.
	gamma float64
}

// kacMaxIterations bounds Algorithm 3's feasibility-cut rounds. The ε
// recursion's cut aggregation can need >100 rounds on wide homogeneous
// populations — the Fig. 5 grid's Romanian/eMBB cell converges at 110 — so
// the bound leaves generous headroom while still terminating promptly on
// genuine cycles, which the progress guard breaks anyway.
const kacMaxIterations = 500

// SolveKAC runs the paper's Knapsack Admission Control heuristic
// (Algorithms 2 and 3): start from every profitable bundle, and while the
// reservation slave is infeasible, turn the dual extreme ray into knapsack
// weights (eq. 27–28), fold them into a single aggregated capacity via the
// ε recursion (eq. 29–30), and re-admit greedily by first-fit decreasing
// profit density. Solutions arrive in a handful of LP solves instead of a
// full branch-and-bound — the "few seconds instead of a few hours" claim
// of §4.3.3 — at the cost of optimality for compute-heavy mixes.
func SolveKAC(inst *Instance) (*Decision, error) {
	m, err := buildModel(inst)
	if err != nil {
		return nil, err
	}

	bundles := m.buildBundles()

	// Strict slave (no big-M deficits) drives the trimming loop; the
	// relaxed slave is the §3.4 fallback when committed slices alone
	// exceed capacity.
	strictInst := *inst
	strictInst.BigM = 0
	strictModel := *m
	strictModel.inst = &strictInst
	strict := (&strictModel).buildSlave(nil)

	// Aggregated knapsack state (eq. 29): one weight per bundle plus one
	// capacity, refined every round.
	wBar := make([]float64, len(bundles))
	WBar := 0.0
	eps := 1.0
	selected := selectBundles(m, bundles, wBar, WBar)
	seen := map[string]bool{signature(selected): true}

	d := m.newDecision()
	for iter := 1; iter <= kacMaxIterations; iter++ {
		d.Iterations = iter
		// The trimming chain is cold on purpose: every solve but the last
		// is infeasible, so there is never an optimal basis to re-enter
		// from, and priming one (a feasible x = 0 solve, then dual simplex
		// re-entry each round) measured ~1.7x slower than cold two-phase
		// restarts — the per-round RHS jumps are too large. Benders is the
		// warm-start beneficiary; see slaveProblem.solve.
		x := bundlesToX(m, bundles, selected)
		strict.setX(x)
		ssol, err := strict.p.Solve()
		if err != nil {
			return nil, err
		}
		if ssol.Status == lp.Optimal {
			return m.finishKAC(d, strict, bundles, selected, x, ssol)
		}
		if ssol.Status != lp.Infeasible {
			return nil, fmt.Errorf("core: KAC slave returned %v", ssol.Status)
		}

		// Feasibility cut → knapsack weights (eq. 27–28): the ray demands
		// Σ w_j·x_j ≤ W over items; aggregate to bundles.
		constant, coefs := strict.cutFromDuals(ssol.Ray)
		W := -constant
		w := make([]float64, len(bundles))
		for bi, b := range bundles {
			for _, idx := range b.items {
				w[bi] += coefs[idx]
			}
		}
		// ε recursion (eq. 30) keeps successive cuts on a comparable scale.
		sumW := 0.0
		for _, v := range w {
			sumW += v
		}
		eps = math.Abs(eps*W - eps*sumW)
		if eps < 1e-12 || math.IsNaN(eps) || math.IsInf(eps, 0) {
			eps = 1
		}
		for bi := range wBar {
			wBar[bi] += eps * w[bi]
		}
		WBar += eps * W

		selected = selectBundles(m, bundles, wBar, WBar)
		// Progress guard: the aggregated knapsack can revisit an earlier
		// (infeasible) selection — the single folded constraint loses
		// information, so cycles are possible. Whenever a selection
		// repeats, shed the worst-density bundle until the set is new;
		// since selections only shrink under shedding, termination is
		// guaranteed.
		for seen[signature(selected)] && len(selected) > 0 {
			if !dropWorst(bundles, selected, wBar, m) {
				break // only committed bundles left
			}
		}
		seen[signature(selected)] = true
		if len(selected) == 0 && !anyCommitted(m) {
			// Nothing admitted: trivially feasible empty decision.
			d.Obj = 0
			return d, nil
		}
		if onlyCommitted(m, bundles, selected) {
			// Committed slices alone are infeasible under strict
			// capacities; fall back to the big-M relaxed slave (§3.4).
			if m.inst.BigM > 0 {
				relaxed := m.buildSlave(nil)
				relaxed.setX(bundlesToX(m, bundles, selected))
				rsol, err := relaxed.p.Solve()
				if err != nil {
					return nil, err
				}
				if rsol.Status != lp.Optimal {
					return nil, fmt.Errorf("core: relaxed KAC slave returned %v", rsol.Status)
				}
				return m.finishKAC(d, relaxed, bundles, selected, bundlesToX(m, bundles, selected), rsol)
			}
		}
	}
	return nil, fmt.Errorf("core: KAC failed to converge in %d iterations", kacMaxIterations)
}

// buildBundles enumerates (tenant, CU) bundles with the minimum-delay
// feasible path at each BS.
func (m *model) buildBundles() []bundle {
	var out []bundle
	for t := range m.inst.Tenants {
		for c := 0; c < m.nCU; c++ {
			if !m.feasibleCU[t][c] {
				continue
			}
			b := bundle{tenant: t, cu: c}
			ok := true
			for bs := 0; bs < m.nBS; bs++ {
				best := -1
				for _, idx := range m.byTenantBS[t][bs] {
					if m.items[idx].cu != c {
						continue
					}
					// Paths are delay-sorted; the first feasible wins.
					if best == -1 || m.items[idx].path < m.items[best].path {
						best = idx
					}
				}
				if best == -1 {
					ok = false
					break
				}
				b.items = append(b.items, best)
				it := m.items[best]
				mid := (it.lambdaHat + it.lambda) / 2
				b.gamma += it.xCoef + (it.yCoef+it.zCoef)*mid
			}
			if ok {
				out = append(out, b)
			}
		}
	}
	return out
}

// selectBundles is Algorithm 2: first-fit decreasing over profit density
// ϕ = γ/w̄ under the aggregated capacity W̄, one bundle per tenant,
// committed tenants first and unconditionally.
func selectBundles(m *model, bundles []bundle, wBar []float64, WBar float64) map[int]bool {
	selected := map[int]bool{}
	tenantTaken := map[int]bool{}
	H := WBar

	// Committed tenants are not subject to the knapsack (constraint 13):
	// place them on their pinned CU and charge their weight.
	for bi, b := range bundles {
		if m.inst.Tenants[b.tenant].Committed && b.cu == m.inst.Tenants[b.tenant].CommittedCU {
			selected[bi] = true
			tenantTaken[b.tenant] = true
			H -= wBar[bi]
		}
	}

	order := make([]int, 0, len(bundles))
	for bi, b := range bundles {
		if b.gamma < 0 && !m.inst.Tenants[b.tenant].Committed {
			order = append(order, bi)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		return kacDensity(bundles[order[i]], wBar[order[i]]) > kacDensity(bundles[order[j]], wBar[order[j]])
	})

	unconstrained := WBar == 0 // first round: no cuts yet, admit all profitable
	for _, bi := range order {
		b := bundles[bi]
		if tenantTaken[b.tenant] {
			continue
		}
		if unconstrained || H-wBar[bi] >= 0 || wBar[bi] <= 0 {
			selected[bi] = true
			tenantTaken[b.tenant] = true
			if !unconstrained {
				H -= math.Max(wBar[bi], 0)
			}
		}
	}
	return selected
}

// kacDensity is the FFD sort key ϕ = γ/w̄ of Algorithm 2, oriented as
// profit per unit of aggregated weight; weightless profitable bundles rank
// first.
func kacDensity(b bundle, w float64) float64 {
	if w <= 1e-12 {
		return math.MaxFloat64
	}
	return -b.gamma / w
}

// bundlesToX expands a bundle selection into the item-indexed binary vector.
func bundlesToX(m *model, bundles []bundle, selected map[int]bool) []float64 {
	x := make([]float64, len(m.items))
	for bi := range selected {
		if !selected[bi] {
			continue
		}
		for _, idx := range bundles[bi].items {
			x[idx] = 1
		}
	}
	return x
}

// signature is a canonical key for a selection, used for cycle detection.
func signature(selected map[int]bool) string {
	keys := make([]int, 0, len(selected))
	for k, v := range selected {
		if v {
			keys = append(keys, k)
		}
	}
	sort.Ints(keys)
	return fmt.Sprint(keys)
}

// dropWorst removes the non-committed selected bundle with the lowest
// profit density, guaranteeing loop progress. It reports whether anything
// could be removed. Ties break toward the lowest bundle index — selected is
// a map, and leaving the choice to Go's randomized iteration order made
// whole runs nondeterministic whenever identical tenants tied on density.
func dropWorst(bundles []bundle, selected map[int]bool, wBar []float64, m *model) bool {
	worst, worstScore := -1, math.Inf(1)
	for bi := range selected {
		if !selected[bi] || m.inst.Tenants[bundles[bi].tenant].Committed {
			continue
		}
		score := -bundles[bi].gamma / math.Max(wBar[bi], 1e-9)
		if score < worstScore || (score == worstScore && (worst < 0 || bi < worst)) {
			worst, worstScore = bi, score
		}
	}
	if worst >= 0 {
		delete(selected, worst)
		return true
	}
	return false
}

// anyCommitted reports whether the instance has committed tenants.
func anyCommitted(m *model) bool {
	for _, t := range m.inst.Tenants {
		if t.Committed {
			return true
		}
	}
	return false
}

// onlyCommitted reports whether the selection contains committed tenants
// exclusively.
func onlyCommitted(m *model, bundles []bundle, selected map[int]bool) bool {
	if len(selected) == 0 {
		return anyCommitted(m)
	}
	for bi := range selected {
		if selected[bi] && !m.inst.Tenants[bundles[bi].tenant].Committed {
			return false
		}
	}
	return true
}

// finishKAC extracts the decision from the final slave solution.
func (m *model) finishKAC(d *Decision, s *slaveProblem, bundles []bundle, selected map[int]bool, x []float64, ssol *lp.Solution) (*Decision, error) {
	z := make([]float64, len(m.items))
	psi := 0.0
	for idx, it := range m.items {
		if x[idx] >= 0.5 {
			psi += it.xCoef
		}
		z[idx] = ssol.X[s.zVar[idx]]
		psi += it.yCoef * ssol.X[s.yVar[idx]]
	}
	m.fill(d, x, z)
	d.Obj = psi
	if s.dR >= 0 {
		d.DeficitRadio = ssol.X[s.dR]
		d.DeficitTransport = ssol.X[s.dT]
		d.DeficitCompute = ssol.X[s.dC]
	}
	return d, nil
}
