package core

import (
	"fmt"
	"math"

	"repro/internal/lp"
	"repro/internal/slice"
	"repro/internal/topology"
)

// TenantSpec is one slice request Φτ as seen by the optimizer at a decision
// epoch, with the forecaster's current view attached.
type TenantSpec struct {
	Name string
	SLA  slice.SLA

	// LambdaHat is the forecast peak demand λ̂ per radio site (Mb/s). The
	// optimizer clamps it into [0, Λ) — a forecast at or above the SLA
	// leaves no overbooking headroom.
	LambdaHat float64
	// Sigma is the forecast uncertainty σ̂ ∈ (0, 1].
	Sigma float64
	// RemainingEpochs is the L used in the risk scaling ξ = σ̂·L: for a new
	// request it is the full SLA duration, for a committed slice the time
	// to expiration (Ωτ).
	RemainingEpochs int

	// Committed marks slices accepted in earlier epochs: constraint (13)
	// forces them to stay admitted, and they remain pinned to CommittedCU
	// (migrating a running network service between clouds mid-lifetime is
	// not an orchestration action the paper's data plane supports).
	Committed   bool
	CommittedCU int
}

// Instance is a fully specified AC-RR decision problem for one epoch.
type Instance struct {
	Net     *topology.Network
	Paths   [][][]topology.Path // Paths[bs][cu] = P_{b,c}, delay-sorted
	Tenants []TenantSpec

	// Overbook selects constraint (9) λ̂x ⪯ z (true, the paper's scheme)
	// or the no-overbooking baseline xΛ ⪯ z (false).
	Overbook bool
	// EtaTransport is ηe, the transport-protocol overhead factor applied
	// to reservations on every link; the paper's evaluation uses 1.
	EtaTransport float64
	// BigM is the per-unit cost of the deficit variables δr, δb, δc in the
	// relaxed capacity constraints (14)–(16). Zero disables the
	// relaxation (then committed slices can make the problem infeasible).
	BigM float64
	// RiskHorizon caps the duration factor in ξ = σ̂·min(L, RiskHorizon);
	// zero selects DefaultRiskHorizon. See that constant for rationale.
	RiskHorizon int
	// HoldingFrac prices idle reservations (see DefaultHoldingFrac);
	// zero selects the default, negative disables holding costs.
	HoldingFrac float64
}

// item is one decision slot (τ, b, c, p): the unit both x, z and y are
// indexed by (the paper's S-dimensional vectorization).
type item struct {
	tenant, bs, cu, path int     // path indexes Paths[bs][cu]
	lambda               float64 // Λτ,p: per-site SLA bitrate
	lambdaHat            float64 // λ̂τ,p clamped into [0, Λ]
	xCoef, yCoef         float64 // linearized objective coefficients
	zCoef                float64 // holding cost per reserved Mb/s (regularizer)
	rewardShare          float64 // Rτ/B, for revenue accounting
}

// model is the enumerated optimization structure shared by every solver.
type model struct {
	inst  *Instance
	items []item
	// byTenantCU[t][c] lists item indices of tenant t toward CU c.
	byTenantCU [][][]int
	// byTenantBS[t][b] lists item indices of tenant t at BS b (any CU).
	byTenantBS [][][]int
	// feasibleCU[t][c] reports whether tenant t can reach CU c from every
	// BS within its delay bound.
	feasibleCU [][]bool
	nBS, nCU   int
}

// minHeadroomFrac bounds the risk denominator: Λ − λ̂ is floored at 1% of Λ
// when computing the objective coefficients. A forecast at (or above) the
// SLA still forces a full reservation through constraint (9) — only the
// *coefficients* are clamped, keeping the MILP numerically well-scaled
// where the paper's formulas would divide by zero.
const minHeadroomFrac = 0.01

// DefaultRiskHorizon caps the L used in the risk scaling ξ = σ̂·L when
// Instance.RiskHorizon is zero. The paper's ξ ≤ Lτ prices the whole slice
// lifetime into a single admission decision, but reservations are
// re-optimized at every epoch — only *admission* is irrevocable — so the
// exposure of one reservation decision is a handful of epochs, not an
// unbounded lifetime. Uncapped, a long-lived slice's penalty term dwarfs
// its per-epoch reward and the optimizer never overbooks at all (and the
// oversized coefficients swamp the simplex tolerances). Two epochs — the
// exposure until the next two re-decisions — keeps the paper's qualitative
// trade-off: σ̂·L·m ≶ 1 decides how aggressively a slice is overbooked,
// with the m = 1 → 16 penalty sweep of Fig. 5 spanning aggressive to
// fully conservative.
const DefaultRiskHorizon = 2

// DefaultHoldingFrac prices reserved-but-idle capacity when
// Instance.HoldingFrac is zero: holding the full SLA reservation costs
// this fraction of the slice's reward. The paper's objective Ψ is
// indifferent to z when capacity is slack (the risk term is strictly
// decreasing in z, so an unconstrained solver pins z = Λ), yet its
// testbed plots (Fig. 8b–d) show reservations *tracking* the forecast
// with headroom released to future tenants. A small holding cost is the
// tie-break that reproduces that operational behaviour: reservations
// shrink toward λ̂ exactly when the forecast is confident enough that the
// marginal risk ξK/(Λ−λ̂) is below the holding price. It is excluded from
// the reported Ψ, which remains the paper's expected-penalty-minus-reward.
const DefaultHoldingFrac = 0.5

// tieBreakBase is the total budget (in the paper's money units) of the
// deterministic lexicographic tie-break perturbation added to the x
// coefficients. The paper's objective Ψ is indifferent between placements
// that only permute equivalent CUs, paths, or identical tenants; solvers
// then pick an arbitrary optimum, and *which* one depends on search-path
// details (cut order, branching) — exactly what must not leak into results
// when the cross-epoch session reuses cuts a fresh solve would discover in
// a different order. A strict preference for lower (tenant, CU, path)
// indices makes the optimum generically unique, so every solver — direct,
// fresh Benders, session Benders — lands on the same decision. The
// perturbation is ≤ 0.1% of one reward unit per item, far below any real
// economic trade-off, and is separated from solver tolerances by the
// tightened default Benders epsilon below.
const tieBreakBase = 1e-3

// buildModel enumerates decision items and their objective coefficients.
func buildModel(inst *Instance) (*model, error) {
	m := new(model)
	return m, m.build(inst)
}

// emptied returns lists at length n, every list empty but keeping its storage.
func emptied(lists [][]int, n int) [][]int {
	lists = lp.Resized(lists, n)
	for i := range lists {
		lists[i] = lists[i][:0]
	}
	return lists
}

// build is buildModel into m: whatever m held is overwritten and its backing
// arrays are reused, so building epoch after epoch into the same model
// (BendersSession, into the spare of its two) stops allocating.
func (m *model) build(inst *Instance) error {
	if inst.EtaTransport == 0 {
		inst.EtaTransport = 1
	}
	nBS, nCU := inst.Net.NumBS(), inst.Net.NumCU()
	if nBS == 0 || nCU == 0 {
		return fmt.Errorf("core: topology has %d BSs and %d CUs", nBS, nCU)
	}
	m.inst, m.nBS, m.nCU = inst, nBS, nCU
	m.items = m.items[:0]
	m.byTenantCU = lp.Resized(m.byTenantCU, len(inst.Tenants))
	m.byTenantBS = lp.Resized(m.byTenantBS, len(inst.Tenants))
	m.feasibleCU = lp.Resized(m.feasibleCU, len(inst.Tenants))

	for ti, tn := range inst.Tenants {
		m.byTenantCU[ti] = emptied(m.byTenantCU[ti], nCU)
		m.byTenantBS[ti] = emptied(m.byTenantBS[ti], nBS)
		m.feasibleCU[ti] = lp.Resized(m.feasibleCU[ti], nCU)

		lam := tn.SLA.RateMbps
		lhat := math.Min(math.Max(tn.LambdaHat, 0), lam)
		if !inst.Overbook {
			// The baseline replaces (9) with xΛ ⪯ z: every accepted slice
			// reserves its full SLA, and with z = Λx the risk term
			// vanishes identically (P = 0).
			lhat = lam
		}
		sigma := tn.Sigma
		if sigma <= 0 {
			sigma = 1e-4 // σ̂ must stay strictly positive (0 < ξ)
		} else if sigma > 1 {
			sigma = 1
		}
		horizon := inst.RiskHorizon
		if horizon <= 0 {
			horizon = DefaultRiskHorizon
		}
		dur := tn.RemainingEpochs
		if dur < 1 {
			dur = 1
		} else if dur > horizon {
			dur = horizon
		}
		xi := sigma * float64(dur) // ξτ,p = σ̂·min(L, horizon)

		// Reward and penalty are quoted per tenant in the paper's money
		// units; split across BSs so that a fully connected slice earns
		// exactly Rτ per epoch regardless of topology size.
		rShare := tn.SLA.Reward / float64(nBS)
		kShare := tn.SLA.Penalty / float64(nBS)

		denom := math.Max(lam-lhat, minHeadroomFrac*lam)
		xCoef := lam*xi*kShare/denom - rShare
		yCoef := -xi * kShare / denom

		hold := inst.HoldingFrac
		if hold == 0 {
			hold = DefaultHoldingFrac
		} else if hold < 0 {
			hold = 0
		}
		zCoef := hold * rShare / lam

		for b := 0; b < nBS; b++ {
			for c := 0; c < nCU; c++ {
				if tn.Committed && c != tn.CommittedCU {
					continue // committed slices stay pinned to their CU
				}
				for pi, p := range inst.Paths[b][c] {
					if p.Delay > tn.SLA.DelayBound {
						continue // constraint (7) applied by prefiltering
					}
					idx := len(m.items)
					m.items = append(m.items, item{
						tenant: ti, bs: b, cu: c, path: pi,
						lambda: lam, lambdaHat: lhat,
						xCoef: xCoef, yCoef: yCoef, zCoef: zCoef,
						rewardShare: rShare,
					})
					m.byTenantCU[ti][c] = append(m.byTenantCU[ti][c], idx)
					m.byTenantBS[ti][b] = append(m.byTenantBS[ti][b], idx)
				}
			}
		}
		// A CU is feasible for the tenant only if every BS has at least
		// one delay-feasible path to it (constraint (6) demands all-BS
		// connectivity through a single CU).
		for c := 0; c < nCU; c++ {
			ok := true
			for b := 0; b < nBS; b++ {
				found := false
				for _, idx := range m.byTenantBS[ti][b] {
					if m.items[idx].cu == c {
						found = true
						break
					}
				}
				if !found {
					ok = false
					break
				}
			}
			m.feasibleCU[ti][c] = ok
		}
	}

	// Lexicographic tie-break (see tieBreakBase): admitting a higher
	// (tenant, CU, path) slot costs infinitesimally more, so among
	// objective-tied optima the lowest-index one is strictly preferred.
	maxP := 1
	for i := range m.items {
		if m.items[i].path+1 > maxP {
			maxP = m.items[i].path + 1
		}
	}
	wMax := float64(len(inst.Tenants)*nCU*maxP + 1)
	for i := range m.items {
		it := &m.items[i]
		w := float64((it.tenant*nCU+it.cu)*maxP + it.path + 1)
		it.xCoef += tieBreakBase * w / wMax
	}
	return nil
}

// Decision is a solved epoch: the admission, placement and reservation
// outcome in domain terms.
type Decision struct {
	Accepted []bool
	CU       []int       // chosen CU per tenant, -1 if rejected
	PathIdx  [][]int     // [tenant][bs] index into Paths[bs][CU], -1 if none
	Z        [][]float64 // [tenant][bs] reserved bitrate (Mb/s)

	// Obj is the optimized Ψ value (estimated penalty − reward); lower is
	// better, negative means net profit.
	Obj float64
	// DeficitRadio/Transport/Compute are the δ values of the big-M
	// relaxation; nonzero values mean the operator must lease capacity.
	DeficitRadio, DeficitTransport, DeficitCompute float64

	// Iterations counts master-slave rounds (Benders/KAC); 1 for direct.
	Iterations int
	// FellBack marks a decision produced by the monolithic fallback after
	// Benders numerical distress (see BendersSession.Solve). The decision
	// itself is the same unique optimum; the flag exists for diagnostics
	// and tests.
	FellBack bool
}

// newDecision allocates an all-rejected decision shell.
func (m *model) newDecision() *Decision {
	d := &Decision{
		Accepted: make([]bool, len(m.inst.Tenants)),
		CU:       make([]int, len(m.inst.Tenants)),
		PathIdx:  make([][]int, len(m.inst.Tenants)),
		Z:        make([][]float64, len(m.inst.Tenants)),
	}
	for t := range d.CU {
		d.CU[t] = -1
		d.PathIdx[t] = make([]int, m.nBS)
		d.Z[t] = make([]float64, m.nBS)
		for b := range d.PathIdx[t] {
			d.PathIdx[t][b] = -1
		}
	}
	return d
}

// fill translates raw x/z vectors (indexed by item) into the Decision.
func (m *model) fill(d *Decision, x, z []float64) {
	for idx, it := range m.items {
		if x[idx] < 0.5 {
			continue
		}
		d.Accepted[it.tenant] = true
		d.CU[it.tenant] = it.cu
		d.PathIdx[it.tenant][it.bs] = it.path
		d.Z[it.tenant][it.bs] = z[idx]
	}
}

// Revenue returns the decision's expected per-epoch net revenue in the
// paper's monetary units: Σ accepted rewards minus the estimated penalty,
// i.e. −Ψ without the big-M deficit cost.
func (d *Decision) Revenue() float64 {
	return -d.Obj
}
