// presolve.go is the master-side reduction pass: it shrinks a Problem
// before the simplex sees it and maps the reduced solution back afterwards.
// Four reductions run to a fixpoint, all deterministic (index-ordered
// sweeps, no maps, no randomness):
//
//   - empty rows are checked against their sense and dropped (or declare
//     the problem infeasible outright);
//   - singleton rows become bound tightenings on their single variable and
//     are dropped;
//   - variables whose range collapses (lo == up, including EQ singletons)
//     are fixed and substituted into every row and the objective;
//   - rows whose activity range over the variable boxes cannot violate
//     them are dropped as redundant (and rows whose activity range cannot
//     satisfy them declare infeasibility).
//
// The pass is built for the Benders master, whose cut pool accumulates many
// rows that later tightenings make redundant, and for branch-and-bound
// roots where fixed binaries cascade. It must NOT be used on the slave:
// Postsolve recovers the primal solution exactly, but the dual of a
// singleton row folded into a bound resurfaces as a reduced cost, not a row
// dual, so recovered duals are only exact on rows presolve kept. Callers
// that feed duals into cut generation solve unreduced.
package lp

import "math"

// presolveMaxPasses caps the reduction fixpoint. Each pass is O(nnz); chains
// longer than this are pathological and the solver handles the leftovers.
const presolveMaxPasses = 8

// Presolved is the outcome of a Presolve call: either the problem was
// decided outright (Decided true, Status/trivial solution available via
// Postsolve(nil)), or Reduced holds a smaller equivalent problem whose
// solution Postsolve maps back to the original space. The zero value is
// ready for Reduce.
type Presolved struct {
	// Reduced is the shrunken problem to solve; nil when Decided.
	Reduced *Problem
	// Decided reports that presolve settled the problem without a solve:
	// Status is then Optimal (every variable fixed, all rows satisfied) or
	// Infeasible.
	Decided bool
	Status  Status

	origN, origM int
	objConst     float64
	colMap       []int     // original column -> reduced column, -1 if eliminated
	fixedVal     []float64 // value of eliminated columns
	rowMap       []int     // original row -> reduced row, -1 if dropped

	// Reduce's working storage and the reduced problem, kept between calls.
	lo, up  []float64
	terms   [][]Term // per row, duplicate variables merged
	seen    []int
	fixed   []bool
	dropped []bool
	rt      []Term
	red     Problem
}

// Col maps an original column to the reduced problem: reduced ≥ 0 is its
// index in Reduced, or reduced == -1 with fixedVal the value presolve fixed
// it at.
func (ps *Presolved) Col(j int) (reduced int, fixedVal float64) {
	return ps.colMap[j], ps.fixedVal[j]
}

// Stats reports the reduction: variables and rows removed.
func (ps *Presolved) Stats() (varsRemoved, rowsRemoved int) {
	for _, c := range ps.colMap {
		if c < 0 {
			varsRemoved++
		}
	}
	for _, r := range ps.rowMap {
		if r < 0 {
			rowsRemoved++
		}
	}
	return
}

// Presolve reduces p without mutating it. The returned Presolved owns all
// its state; p may be solved or edited independently afterwards.
func Presolve(p *Problem) *Presolved {
	ps := new(Presolved)
	ps.Reduce(p)
	return ps
}

// Reduce is Presolve into ps: the previous outcome, Reduced included, is
// overwritten and its storage reused, so one Presolved run over problem
// after problem of similar size (milp.Solver) stops allocating.
func (ps *Presolved) Reduce(p *Problem) {
	n, m := len(p.cost), len(p.rows)
	ps.Reduced, ps.Decided, ps.Status = nil, false, Optimal
	ps.origN, ps.origM, ps.objConst = n, m, 0
	ps.colMap, ps.fixedVal, ps.rowMap = grow(ps.colMap, n), grow(ps.fixedVal, n), grow(ps.rowMap, m)

	ps.lo, ps.up = grow(ps.lo, n), grow(ps.up, n)
	lo, up := ps.lo, ps.up
	for j := 0; j < n; j++ {
		lo[j], up[j] = p.Bounds(j)
	}

	// Merge duplicate terms per row once up front so every later sweep sees
	// one coefficient per (row, variable).
	ps.terms, ps.seen = Resized(ps.terms, m), grow(ps.seen, n)
	terms, seen := ps.terms, ps.seen
	for j := range seen {
		seen[j] = -1
	}
	for i := 0; i < m; i++ {
		merged := terms[i][:0]
		for _, tm := range p.rows[i].terms {
			if s := seen[tm.Var]; s >= 0 && s < len(merged) && merged[s].Var == tm.Var {
				merged[s].Coef += tm.Coef
			} else {
				seen[tm.Var] = len(merged)
				merged = append(merged, tm)
			}
		}
		for _, tm := range merged {
			seen[tm.Var] = -1
		}
		terms[i] = merged
	}

	ps.fixed, ps.dropped = grow(ps.fixed, n), grow(ps.dropped, m)
	fixed, dropped := ps.fixed, ps.dropped
	infeasible := false

	fix := func(j int, v float64) {
		fixed[j] = true
		ps.fixedVal[j] = v
	}

	for pass := 0; pass < presolveMaxPasses && !infeasible; pass++ {
		changed := false

		for i := 0; i < m && !infeasible; i++ {
			if dropped[i] {
				continue
			}
			// Effective row after substituting fixed variables.
			eff := p.rows[i].rhs
			live := 0
			var lv int
			var lc float64
			minAct, maxAct := 0.0, 0.0
			for _, tm := range terms[i] {
				if tm.Coef == 0 {
					continue
				}
				if fixed[tm.Var] {
					eff -= tm.Coef * ps.fixedVal[tm.Var]
					continue
				}
				live++
				lv, lc = tm.Var, tm.Coef
				if tm.Coef > 0 {
					minAct += tm.Coef * lo[tm.Var]
					maxAct += tm.Coef * up[tm.Var]
				} else {
					minAct += tm.Coef * up[tm.Var]
					maxAct += tm.Coef * lo[tm.Var]
				}
			}
			sense := p.rows[i].sense

			switch {
			case live == 0:
				if (sense == LE && eff < -feasTol) ||
					(sense == GE && eff > feasTol) ||
					(sense == EQ && math.Abs(eff) > feasTol) {
					infeasible = true
					break
				}
				dropped[i], changed = true, true

			case live == 1:
				// Singleton row: fold into a bound on its one variable.
				v := eff / lc
				switch {
				case sense == EQ:
					if v < lo[lv]-feasTol || v > up[lv]+feasTol {
						infeasible = true
						break
					}
					v = math.Min(math.Max(v, lo[lv]), up[lv])
					lo[lv], up[lv] = v, v
				case (sense == LE) == (lc > 0): // a·x ≤ b with a>0, or a·x ≥ b with a<0
					if v < up[lv] {
						up[lv] = v
					}
				default: // lower-bound side; lo never drops below its current ≥ 0 value
					if v > lo[lv] {
						lo[lv] = v
					}
				}
				if up[lv] < lo[lv]-feasTol || up[lv] < -feasTol {
					infeasible = true
					break
				}
				dropped[i], changed = true, true

			default:
				// Activity-range redundancy and infeasibility checks.
				switch sense {
				case LE:
					if minAct > eff+feasTol {
						infeasible = true
					} else if maxAct <= eff+feasTol {
						dropped[i], changed = true, true
					}
				case GE:
					if maxAct < eff-feasTol {
						infeasible = true
					} else if minAct >= eff-feasTol {
						dropped[i], changed = true, true
					}
				case EQ:
					if minAct > eff+feasTol || maxAct < eff-feasTol {
						infeasible = true
					} else if maxAct-minAct <= feasTol && math.Abs(minAct-eff) <= feasTol {
						dropped[i], changed = true, true
					}
				}
			}
		}
		if infeasible {
			break
		}

		// Fix collapsed ranges (from singleton tightening or the caller).
		for j := 0; j < n; j++ {
			if fixed[j] {
				continue
			}
			if up[j] < lo[j]-feasTol {
				infeasible = true
				break
			}
			if up[j]-lo[j] <= 1e-9 {
				fix(j, lo[j])
				changed = true
			}
		}

		if !changed {
			break
		}
	}

	if infeasible {
		ps.Decided = true
		ps.Status = Infeasible
		for j := range ps.colMap {
			ps.colMap[j] = -1
		}
		for i := range ps.rowMap {
			ps.rowMap[i] = -1
		}
		return
	}

	// Build the reduced problem.
	red := &ps.red
	red.cost = red.cost[:0]
	red.lo, red.up = red.lo[:0], red.up[:0]
	red.TruncateRows(0)
	nLive := 0
	for j := 0; j < n; j++ {
		if fixed[j] {
			ps.colMap[j] = -1
			ps.objConst += p.cost[j] * ps.fixedVal[j]
			continue
		}
		ps.colMap[j] = nLive
		nLive++
		red.AddVar(p.cost[j])
		if lo[j] != 0 || !math.IsInf(up[j], 1) {
			red.SetBounds(ps.colMap[j], lo[j], up[j])
		}
	}
	mLive := 0
	for i := 0; i < m; i++ {
		if dropped[i] {
			ps.rowMap[i] = -1
			continue
		}
		eff := p.rows[i].rhs
		rt := ps.rt[:0]
		for _, tm := range terms[i] {
			if tm.Coef == 0 {
				continue
			}
			if fixed[tm.Var] {
				eff -= tm.Coef * ps.fixedVal[tm.Var]
				continue
			}
			rt = append(rt, Term{Var: ps.colMap[tm.Var], Coef: tm.Coef})
		}
		ps.rt = rt
		if len(rt) == 0 {
			// All variables were fixed after the last sweep: the pass cap
			// hit before this became an "empty row"; check it here.
			sense := p.rows[i].sense
			if (sense == LE && eff < -feasTol) ||
				(sense == GE && eff > feasTol) ||
				(sense == EQ && math.Abs(eff) > feasTol) {
				ps.Decided = true
				ps.Status = Infeasible
				return
			}
			ps.rowMap[i] = -1
			continue
		}
		ps.rowMap[i] = mLive
		mLive++
		red.AddConstraint(p.rows[i].sense, eff, rt...)
	}

	if nLive == 0 {
		// Everything fixed and every surviving row verified: trivially
		// optimal at the fixed point.
		ps.Decided = true
		ps.Status = Optimal
		return
	}
	ps.Reduced = red
}

// Postsolve maps a solution of the reduced problem back to the original
// variable and row spaces. When the presolve decided the problem outright,
// red is ignored (pass nil) and the trivial solution is synthesized.
// Recovery is deterministic: X is exact (fixed variables take their fixed
// values), Obj adds back the fixed-cost constant, and dropped rows carry
// zero dual — exact for redundant and empty rows, an approximation for
// singleton rows whose folded bound is tight at the optimum (that
// multiplier lives in the reduced problem's reduced costs).
func (ps *Presolved) Postsolve(red *Solution) *Solution {
	if ps.Decided {
		sol := &Solution{Status: ps.Status}
		if ps.Status == Optimal {
			sol.Obj = ps.objConst
			sol.X = append([]float64(nil), ps.fixedVal...)
			sol.Dual = make([]float64, ps.origM)
		}
		return sol
	}
	sol := &Solution{Status: red.Status, Pivots: red.Pivots}
	switch red.Status {
	case Optimal:
		sol.Obj = red.Obj + ps.objConst
		sol.X = make([]float64, ps.origN)
		for j := 0; j < ps.origN; j++ {
			if c := ps.colMap[j]; c >= 0 {
				sol.X[j] = red.X[c]
			} else {
				sol.X[j] = ps.fixedVal[j]
			}
		}
		if red.Dual != nil {
			sol.Dual = make([]float64, ps.origM)
			for i := 0; i < ps.origM; i++ {
				if r := ps.rowMap[i]; r >= 0 {
					sol.Dual[i] = red.Dual[r]
				}
			}
		}
	case Infeasible:
		if red.Ray != nil {
			sol.Ray = make([]float64, ps.origM)
			for i := 0; i < ps.origM; i++ {
				if r := ps.rowMap[i]; r >= 0 {
					sol.Ray[i] = red.Ray[r]
				}
			}
		}
	}
	return sol
}
