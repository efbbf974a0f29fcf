// Package lp implements a two-phase primal simplex solver for linear
// programs — with dual-value extraction and Farkas infeasibility
// certificates — plus a warm-start revised simplex over a sparse
// LU-factorized basis for re-solve sequences.
//
// It is the substrate that replaces the commercial CPLEX solver used by the
// paper "Overbooking Network Slices through Yield-driven End-to-End
// Orchestration" (CoNEXT '18). The AC-RR engine needs three things from an
// LP solver, all provided here:
//
//   - optimal primal solutions (resource reservations z, y),
//   - dual values at optimality (Benders optimality cuts), and
//   - dual extreme rays when the primal is infeasible (Benders
//     feasibility cuts; "PDS(x) is unbounded" in the paper's Algorithm 1).
//
// Problems are stated in the natural form
//
//	minimize    c·x
//	subject to  aᵢ·x {≤,=,≥} bᵢ    i = 1..m
//	            lᵢ ≤ xᵢ ≤ uᵢ       (default 0 ≤ xᵢ, set via SetBounds)
//
// Variable bounds are handled natively by a bounded-variable simplex —
// no constraint rows are added, so rewriting them between solves (the
// branch-and-bound fixing pattern) keeps every warm-start cache valid.
// Internally the solver converts to equality standard form with slack and
// artificial variables. One-shot solves (Solve) run a two-phase tableau
// simplex — dense, flat strided storage, pivots updating over the pivot
// row's non-zero columns only — with Dantzig pricing and a Bland's-rule
// fallback that guarantees termination. Re-solve sequences
// (SolveFrom with a Basis) run a revised simplex over a sparse LU
// factorization of the basis matrix maintained by Forrest–Tomlin row
// updates (bounded fill, stability-tested, refactorizing in place when
// either bound trips) with Devex pricing; all scratch lives in a
// Basis-owned workspace, so the steady-state warm solve — the access
// pattern of the Benders slave, the admission shards and the
// branch-and-bound node loop — allocates nothing. Presolve/Postsolve
// shrink a master problem deterministically before solving, a pass's bound
// flips share one batched factor traversal, and a workspace's FactorStats
// count factor updates, forced refactorizations and cold fallbacks by
// cause (only the package's tests read them today). See
// DESIGN.md §7 for the factorization design and determinism argument, §11
// for the metro-scale tier (FT updates, bounded variables, presolve,
// batched ftran) and §12 for
// the cold path's sparse pivot kernel and workspace reuse.
package lp
