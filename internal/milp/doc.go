// Package milp implements a best-first branch-and-bound solver for mixed
// integer linear programs whose integer variables are binary (0/1). It sits
// on top of the simplex solver in internal/lp and is the second half of the
// from-scratch replacement for the CPLEX framework used by the paper.
//
// The AC-RR orchestration problem (Problem 2 in the paper) and the Benders
// master problem (Problem 5) are exactly of this shape: binary admission /
// path-selection decisions x coupled with continuous reservations, so a
// binary-only branching scheme is sufficient and keeps the search simple.
//
// The root problem is presolved once (lp.Presolve, postsolved on exit),
// and node relaxations warm-start: a node's fixings are lp.SetBounds
// rewrites on the shared reduced problem — handled natively by the
// bounded-variable simplex, no constraint rows — and every node re-enters
// one shared lp.Basis via SolveFrom, a few dual-simplex pivots instead of
// cloning the problem and cold-solving it (DESIGN.md §11). Exploration
// order, branching and tie resolution are deterministic.
//
// Solve is one-shot. A caller that solves a sequence of related problems —
// the Benders loop re-solves a master one cut row larger every iteration —
// holds a Solver instead: it resets the basis before every search (no solver
// state carries over, so results and pivot paths equal one-shot solves) but
// keeps the LP workspace, above all the root relaxation's dense tableau
// (DESIGN.md §12).
package milp
