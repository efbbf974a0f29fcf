// The solver here is a best-first branch-and-bound over the repo's own LP
// solver. Node relaxations are not solved cold: binaries live on native
// [0, 1] variable boxes and a node's fixings are lp.SetBounds writes, so
// moving between nodes costs a few bound rewrites followed by a warm
// lp.SolveFrom — the dual simplex re-enters from the previous node's
// optimal basis, and because SetBounds (unlike row edits) never advances
// the problem's structural revision, one cached sparse matrix and one
// factorization stream serve the entire tree. The root relaxation first
// runs through lp.Presolve: fixed binaries cascade, singleton cut rows
// fold into bounds, and redundant master rows drop before the search
// starts; the incumbent is mapped back through Postsolve at the end. On
// the AC-RR instances this removes the dominant cost of the exact solver
// (the Fig. 5/Fig. 6 sweeps bottom out here).

package milp

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"repro/internal/lp"
)

// Status reports the outcome of a Solve call.
type Status int

// Solver outcomes.
const (
	Optimal    Status = iota // proven optimal integer solution
	Infeasible               // no integer-feasible point exists
	NodeLimit                // search truncated; Incumbent may still be set
	Unbounded                // LP relaxation unbounded below
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case NodeLimit:
		return "node-limit"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// intTol is the integrality tolerance: a binary within it of 0 or 1 counts
// as integral.
const intTol = 1e-6

// Options tune the branch-and-bound search.
type Options struct {
	// MaxNodes caps the number of explored nodes; 0 means a large default.
	MaxNodes int
}

func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = 200000
	}
	return o
}

// Solution is the result of a MILP solve.
type Solution struct {
	Status Status
	Obj    float64   // objective of the incumbent when Status ∈ {Optimal, NodeLimit with incumbent}
	X      []float64 // incumbent variable values (integers are exact 0/1)
	Nodes  int       // explored node count
	Pivots int       // aggregate simplex pivots across all node LPs
}

// ErrNoIncumbent is returned when the node limit is hit before any integer
// feasible solution was found.
var ErrNoIncumbent = errors.New("milp: node limit reached with no incumbent")

// node is a branch-and-bound search node: the one binary fixing that made it
// (none at the root) on top of its parent's, and the LP bound inherited from
// the parent. The node's fixings are the chain up to the root.
type node struct {
	parent *node
	v      int     // reduced var index fixed here; -1 at the root
	val    float64 // 0 or 1
	bound  float64 // LP relaxation value of the parent (lower bound)
}

// fix writes the node's fixings into p, root first. SetBounds calls on
// distinct variables commute, and a branch never fixes a variable twice (a
// fixed binary is integral in every descendant's relaxation); should one
// ever be, the node's own fixing is written last and wins.
func (nd *node) fix(p *lp.Problem) {
	if nd.v < 0 {
		return
	}
	nd.parent.fix(p)
	p.SetBounds(nd.v, nd.val, nd.val)
}

type nodeQueue []*node

func (q nodeQueue) Len() int            { return len(q) }
func (q nodeQueue) Less(i, j int) bool  { return q[i].bound < q[j].bound }
func (q nodeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x interface{}) { *q = append(*q, x.(*node)) }
func (q *nodeQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil // the queue's array outlives the search
	*q = old[:n-1]
	return it
}

// Solver runs branch-and-bound solves one after another out of one LP
// workspace. Nothing but allocated memory carries from one Solve to the next
// — the basis is reset before every search, so each solve takes exactly the
// pivot path a fresh Solver would — but the memory is the point: a Benders
// master is re-solved every iteration, one cut row larger each time, and its
// root relaxation's dense tableau is megabytes on a metro pod. Whoever runs
// a sequence of solves holds one Solver for all of them (a Benders loop
// borrows one from core's pool for its masters). The zero value is ready to
// use; a Solver is not safe for concurrent use.
type Solver struct {
	// basis is the shared warm-start state of one search: every node's
	// relaxation re-enters from the previous node's final basis (a pure
	// bound change, so the dual simplex path applies; anything it cannot
	// certify falls back cold and recaptures — lp.SolveFrom's safety
	// contract).
	basis lp.Basis
	// root and ps hold every solve's bounded copy of the caller's problem and
	// its presolve outcome, reduced problem included: overwritten per solve.
	root lp.Problem
	ps   lp.Presolved
	// The per-search bookkeeping, overwritten per solve: the binaries in the
	// reduced space with their base boxes, boxOf mapping a reduced variable
	// to its index in redBin (-1 for a continuous one), and the node queue.
	redBin         []int
	baseLo, baseUp []float64
	boxOf          []int
	queue          nodeQueue
}

// Solve is a one-shot solve on a fresh Solver.
func Solve(p *lp.Problem, binaries []int, opts Options) (*Solution, error) {
	return new(Solver).Solve(p, binaries, opts)
}

// Solve minimizes the problem p with the listed variables restricted to
// {0, 1}. Rows keeping those variables in [0, 1] are NOT required: the
// binaries get native [0, 1] boxes (which double as the root-relaxation
// tightening), presolve shrinks the root, and every node's fixings are
// SetBounds rewrites on the shared reduced problem — no rows are ever
// added, so the whole tree reuses one structural cache and one warm basis.
//
// p is not mutated.
func (s *Solver) Solve(p *lp.Problem, binaries []int, opts Options) (*Solution, error) {
	opts = opts.withDefaults()
	s.basis.Reset()
	sol := &Solution{Status: Infeasible, Obj: math.Inf(1)}

	root, ps := &s.root, &s.ps
	p.CloneInto(root)
	for _, v := range binaries {
		root.SetBounds(v, 0, 1)
	}

	ps.Reduce(root)
	if ps.Decided {
		switch ps.Status {
		case lp.Infeasible:
			return sol, nil
		case lp.Optimal:
			// Everything fixed at the root. The fixings are integer feasible
			// only if every binary landed on an integer.
			triv := ps.Postsolve(nil)
			for _, v := range binaries {
				if math.Abs(triv.X[v]-math.Round(triv.X[v])) > intTol {
					return sol, nil
				}
				triv.X[v] = math.Round(triv.X[v])
			}
			sol.Status = Optimal
			sol.Obj = triv.Obj
			sol.X = triv.X
			return sol, nil
		}
	}
	work := ps.Reduced

	// Binaries in the reduced space. Presolve may have fixed some: a binary
	// fixed off an integer value makes the MILP infeasible outright. The
	// surviving boxes may also be tighter than [0, 1] (singleton cut rows
	// fold into bounds); branching respects them — a child fixing outside
	// its variable's base box is pruned instead of pushed.
	redBin, baseLo, baseUp := s.redBin[:0], s.baseLo[:0], s.baseUp[:0]
	for _, v := range binaries {
		rc, fv := ps.Col(v)
		if rc < 0 {
			if math.Abs(fv-math.Round(fv)) > intTol {
				return sol, nil
			}
			continue
		}
		lo, up := work.Bounds(rc)
		redBin = append(redBin, rc)
		baseLo = append(baseLo, lo)
		baseUp = append(baseUp, up)
	}
	s.redBin, s.baseLo, s.baseUp = redBin, baseLo, baseUp
	boxOf := lp.Resized(s.boxOf, work.NumVars())
	s.boxOf = boxOf
	for v := range boxOf {
		boxOf[v] = -1
	}
	for i, v := range redBin {
		boxOf[v] = i
	}

	// applyNode rewrites the binary boxes for a node's fixings.
	applyNode := func(nd *node) {
		for i, v := range redBin {
			work.SetBounds(v, baseLo[i], baseUp[i])
		}
		nd.fix(work)
	}

	clear(s.queue) // the nodes a search cut short left behind
	s.queue = s.queue[:0]
	q := &s.queue
	heap.Push(q, &node{v: -1, bound: math.Inf(-1)})

	var incumbent []float64
	incumbentObj := math.Inf(1) // reduced-space objective
	haveIncumbent := false

	finish := func(status Status) (*Solution, error) {
		sol.Status = status
		if !haveIncumbent {
			if status == NodeLimit {
				return sol, ErrNoIncumbent
			}
			return sol, nil
		}
		full := ps.Postsolve(&lp.Solution{Status: lp.Optimal, Obj: incumbentObj, X: incumbent})
		for _, v := range binaries {
			full.X[v] = math.Round(full.X[v])
		}
		sol.Obj = full.Obj
		sol.X = full.X
		return sol, nil
	}

	for q.Len() > 0 {
		if sol.Nodes >= opts.MaxNodes {
			return finish(NodeLimit)
		}
		nd := heap.Pop(q).(*node)
		// Bound pruning against the incumbent.
		if haveIncumbent && nd.bound >= incumbentObj-1e-9 {
			continue
		}
		sol.Nodes++

		applyNode(nd)
		res, err := work.SolveFrom(&s.basis)
		if err != nil {
			return sol, err
		}
		sol.Pivots += res.Pivots
		switch res.Status {
		case lp.Infeasible:
			continue
		case lp.Unbounded:
			// Binary fixings cannot unbound a problem that is bounded over
			// the binary hypercube; an unbounded node means the continuous
			// part itself is unbounded.
			sol.Status = Unbounded
			return sol, nil
		case lp.IterLimit:
			return sol, lp.ErrIterLimit
		}
		if haveIncumbent && res.Obj >= incumbentObj-1e-9 {
			continue
		}

		branchVar, frac := -1, 0.0
		for _, v := range redBin {
			f := res.X[v] - math.Floor(res.X[v])
			if f > 0.5 {
				f = 1 - f
			}
			if f > intTol && f > frac {
				branchVar, frac = v, f
			}
		}
		if branchVar < 0 {
			// Integer feasible: round the binaries exactly and accept.
			// res.X is a view into basis-owned storage (overwritten by the
			// next node's solve), so the incumbent is copied out here.
			if res.Obj < incumbentObj-1e-9 {
				incumbentObj = res.Obj
				incumbent = append([]float64(nil), res.X...)
				for _, v := range redBin {
					incumbent[v] = math.Round(incumbent[v])
				}
				haveIncumbent = true
			}
			continue
		}

		bi := boxOf[branchVar]
		for _, val := range [2]float64{rounded(res.X[branchVar]), 1 - rounded(res.X[branchVar])} {
			// Respect the presolve-tightened base box: a fixing outside it
			// can never be feasible, so the child is pruned at birth.
			if val < baseLo[bi]-intTol || val > baseUp[bi]+intTol {
				continue
			}
			heap.Push(q, &node{parent: nd, v: branchVar, val: val, bound: res.Obj})
		}
	}

	if haveIncumbent {
		return finish(Optimal)
	}
	sol.Status = Infeasible
	return sol, nil
}

// rounded returns the nearer of {0,1} so the more promising child (matching
// the LP relaxation) is explored first under equal bounds.
func rounded(v float64) float64 {
	if v >= 0.5 {
		return 1
	}
	return 0
}
