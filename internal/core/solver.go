package core

import "fmt"

// SolveFunc solves one AC-RR instance. A stateful solver (the cross-epoch
// Benders session) carries cuts and simplex bases between calls and is not
// safe for concurrent use; the stateless ones re-solve from scratch.
type SolveFunc func(*Instance) (*Decision, error)

// NewSolver returns the solve function for a named AC-RR algorithm — the
// one place a name becomes a solver, shared by the admission engine, the
// cluster workers and the simulator. "benders" is a fresh warm
// BendersSession tuned by opts (ignored by the other algorithms). The
// "no-overbooking" baseline is the exact solver on an instance whose
// Overbook flag the caller clears.
func NewSolver(algorithm string, opts BendersOptions) (SolveFunc, error) {
	switch algorithm {
	case "benders":
		return NewBendersSession(opts).Solve, nil
	case "direct", "no-overbooking":
		return SolveDirect, nil
	case "kac":
		return func(inst *Instance) (*Decision, error) { return SolveKAC(inst) }, nil
	}
	return nil, fmt.Errorf("core: unknown algorithm %q (want benders, direct, kac or no-overbooking)", algorithm)
}
