package cluster

import (
	"fmt"
	"sync"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/topology"
)

// SolverHost holds one admission.LocalSolver per assigned domain — the very
// type the engine solves through in-process — keyed by domain name. It is
// what a worker (cmd/ovnes-worker, or a loopback worker) solves through.
type SolverHost struct {
	mu      sync.Mutex
	domains map[string]*admission.LocalSolver
}

// NewSolverHost returns an empty host; domains arrive via Register.
func NewSolverHost() *SolverHost {
	return &SolverHost{domains: map[string]*admission.LocalSolver{}}
}

// Register installs (or reinstalls, idempotently) a domain. The spec was
// normalized coordinator-side; its values are used verbatim so the worker
// cannot re-default differently.
func (h *SolverHost) Register(spec DomainSpec) error {
	net, err := spec.network()
	if err != nil {
		return err
	}
	solver, err := admission.NewLocalSolver(admission.DomainConfig{
		Net:         net,
		KPaths:      spec.KPaths,
		Algorithm:   spec.Algorithm,
		BigM:        spec.BigM,
		RiskHorizon: spec.RiskHorizon,
		Benders:     spec.Benders,
	})
	if err != nil {
		return fmt.Errorf("cluster: domain %q: %w", spec.Name, err)
	}
	h.mu.Lock()
	h.domains[spec.Name] = solver
	h.mu.Unlock()
	return nil
}

// Solve runs one round on the domain's solver, which re-derives the live
// network from the accumulated capacity events. Safe for concurrent calls;
// one domain's solves are serialized by its solver.
func (h *SolverHost) Solve(domain string, events []topology.Event, tenants []core.TenantSpec) (*core.Decision, error) {
	h.mu.Lock()
	d := h.domains[domain]
	h.mu.Unlock()
	if d == nil {
		return nil, fmt.Errorf("cluster: domain %q not registered", domain)
	}
	return d.SolveRound(domain, 0, events, tenants)
}
