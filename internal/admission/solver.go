package admission

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/topology"
)

// LocalSolver is the in-process Executor: one domain's path sets, its
// solve function (core.NewSolver — warm per domain for "benders") and the
// live network its rounds solve against. Every in-process solve goes
// through one: the engine's rounds when no remote Executor is set, replay
// always, rounds a remote Executor declines, and each domain of a
// cluster.SolverHost (the workers). Calls are serialized — the warm session
// is single-threaded state.
type LocalSolver struct {
	cfg   DomainConfig // normalized
	paths [][][]topology.Path
	solve core.SolveFunc

	mu sync.Mutex
	// net is cfg.Net with the first nEvents capacity events folded in.
	// Event lists only grow and every round carries the whole list, so the
	// count is a sufficient cache key. A new pointer is what tells the warm
	// solver to rebuild cold.
	net     *topology.Network
	nEvents int
}

// NewLocalSolver builds the solver for a domain config that is already
// normalized (DomainConfig.Normalized); its values are used verbatim, so a
// config that crossed the wire normalized cannot be defaulted a second
// time — BigM 0 stays hard capacity. Paths come from the base network:
// events scale capacities, never structure.
func NewLocalSolver(dc DomainConfig) (*LocalSolver, error) {
	solve, err := core.NewSolver(dc.Algorithm, dc.Benders)
	if err != nil {
		return nil, fmt.Errorf("admission: %w", err)
	}
	return &LocalSolver{cfg: dc, paths: dc.Net.Paths(dc.KPaths), solve: solve, net: dc.Net}, nil
}

// Paths returns the precomputed k-shortest path sets P_{b,c} the rounds
// solve against. Read-only.
func (s *LocalSolver) Paths() [][][]topology.Path { return s.paths }

// SetTopology derives the live network from the domain's whole accumulated
// event list and installs it for the rounds that follow — the engine's
// validation step for new events, outside any round. It always re-derives:
// a caller that validated a list and then failed to commit it cannot leave
// an entry a different list of the same length would hit.
func (s *LocalSolver) SetTopology(events []topology.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.derive(events)
}

// derive installs cfg.Net with events folded in. Caller holds s.mu.
func (s *LocalSolver) derive(events []topology.Event) error {
	net, err := topology.Apply(s.cfg.Net, events)
	if err != nil {
		return err
	}
	s.net, s.nEvents = net, len(events)
	return nil
}

// SolveRound implements Executor: assemble the round's instance against
// the live network for events (re-derived only when the list grew since
// the last call) and solve it. Domain name and sequence number are a
// remote executor's correlation keys; a local solve ignores them.
func (s *LocalSolver) SolveRound(_ string, _ uint64, events []topology.Event, tenants []core.TenantSpec) (*core.Decision, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(events) != s.nEvents {
		if err := s.derive(events); err != nil {
			return nil, fmt.Errorf("admission: capacity events: %w", err)
		}
	}
	return s.solve(&core.Instance{
		Net: s.net, Paths: s.paths, Tenants: tenants,
		Overbook: s.cfg.overbook(), BigM: s.cfg.BigM, RiskHorizon: s.cfg.RiskHorizon,
	})
}
