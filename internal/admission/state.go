package admission

import (
	"fmt"

	"repro/internal/topology"
)

// This file is the engine's crash-recovery surface (used by internal/wal):
// ExportDomain captures a domain's recoverable solver-side state for a
// snapshot, RestoreDomain rehydrates it, and ReplayRound re-executes a
// logged round through the same stages a live round takes, minus the log
// and the executor — which is what makes the rebuilt state bit-identical to
// the pre-crash engine rather than approximately equal. Warm solver state
// (the Benders session, LP bases) is deliberately NOT part of this surface:
// it is a cache, it re-warms on the first post-recovery round, and the
// warm==cold decision-equality pins prove re-warming cannot move a decision.

// DomainState is the durable image of one domain's recoverable state: the
// round sequence number and the committed slices in admission order with
// their live forecast views and reservations.
type DomainState struct {
	Name      string           `json:"name"`
	Rounds    uint64           `json:"rounds"`
	Committed []CommittedSlice `json:"committed,omitempty"`
	// TopoEvents is the accumulated capacity-event stream (ApplyTopology,
	// in application order); restore re-derives the live network from it.
	TopoEvents []topology.Event `json:"topo_events,omitempty"`
}

// ExportDomain captures the domain's recoverable state. Safe to call
// between rounds (the snapshot path); the batch buffer is deliberately
// excluded — queued-but-undecided requests were never acked and are the
// submitter's to retry.
func (e *Engine) ExportDomain(domainName string) (DomainState, error) {
	d, err := e.domain(domainName)
	if err != nil {
		return DomainState{}, err
	}
	d.dmu.Lock()
	defer d.dmu.Unlock()
	st := DomainState{Name: d.name, Rounds: d.rounds,
		TopoEvents: append([]topology.Event(nil), d.topoEvents...)}
	if len(d.committed) > 0 {
		st.Committed = d.committedLocked()
	}
	return st, nil
}

// RestoreDomain rehydrates a domain from an exported state. The domain
// must exist (AddDomain with the same config as the crashed engine) and
// must not have decided anything yet: restore happens once, before replay
// and before serving.
func (e *Engine) RestoreDomain(st DomainState) error {
	d, err := e.domain(st.Name)
	if err != nil {
		return err
	}
	d.dmu.Lock()
	if d.rounds != 0 || len(d.committed) != 0 || len(d.topoEvents) != 0 {
		d.dmu.Unlock()
		return fmt.Errorf("admission: domain %q already has state; restore must precede serving", d.name)
	}
	if len(st.TopoEvents) > 0 {
		if err := d.solver.SetTopology(st.TopoEvents); err != nil {
			d.dmu.Unlock()
			return fmt.Errorf("admission: restore domain %q: %w", d.name, err)
		}
		d.topoEvents = append([]topology.Event(nil), st.TopoEvents...)
	}
	for _, cs := range st.Committed {
		m := &member{
			name: cs.Name, tenant: cs.Tenant, sla: cs.SLA,
			lambdaHat: cs.LambdaHat, sigma: cs.Sigma,
			remaining: cs.Remaining, cu: cs.CU,
			reserved: append([]float64(nil), cs.Reserved...),
			pathIdx:  append([]int(nil), cs.PathIdx...),
		}
		d.committed = append(d.committed, m)
		d.byName[m.name] = m
	}
	d.rounds = st.Rounds
	d.dmu.Unlock()

	e.mu.Lock()
	for _, cs := range st.Committed {
		d.names[cs.Name] = true
	}
	e.mu.Unlock()
	return nil
}

// ReplayRound re-executes one logged round: assemble, decide on the domain's
// own solver and book, under one dmu hold — a live round's stages minus the
// log (the record is durable), the executor (recovery must not wait on
// workers) and the tickets (nobody waits). Recovery-time only: the engine
// must not have been started, so no live round races it. A logged seq other
// than the domain's round clock means log and snapshot diverged and recovery
// must stop. A solver error in the returned Round (r.Err) is a replayed
// outcome, not a replay failure — the original round failed identically.
func (e *Engine) ReplayRound(domainName string, seq uint64, reqs []Request) (*Round, error) {
	if domainName == "" {
		domainName = DefaultDomain
	}
	e.mu.Lock()
	if e.state != stateNew {
		e.mu.Unlock()
		return nil, fmt.Errorf("admission: ReplayRound on a started engine")
	}
	d := e.domains[domainName]
	e.mu.Unlock()
	if d == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDomain, domainName)
	}
	batch := make([]pending, len(reqs))
	for i, req := range reqs {
		if req.Domain == "" {
			req.Domain = DefaultDomain
		}
		batch[i] = pending{req: req}
	}
	d.dmu.Lock()
	if d.rounds != seq {
		rounds := d.rounds
		d.dmu.Unlock()
		return nil, fmt.Errorf("admission: replaying round %d but domain %q is at round %d — log and snapshot diverged", seq, domainName, rounds)
	}
	r, specs := d.assemble(batch)
	_, err := d.decide(r, specs, batch, nil)
	e.book(r, err)
	d.dmu.Unlock()

	if r.Err == nil {
		// The live path reserves names at Submit; replay bypasses intake,
		// so re-reserve what the round committed (rejected names stay free,
		// exactly the live end state).
		e.mu.Lock()
		for _, n := range r.Admitted {
			d.names[n] = true
		}
		e.mu.Unlock()
	}
	return r, nil
}
