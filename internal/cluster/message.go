package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/topology"
)

// Message types, one per protocol step.
const (
	// MsgHello is the worker's first frame: its identity.
	MsgHello = "hello"
	// MsgWelcome acknowledges a hello (coordinator → worker).
	MsgWelcome = "welcome"
	// MsgPing is the worker's periodic heartbeat; any frame refreshes the
	// coordinator's liveness clock, ping exists for quiet workers.
	MsgPing = "ping"
	// MsgAssign installs a domain's full config on a worker; sent lazily
	// before the domain's first round on that worker (coordinator → worker).
	MsgAssign = "assign"
	// MsgRound dispatches one round solve (coordinator → worker).
	MsgRound = "round"
	// MsgReply answers a round by ID with a decision or an error string
	// (worker → coordinator).
	MsgReply = "reply"
	// MsgFenced rejects a dispatch from a stale leader: the worker has
	// seen a newer fencing epoch than the one the frame carries (worker →
	// coordinator). It echoes the round's ID and the worker's newest known
	// epoch; the receiving coordinator must stop dispatching.
	MsgFenced = "fenced"
)

// Message is one protocol frame. Type selects which fields are
// meaningful; the rest stay zero and are omitted from the payload —
// the same single-envelope idiom as wal.Record.
type Message struct {
	Type string `json:"type"`

	// hello: the worker's identity.
	Worker string `json:"worker,omitempty"`

	// Fencing epoch of the sending leader's lease, stamped on every
	// welcome/assign/round; on a fenced reply it carries the worker's
	// newest known epoch instead. Zero means "no lease configured"
	// (single-leader deployments), which workers accept until the first
	// nonzero epoch raises their gate.
	Epoch uint64 `json:"epoch,omitempty"`

	// round/reply correlation; unique per connection.
	ID uint64 `json:"id,omitempty"`

	// assign: the domain's full solver config.
	Spec *DomainSpec `json:"spec,omitempty"`

	// round: the solve inputs — canonical tenant order, accumulated
	// capacity events (the worker re-derives the live network).
	Domain  string            `json:"domain,omitempty"`
	Seq     uint64            `json:"seq,omitempty"`
	Events  []topology.Event  `json:"events,omitempty"`
	Tenants []core.TenantSpec `json:"tenants,omitempty"`

	// reply: exactly one of Decision or Err.
	Decision *core.Decision `json:"decision,omitempty"`
	Err      string         `json:"err,omitempty"`
}

// DomainSpec is the transportable form of an admission.DomainConfig: the
// base topology as JSON plus the solver knobs, already normalized (the
// defaults applied once, coordinator-side), so both ends assemble
// bit-identical instances.
type DomainSpec struct {
	Name string `json:"name"`
	// Net is the base network in topology JSON form (WriteJSON/ReadJSON);
	// float64 capacities round-trip exactly.
	Net         json.RawMessage     `json:"net"`
	KPaths      int                 `json:"k_paths"`
	Algorithm   string              `json:"algorithm"`
	BigM        float64             `json:"big_m"`
	RiskHorizon int                 `json:"risk_horizon"`
	Benders     core.BendersOptions `json:"benders"`
}

// NewDomainSpec captures an engine domain config for the wire. It
// normalizes exactly as admission.AddDomain does, so the spec the worker
// solves from equals the config the engine solves from in-process.
func NewDomainSpec(name string, dc admission.DomainConfig) (DomainSpec, error) {
	if name == "" {
		name = admission.DefaultDomain
	}
	dc, err := dc.Normalized()
	if err != nil {
		return DomainSpec{}, fmt.Errorf("cluster: domain %q: %w", name, err)
	}
	var buf bytes.Buffer
	if err := dc.Net.WriteJSON(&buf); err != nil {
		return DomainSpec{}, fmt.Errorf("cluster: domain %q: %w", name, err)
	}
	return DomainSpec{
		Name:        name,
		Net:         json.RawMessage(buf.Bytes()),
		KPaths:      dc.KPaths,
		Algorithm:   dc.Algorithm,
		BigM:        dc.BigM,
		RiskHorizon: dc.RiskHorizon,
		Benders:     dc.Benders,
	}, nil
}

// network decodes the spec's base topology, as a worker does at assign.
func (spec DomainSpec) network() (*topology.Network, error) {
	net, err := topology.ReadJSON(bytes.NewReader(spec.Net))
	if err != nil {
		return nil, fmt.Errorf("cluster: domain %q topology: %w", spec.Name, err)
	}
	return net, nil
}
