// Package ctrlplane implements the paper's hierarchical control plane
// (§2.2, Fig. 2) as a set of HTTP services:
//
//   - the Slice Manager, the web app tenants submit slice requests Φτ to
//     (§2.2.1); it renders each request into a TOSCA-like network-service
//     descriptor and forwards it to the orchestrator over REST;
//   - the E2E Orchestrator (the paper's OVNES), the only stateful entity:
//     it owns slice lifecycle state, per-slice forecasters, and the AC-RR
//     engine, and pushes per-domain programming southbound;
//   - three stateless domain controllers — RAN, transport (the paper's
//     Floodlight) and cloud (the paper's Heat/Keystone front) — that
//     translate orchestrator programming into data-plane operations over an
//     interface modelled on ETSI GS NFV-IFA 005.
//
// All services speak JSON over net/http and are exercised end-to-end over
// loopback in the package tests. Every client-side exchange goes through
// one helper (call) that reads the answer to EOF, which is what lets
// net/http keep the connection; every server is built by NewServer, which
// sets the read and idle timeouts.
//
// The southbound costs two round trips per epoch: each controller has one
// write route taking an EpochDoc — the round's programming in "set",
// slices that shrink first, or the expired slices in "remove" — and the
// orchestrator posts the three documents concurrently. GET /slices is read
// from the admission engine: its committed slices in admission order, then
// what terminated in the last epoch (rejected, then expired), then the
// undecided requests in registration order. Only the last
// two are the orchestrator's own and neither is durable, so a restarted or
// promoted orchestrator lists what a serving one lists from its first epoch.
//
// An orchestrator core (engine, closed-loop controller, ledger) is built
// with no log and no executor, and starts serving through one takeover:
// install the WAL store taken where the tail stopped, let a wal.Replayer
// finish over it, install the executor, start the engine. A Standby, which
// has been feeding its replayer from the leader's log all along, runs it at
// promotion; a starting leader is a Standby of its own log, promoted at
// once, so the log is read once, by the tail, either way.
package ctrlplane
