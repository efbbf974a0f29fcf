// Package yield implements the paper's slice economics as a shared,
// online-capable accounting layer: the realized net revenue of an
// overbooked slice portfolio — per-slice reward minus the SLA penalty
// charged on the dropped traffic fraction — against the expected revenue
// (−Ψ) the AC-RR solver priced when it made the reservation.
//
// Net yield under overbooking is the paper's headline quantity (§4.3): the
// orchestrator reserves less than the SLA bitrate Λ when the forecast peak
// λ̂ is lower, pockets the capacity it freed by admitting more slices, and
// pays K·f whenever a fraction f of in-SLA demand exceeds what it reserved.
// Before this package, that arithmetic lived privately inside the offline
// simulator; it is now shared between
//
//   - internal/sim, whose per-epoch measurement stage books every
//     monitored sample through an Assessment (bit-identical to the old
//     inline accounting), and
//   - internal/reopt, whose closed-loop controller books the same
//     Assessments online from monitor.Store samples into a live Ledger
//     the control plane publishes (GET /yield, GET /metrics).
//
// An Assessment scores one (slice, epoch) against the reservation in
// force; a Ledger accumulates Entries and solver-side expectations into a
// concurrent-safe running account. The Ledger keeps its per-slice and
// per-source lines in name order as they are booked, and every read folds
// them in that order, so reads are deterministic (tests compare ledgers
// across worker counts) and none sorts: Totals, the account without its
// per-slice lines, allocates nothing; Snapshot and ExportState copy the
// lines.
package yield
