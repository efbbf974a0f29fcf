// Package wal makes the control plane's decisions durable: a segmented
// append-only log of every admission round's inputs plus periodic
// snapshots of the recoverable engine state, so a crashed process rebuilds
// the exact pre-crash decision state by loading the latest snapshot and
// replaying the log suffix through the real admission/reopt code paths.
//
// # What is logged, and why it suffices
//
// The closed loop is deterministic given its inputs: rounds assemble their
// instance in canonical order (committed slices in admission order, then
// the batch sorted by name) and the solver is tie-broken, so the same
// inputs always produce the same decision. The log therefore captures only
// inputs, per step and in per-domain mutation order:
//
//   - settle: the realized-yield entries booked for an ended epoch
//   - observe: the alive slice set and observed demand peaks fed to the
//     forecast trackers
//   - forecasts: the λ̂/σ̂ views pushed into the engine
//   - round: the decided batch under its round sequence number
//   - advance: one epoch tick of the lifecycle clock
//
// settle and observe are logged even though they are derived data, because
// they derive from the monitor store, which is NOT durable: replay must
// not need it. Warm solver state (Benders session, LP bases) is never
// persisted — it is a cache that re-warms on the first post-recovery
// round, and the warm==cold decision-equality pins guarantee re-warming
// cannot move a decision.
//
// # Record format and group commit
//
// Each record is one frame (internal/frame): a little-endian uint32
// payload length, a uint32 CRC-32C of the payload, then the JSON payload;
// this package adds only the JSON and the mapping to ErrTorn. Go's
// JSON float64 round-trip is exact for finite values, so encoding a
// forecast view or yield entry cannot perturb a bit. Frames append to
// segment files named wal-<firstLSN>.seg; the log-wide record index (LSN)
// is implicit: a segment's base LSN from its name plus the record's index
// within it.
//
// Appends are buffered. The only fsync on the hot path is the round
// boundary (admission.RoundLog.SyncRound), called once per round before
// any outcome is acked: log-before-ack with group commit, so forecast,
// advance, settle and observe records ride their step's round fsync for
// free.
//
// # Snapshots, compaction, torn tails
//
// Every SnapshotEvery-th step the controller hands its state to the WAL
// layer, which syncs the log, writes engine + controller + ledger state to
// snap-<LSN>.json (tmp + rename, so a snapshot is atomically present or
// absent), rotates the segment, keeps the newest two snapshots, and
// deletes segments wholly covered by the older kept one.
//
// On open, a torn frame in the final segment — the expected residue of a
// crash mid-write — is truncated away; a torn frame in a sealed segment is
// corruption and fails the open.
//
// # One replay path
//
// Replayer applies records to a Target under the hold-back rule: a step's
// settle/observe/forecasts prefix pends until the step's round arrives
// behind it. Per-domain LSN order is the specification; the order between
// two domains' records is not observable, since no record reads or writes
// two domains. So Ingest takes a batch, routes every record to its domain's
// lane and runs the lanes side by side on up to GOMAXPROCS goroutines
// (internal/parallel; inline with one processor or one lane). A record of a
// kind this package does not write fails replay ("unknown record kind").
// A replay error is fail-stop: the lowest-LSN error is returned, other
// lanes may already be past it, and the target must be thrown away.
// Finalize, against the writable Store, physically truncates a prefix whose
// round never made it durable (it was never acked to anyone; the
// interrupted step re-runs live) and completes a trailing round without its
// advance, re-logged (the round's outcomes were acked). Recover is
// Bootstrap + Finalize over what Open found; a standby feeds the same
// Replayer from a Tailer, a poll's records at a time, and finalizes at
// promotion. An advance over a pending prefix, and a committed record after
// another domain's uncommitted prefix, are refused: no correct writer
// produces either.
package wal
