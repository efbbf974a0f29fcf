// Package admission turns the batch AC-RR orchestrator into an online,
// load-generator-scale serving layer: tenants submit slice requests
// continuously and the engine decides admit/reject in micro-batched rounds,
// at whatever concurrency the hardware allows, without ever changing what
// the paper's solver would have decided.
//
// The pipeline is
//
//	Submit → bounded queue → micro-batcher → domain shard (serial lane) → warm session
//
// with four load-bearing properties:
//
//  1. Backpressure, not collapse. The intake queue is bounded
//     (Config.QueueDepth): when the solver cannot keep up, excess requests
//     are shed synchronously with ErrOverloaded instead of growing an
//     unbounded backlog. Shedding is an explicit, counted outcome — the
//     metrics snapshot is how an operator sees it.
//
//  2. Micro-batching. Concurrent requests to one domain coalesce into a
//     single admission round — one AC-RR instance solve — flushed when the
//     batch reaches Config.MaxBatch, when Config.FlushEvery elapses, or
//     when the caller forces a round (Flush / DecideRound). Batching is
//     what makes the LP affordable per request: a round costs one solve
//     regardless of how many requests ride in it.
//
//  3. Warm sharded solving. Each operator domain is pinned to exactly one
//     shard (round-robin in registration order: deterministic, balanced) and
//     its rounds execute serially there, in the order their batches were
//     cut; shards scale throughput across domains. A shard is a lane, not a
//     goroutine: a DecideRound caller that finds it idle runs the round
//     itself (no hand-off, no wake-up); rounds cut while it is held, and
//     every round Submit, Flush or the ticker cuts (a submitter never pays
//     for a solve), go in FIFO order to the lane's worker, alive only while
//     it has rounds. Either way a round is one execRound making one solve:
//     on the domain's LocalSolver (path sets, live network, its own
//     core.BendersSession) — the one solver a domain has in the process —
//     or on a remote executor handed the same inputs (internal/cluster),
//     which hands a round it has no worker for back with ErrNoWorker, to be
//     solved on that LocalSolver. Rounds that only drift forecasts rebind
//     the slave LP (sameSolverShape); rounds that change the tenant set
//     cold-rebuild, which is always correct. Each session owns its lp.Basis — LU factors,
//     scratch vectors, solution buffers — so steady-state rounds run
//     allocation-free in the LP: solver memory is paid once per domain.
//
//  4. Determinism. A round's instance is built in canonical order —
//     committed slices in admission order, then the batch sorted by request
//     name — so the decision for a given round set is independent of
//     submission interleaving, shard count, and flush timing. No operation
//     touches two domains, so a domain's trace does not depend on any
//     other's. Combined with the solver's lexicographic tie-break
//     (core.tieBreakBase) the engine's decisions are bit-identical to a
//     serial single-shard replay of the same rounds, which is what the
//     equality tests pin.
//
// A cheap capacity-headroom prefilter fast-rejects requests that are
// structurally infeasible — no CU reachable from every BS within the delay
// bound, or (under hard capacity constraints) a demand no topology resource
// could ever carry — before any LP is touched. The prefilter only rejects
// what the solver itself would reject, so it never changes outcomes, only
// the price of reaching them.
package admission
