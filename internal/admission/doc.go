// Package admission turns the batch AC-RR orchestrator into an online,
// load-generator-scale serving layer: tenants submit slice requests
// continuously and the engine decides admit/reject in micro-batched rounds,
// at whatever concurrency the hardware allows, without ever changing what
// the paper's solver would have decided.
//
// The pipeline is
//
//	Submit → bounded queue → micro-batcher → domain shard → warm session
//
// with four load-bearing properties:
//
//  1. Backpressure, not collapse. The intake queue is bounded
//     (Config.QueueDepth) and per-tenant fair (Config.TenantCap): when the
//     solver cannot keep up, excess requests are shed synchronously with
//     ErrOverloaded / ErrTenantCap instead of growing an unbounded backlog.
//     Shedding is an explicit, counted outcome — the metrics snapshot is
//     how an operator sees it.
//
//  2. Micro-batching. Concurrent requests to one domain coalesce into a
//     single admission round — one AC-RR instance solve — flushed when the
//     batch reaches Config.MaxBatch, when Config.FlushEvery elapses, or
//     when the caller forces a round (Flush / DecideRound). Batching is
//     what makes the LP affordable per request: a round costs one solve
//     regardless of how many requests ride in it.
//
//  3. Warm sharded solving. Each operator domain is pinned to exactly one
//     shard (round-robin in registration order, so the placement is
//     deterministic and balanced), and every round of a domain executes serially on
//     that shard through one Executor call: the domain's LocalSolver (path
//     sets, live network, its own core.BendersSession), or a remote
//     executor handed the same inputs (internal/cluster, whose workers
//     host LocalSolvers too). Rounds that
//     only drift forecasts therefore rebind the slave LP instead of
//     rebuilding it (PR 1/2's sameSolverShape machinery); rounds that
//     change the tenant set cold-rebuild, which is always correct. Shards
//     scale throughput across domains while keeping each domain's decision
//     stream strictly sequential. Because each session owns its lp.Basis —
//     and with it the sparse LU factors, scratch vectors and solution
//     buffers of the solver workspace — a shard's steady-state rounds run
//     allocation-free in the LP: solver memory is paid once per domain,
//     not once per round.
//
//  4. Determinism. A round's instance is built in canonical order —
//     committed slices in admission order, then the batch sorted by request
//     name — so the decision for a given round set is independent of
//     submission interleaving, shard count, and flush timing. Combined with
//     the solver's lexicographic tie-break (core.tieBreakBase) the engine's
//     decisions are bit-identical to a serial single-shard replay of the
//     same rounds, which is what the equality tests pin.
//
// A cheap capacity-headroom prefilter fast-rejects requests that are
// structurally infeasible — no CU reachable from every BS within the delay
// bound, or (under hard capacity constraints) a demand no topology resource
// could ever carry — before any LP is touched. The prefilter only rejects
// what the solver itself would reject, so it never changes outcomes, only
// the price of reaching them.
package admission
