// Package cluster is the distributed control plane: admission shard
// workers running as separate OS processes behind a deterministic
// coordinator, so decision throughput scales with machines instead of
// cores — with the engine's bit-identical-to-serial-replay determinism
// pin held across the network.
//
// # Roles
//
// The Coordinator embeds in the process that owns the admission engine
// (ovnes, loadgen). It owns membership — workers join over TCP with a
// hello, ping every second, and are declared dead on a read error or when
// no frame arrives for five seconds (a read deadline restarted before
// every frame) — and implements admission.Executor:
// each domain's round solves are dispatched to the worker that a seeded
// rendezvous placement assigns the domain to. The same member set always
// yields the same placement, and a single leave moves only the departed
// worker's domains (rendezvous minimal movement), both pinned by tests.
// The coordinator keeps no solver: a round no worker takes (none live, or
// none answering within the 15 s dispatch timeout) is declined with
// admission.ErrNoWorker, and the engine solves it on the domain's own
// LocalSolver. A fenced coordinator returns ErrFenced instead, which the
// engine never solves.
//
// A worker (cmd/ovnes-worker, or an in-process loopback worker) hosts
// the engine's own in-process solver, one admission.LocalSolver per
// domain (SolverHost): it receives each domain's full config once (an
// assign message carrying the base topology as JSON, normalized on the
// coordinator and used verbatim), then solves round after round, the
// solver re-deriving the live network from the accumulated capacity
// events each round ships.
//
// # Why cross-network determinism holds
//
// A round solve is a pure function of (base network, k-path budget,
// accumulated capacity events, canonical tenant specs, pricing knobs).
// Every one of those inputs either round-trips JSON exactly (float64s
// use shortest-form encoding) or is an int/string, and warm solver state
// is a cache that cannot move a decision (the warm==cold pins). So a
// solve on worker A, the same solve re-dispatched to worker B after A is
// SIGKILLed mid-round, and the engine's own solve of a declined round all
// return the bit-identical decision — which is what lets the coordinator
// re-dispatch in-flight rounds on worker loss without losing or reordering
// any decision, and what the refinement table's workers={0,1,2,4} rows
// (internal/reopt) and the cluster-check CI gate pin end to end. Because
// the coordinator still owns all state and the WAL (log-before-ack,
// unchanged), crash recovery is identical to single-process mode and
// never waits for workers.
//
// # Wire protocol
//
// Messages travel as length-prefixed CRC-32C-checked JSON frames
// (internal/frame, the codec the WAL uses) over one TCP connection per worker:
// hello/welcome at join, assign (domain spec) lazily before a domain's
// first round on a worker, round/reply correlated by ID, and ping as the
// worker's heartbeat; the timings are constants in message.go. A frame
// that fails its checks is a protocol error that kills the connection —
// never a panic (FuzzClusterFrameDecode).
package cluster
