// Package reopt closes the paper's control loop online: monitoring →
// forecasting → overbooking-aware reoptimization (§2.2.2), the cycle that
// previously existed only inside the offline simulator.
//
// A Controller binds one admission domain to the monitoring store. Each
// Step(t) performs, in a fixed canonical order:
//
//  1. settle — the monitoring samples of the epoch that just ended are
//     scored against the reservations that were in force (the previous
//     round's CommittedDetail snapshot, so slices that expired at the
//     epoch boundary still settle their final epoch), and the realized
//     net revenue — reward minus K·(dropped SLA fraction) — is booked
//     into the shared yield.Ledger (GET /yield and /metrics serve it);
//  2. observe — each committed slice's per-epoch peak load (the §2.2.2
//     max-aggregation) feeds its forecast.Adaptive tracker, so diurnal
//     ramps and flash crowds move λ̂ and shrink σ̂ online. Settle folds
//     the peak from the values it scores, so each series of the ended
//     epoch is read once; observe reads a slice itself only when settle
//     did not read it over the same BS count (admitted since, or the first
//     step after RestoreState);
//  3. reoptimize — the refreshed (λ̂, σ̂) views are installed with one
//     batched Engine.UpdateForecasts and a warm re-solve round
//     (Engine.DecideRound) rescales every reservation and decides the
//     queued arrivals; rounds that only drift forecasts re-enter the
//     domain's warm Benders session instead of rebuilding it, and the
//     session's basis workspace keeps the steady-state slave solves
//     allocation-free, so a tight reoptimization cadence does not grow
//     GC pressure with uptime;
//  4. advance — slice lifetimes tick and expiries are reported.
//
// An optional OnRound hook runs between (3) and (4): the control plane
// programs the data plane there, exactly where the orchestrator's epoch
// used to do it.
//
// Determinism: the controller holds no goroutines and consults no clocks —
// Step is a pure function of (store contents, engine state) — and the
// engine's rounds are bit-identical across shard counts, so a closed-loop
// run is reproducible at any concurrency and equal to sim.Run on the same
// compiled scenario. Both properties are pinned by tests in this package.
// Wall-clock epochs belong to the caller: the orchestrator's RunLoop in
// serving deployments; loadgen and the benchmark step the loop themselves.
//
// A World is the other side of the loop, written once: it plays a compiled
// scenario (sim.Config) against a Controller — each Play delivers the
// epoch's capacity events, submits its arrivals and the re-offers it held
// back from the last round, runs Step, resolves the tickets, and plays the
// epoch's per-(slice, BS) traffic into the controller's store, retiring
// expired slices' generators only after their last epoch is in. It outlives
// a crashed process: held re-offers are the World's; the last epoch's
// samples are the monitoring pipeline's, which the tests' crash rows copy
// from the dead process's store to its successor's. cmd/loadgen drives every
// domain through a World, and so does every test that holds the stack to a
// reference — sim.Run here, an uninterrupted run in
// internal/wal, the single process in internal/cluster.
package reopt
