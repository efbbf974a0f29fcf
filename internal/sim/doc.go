// Package sim is the discrete-epoch simulator tying the AC-RR optimizer to
// the rest of the system: per-epoch slice arrivals, Holt-Winters
// forecasting over monitored peak loads, admission/reservation decisions,
// realized traffic, and revenue/SLA accounting (§2.2.2, §4.3 of the paper).
//
// The run is a pipeline of four stages per epoch, mirroring the paper's
// control flow exactly:
//
//  1. assemble — requests that arrived during the previous epoch (plus
//     re-offered pending ones) join the committed slices in an AC-RR
//     instance, in the online stack's canonical order: committed slices
//     in admission order, then the requests sorted by name. The optimum
//     is unique per instance but its float arithmetic follows the tenant
//     order, so this order is what lets the stack equal sim.Run bit for
//     bit, the spec internal/reopt holds it to;
//  2. decide — the configured solver (Benders / KAC / direct, with or
//     without overbooking) decides admission, placement and reservations.
//     The Benders solver is a cross-epoch session by default: still-valid
//     cuts and the slave simplex basis carry over whenever consecutive
//     instances differ only in forecasts (see core.BendersSession), with a
//     verified cold rebuild on arrivals/departures. Config.ColdSolver
//     forces a from-scratch solve every epoch; decisions are identical
//     either way — only wall-clock changes;
//  3. measure — κ monitoring samples of actual traffic are drawn per
//     (slice, BS), fanned out per tenant over internal/parallel (each
//     tenant owns its seeded generators, so results are bit-identical at
//     any worker count); the per-epoch peak feeds each slice's forecaster
//     (the max-aggregation of §2.2.2), and realized revenue = rewards −
//     penalty·(dropped SLA fraction) is booked through the shared
//     internal/yield assessment (Result.Yield carries the full account,
//     the same Summary shape the online closed loop publishes);
//  4. lifecycle — slice lifetimes tick down and expired slices release
//     resources.
//
// New slices have no monitored history, so they are admitted — if at all —
// at their full SLA reservation (λ̂ = Λ, σ̂ = 1); overbooking gains appear
// only after the forecaster has seen enough epochs to trust a lower peak,
// which reproduces the paper's observation that overbooking runs need
// longer to reach steady state (§4.3.2).
package sim
