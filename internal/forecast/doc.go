// Package forecast implements the traffic forecasting sub-block of the E2E
// orchestrator (§2.2.2): the multiplicative Holt-Winters triple exponential
// smoothing the paper selects for its ability to track the daily
// seasonality of mobile traffic, alongside the single and double
// exponential smoothing baselines it dismisses (footnote 6), used here for
// ablation.
//
// Every forecaster consumes one observation per decision epoch (the
// per-epoch peak load λ(t) produced by the monitoring pipeline) and emits
// point forecasts λ̂ for the next epochs together with a normalized
// uncertainty σ̂ ∈ (0, 1] derived from its recent one-step-ahead relative
// errors. σ̂ scales the risk term ξ = σ̂·L of the AC-RR objective: a noisy
// or young forecast makes the orchestrator overbook conservatively.
//
// Adaptive is the production composite: error-tracked model selection
// between SES and DES until two full seasons of history let Holt-Winters
// take over, built with the one set of smoothing constants (Alpha, Beta,
// Gamma) the orchestrator uses. View defines the single shared reading of a
// forecaster as a reservation input (λ̂ clamped into the SLA, σ̂, optional
// padding) used identically by the offline simulator and the closed-loop
// reoptimizer (internal/reopt), which the ctrlplane orchestrator runs.
package forecast
