// Package monitor implements the monitoring and feedback pipeline of the
// E2E orchestrator (§2.2.2): agents embedded in the data plane push
// per-slice load samples over UDP (standing in for the paper's sFlow and
// OpenStack Ceilometer/Gnocchi exporters) and a collector ingests them into
// an in-memory time-series store (standing in for InfluxDB): one bounded
// ring of samples per (slice, metric, element) series.
//
// Per-slice demand series use the canonical (LoadMetric, BSElement)
// naming, which is what lets the closed-loop controller (internal/reopt)
// match a sample back to the per-BS reservation it must be scored against.
// The closed loop's read, AppendEpochValues, hands back a series' values of
// one epoch in a deterministic order; the controller folds the yield
// accounting and the λ(t) = max{λ(θ) | θ ∈ κ(t)} peaks its forecasters
// consume over exactly that, in one read per series per epoch. The store
// also carries the admission engine's round wall times, one sample per
// round, so one backend serves both the paper's feedback loop and
// operations; realized yield lives in the yield ledger, not here.
package monitor
