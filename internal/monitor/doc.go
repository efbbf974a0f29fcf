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
// The store's one read, AppendElementEpochSamples, hands back a series'
// samples of one epoch in a deterministic order; the controller folds the
// λ(t) = max{λ(θ) | θ ∈ κ(t)} peaks its forecasters consume, and the yield
// accounting, over exactly that. The store also carries the serving layer's
// own health (admission round vitals, realized-yield samples), so one
// backend serves both the paper's feedback loop and operations.
package monitor
