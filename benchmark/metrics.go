package main

import "math"

// metricDef is one named metric: how it is computed from a finished pass
// and, for end-to-end metrics, how far it may worsen before `compare` calls
// it a regression (Bound, relative to the baseline median) — never for a
// difference smaller than Floor (absolute, in Unit), which keeps
// sub-millisecond values from failing on scheduler noise.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
	Floor  float64
	value  func(p *pass) float64
}

// endToEnd is what a tenant and an operator see. Definitions: README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, 0.005, func(p *pass) float64 { return median(p.setupS) }},
	{"decisions_per_s", "1/s", "higher", 0.25, 0, (*pass).rate},
	{"decision_p50_ms", "ms", "lower", 0.25, 0.05, func(p *pass) float64 { return p.latency(p.decisionMs, p.decisionAt, 0.5) }},
	{"decision_tail_ms", "ms", "lower", 0.25, 0.25, func(p *pass) float64 { return p.latency(p.decisionMs, p.decisionAt, p.w.decisionTail) }},
	{"round_p50_ms", "ms", "lower", 0.25, 0.05, func(p *pass) float64 { return p.latency(p.roundMs, p.roundAt, 0.5) }},
	{"round_tail_ms", "ms", "lower", 0.25, 0.25, func(p *pass) float64 { return p.latency(p.roundMs, p.roundAt, p.w.roundTail) }},
	{"alloc_mb_per_round", "MB", "lower", 0.10, 0.001, func(p *pass) float64 { return float64(p.alloc) / 1e6 / float64(max(p.rounds, 1)) }},
}

// latency is the q-th percentile of a latency series as the workload reports
// it: normalised by the machine's speed where the workload is, and taken as
// the median over the workload's segments.
func (p *pass) latency(xs []float64, at []int, q float64) float64 {
	return segQuantile(p.normalise(xs, at), q, p.w.segments)
}

// rate is decisions per second over the units of the throughput phase (all
// of them unless closeRate cut it short): per segment, the decisions its
// units made over their wall time — each unit's divided by its speed index —
// and the median over the segments.
func (p *pass) rate() float64 {
	n := len(p.unitAt)
	if p.rateUnits > 0 {
		n = min(n, p.rateUnits)
	}
	if n == 0 {
		return float64(p.decisions) / p.timed.Seconds()
	}
	k := max(min(p.w.segments, n), 1)
	rates := make([]float64, k)
	for s := range rates {
		wall, from, to := 0.0, s*n/k, (s+1)*n/k
		for u := from; u < to; u++ {
			w := p.unitAt[u]
			if u > 0 {
				w -= p.unitAt[u-1]
			}
			wall += w / p.speedOf(u)
		}
		dec := p.unitDec[to-1]
		if from > 0 {
			dec -= p.unitDec[from-1]
		}
		rates[s] = float64(dec) / wall
	}
	return median(rates)
}

func p50(name string) func(*pass) float64 {
	return func(p *pass) float64 { return median(p.series[name]) }
}

func tail(name string) func(*pass) float64 {
	return func(p *pass) float64 { return quantile(p.series[name], tailQ(len(p.series[name]))) }
}

func avg(name string) func(*pass) float64 {
	return func(p *pass) float64 { return mean(p.series[name]) }
}

func peak(name string) func(*pass) float64 {
	return func(p *pass) float64 { return maxOf(p.series[name]) }
}

func count(name string) func(*pass) float64 {
	return func(p *pass) float64 { return p.counts[name] }
}

// per divides counter num by counter den (0 when den is 0).
func per(num, den string) func(*pass) float64 {
	return func(p *pass) float64 {
		if p.counts[den] == 0 {
			return 0
		}
		return p.counts[num] / p.counts[den]
	}
}

// perRound divides a counter by the pass's round count.
func perRound(num string) func(*pass) float64 {
	return func(p *pass) float64 { return p.counts[num] / float64(max(p.rounds, 1)) }
}

// perLayer is measured on the traced pass only; a workload that does not
// exercise a layer reports 0 for it. Every name is <layer>.<metric>, the
// layer being the package.
var perLayer = []metricDef{
	{Name: "ctrlplane.post_request_ms_p50", Unit: "ms", Better: "lower", value: p50("ctrlplane.post_request_ms")},
	{Name: "ctrlplane.post_epoch_ms_p50", Unit: "ms", Better: "lower", value: p50("ctrlplane.post_epoch_ms")},
	{Name: "ctrlplane.program_ms_per_epoch", Unit: "ms", Better: "lower", value: per("ctrlplane.program_ms", "ctrlplane.epochs")},
	{Name: "ctrlplane.program_calls_per_epoch", Unit: "count", Better: "lower", value: per("ctrlplane.program_calls", "ctrlplane.epochs")},
	{Name: "ctrlplane.http_overhead_ms_p50", Unit: "ms", Better: "lower", value: p50("ctrlplane.http_overhead_ms")},
	{Name: "ctrlplane.get_slices_ms_p50", Unit: "ms", Better: "lower", value: p50("ctrlplane.get_slices_ms")},
	{Name: "ctrlplane.recover_ms", Unit: "ms", Better: "lower", value: p50("ctrlplane.recover_ms")},
	{Name: "ctrlplane.standby_poll_ms_p50", Unit: "ms", Better: "lower", value: p50("ctrlplane.standby_poll_ms")},
	{Name: "ctrlplane.standby_lag_rounds_max", Unit: "count", Better: "lower", value: peak("ctrlplane.standby_lag_rounds")},
	{Name: "ctrlplane.promote_ms", Unit: "ms", Better: "lower", value: p50("ctrlplane.promote_ms")},

	{Name: "admission.submit_us_p50", Unit: "us", Better: "lower", value: p50("admission.submit_us")},
	{Name: "admission.submit_us_tail", Unit: "us", Better: "lower", value: tail("admission.submit_us")},
	{Name: "admission.queue_wait_ms_p50", Unit: "ms", Better: "lower", value: p50("admission.queue_wait_ms")},
	{Name: "admission.queue_wait_ms_tail", Unit: "ms", Better: "lower", value: tail("admission.queue_wait_ms")},
	{Name: "admission.mean_batch", Unit: "count", Better: "higher", value: count("admission.mean_batch")},
	{Name: "admission.shed", Unit: "count", Better: "lower", value: count("admission.shed")},
	{Name: "admission.failed", Unit: "count", Better: "lower", value: count("admission.failed")},
	{Name: "admission.fast_rejected", Unit: "count", Better: "lower", value: count("admission.fast_rejected")},
	{Name: "admission.rounds", Unit: "count", Better: "higher", value: count("admission.rounds")},
	{Name: "admission.late_share", Unit: "ratio", Better: "lower", value: per("admission.late", "admission.open_loop")},
	{Name: "admission.decide_round_ms_p50", Unit: "ms", Better: "lower", value: p50("admission.decide_round_ms")},
	{Name: "admission.self_ms_p50", Unit: "ms", Better: "lower", value: p50("admission.self_ms")},
	{Name: "admission.update_forecasts_us_p50", Unit: "us", Better: "lower", value: p50("admission.update_forecasts_us")},
	{Name: "admission.advance_us_p50", Unit: "us", Better: "lower", value: p50("admission.advance_us")},
	{Name: "admission.apply_topology_ms_p50", Unit: "ms", Better: "lower", value: p50("admission.apply_topology_ms")},
	{Name: "admission.add_domain_ms", Unit: "ms", Better: "lower", value: p50("admission.add_domain_ms")},
	{Name: "admission.replay_round_us_p50", Unit: "us", Better: "lower", value: p50("admission.replay_round_us")},

	{Name: "reopt.step_ms_p50", Unit: "ms", Better: "lower", value: p50("reopt.step_ms")},
	{Name: "reopt.nonsolve_us_p50", Unit: "us", Better: "lower", value: p50("reopt.nonsolve_us")},
	{Name: "reopt.rescaled_per_step", Unit: "count", Better: "higher", value: per("reopt.rescaled", "reopt.steps")},

	{Name: "core.solve_ms_p50", Unit: "ms", Better: "lower", value: p50("core.solve_ms")},
	{Name: "core.solve_ms_tail", Unit: "ms", Better: "lower", value: tail("core.solve_ms")},
	{Name: "core.benders_iters_per_round", Unit: "count", Better: "lower", value: per("core.benders_iters", "core.solves")},
	{Name: "core.fellback_rounds", Unit: "count", Better: "lower", value: count("core.fellback_rounds")},
	{Name: "core.warm_session_ms_p50", Unit: "ms", Better: "lower", value: p50("core.warm_session_ms")},
	{Name: "core.cold_solve_ms_p50", Unit: "ms", Better: "lower", value: p50("core.cold_solve_ms")},
	{Name: "core.direct_solve_ms_p50", Unit: "ms", Better: "lower", value: p50("core.direct_solve_ms")},

	{Name: "milp.solve_ms_p50", Unit: "ms", Better: "lower", value: p50("milp.solve_ms")},
	{Name: "milp.nodes_per_solve", Unit: "count", Better: "lower", value: avg("milp.nodes")},
	{Name: "milp.pivots_per_solve", Unit: "count", Better: "lower", value: avg("milp.pivots")},

	{Name: "lp.rows", Unit: "count", Better: "lower", value: p50("lp.rows")},
	{Name: "lp.cols", Unit: "count", Better: "lower", value: p50("lp.cols")},
	{Name: "lp.cold_solve_ms_p50", Unit: "ms", Better: "lower", value: p50("lp.cold_solve_ms")},
	{Name: "lp.cold_pivots", Unit: "count", Better: "lower", value: avg("lp.cold_pivots")},
	{Name: "lp.presolve_us_p50", Unit: "us", Better: "lower", value: p50("lp.presolve_us")},
	{Name: "lp.presolve_rows_removed", Unit: "count", Better: "higher", value: avg("lp.presolve_rows_removed")},
	{Name: "lp.warm_resolve_us_p50", Unit: "us", Better: "lower", value: p50("lp.warm_resolve_us")},
	{Name: "lp.warm_pivots", Unit: "count", Better: "lower", value: avg("lp.warm_pivots")},

	{Name: "wal.append_us_p50", Unit: "us", Better: "lower", value: p50("wal.append_us")},
	{Name: "wal.sync_ms_p50", Unit: "ms", Better: "lower", value: p50("wal.sync_ms")},
	{Name: "wal.sync_ms_tail", Unit: "ms", Better: "lower", value: tail("wal.sync_ms")},
	{Name: "wal.syncs_per_round", Unit: "count", Better: "lower", value: func(p *pass) float64 {
		return float64(len(p.series["wal.sync_ms"])) / float64(max(p.rounds, 1))
	}},
	{Name: "wal.records_per_round", Unit: "count", Better: "lower", value: perRound("wal.records")},
	{Name: "wal.bytes_per_decision", Unit: "B", Better: "lower", value: func(p *pass) float64 {
		return p.counts["wal.bytes"] / float64(max(p.decisions, 1))
	}},
	{Name: "wal.snapshot_ms_p50", Unit: "ms", Better: "lower", value: p50("wal.snapshot_ms")},
	{Name: "wal.open_ms_p50", Unit: "ms", Better: "lower", value: p50("wal.open_ms")},
	{Name: "wal.recover_ms_p50", Unit: "ms", Better: "lower", value: p50("wal.recover_ms")},
	{Name: "wal.replay_rounds_per_s", Unit: "1/s", Better: "higher", value: func(p *pass) float64 {
		if p.counts["wal.recover_s"] == 0 {
			return 0
		}
		return p.counts["wal.replayed_rounds"] / p.counts["wal.recover_s"]
	}},
	{Name: "wal.tail_poll_us_p50", Unit: "us", Better: "lower", value: p50("wal.tail_poll_us")},

	{Name: "cluster.solve_round_ms_p50", Unit: "ms", Better: "lower", value: p50("cluster.solve_round_ms")},
	{Name: "cluster.wire_tax_us_p50", Unit: "us", Better: "lower", value: func(p *pass) float64 {
		if len(p.series["cluster.solve_round_ms"]) == 0 {
			return 0
		}
		return math.Max(0, 1e3*(median(p.series["cluster.solve_round_ms"])-median(p.series["core.warm_session_ms"])))
	}},
	{Name: "cluster.bytes_per_round", Unit: "B", Better: "lower", value: perRound("cluster.bytes")},
	{Name: "cluster.frames_per_round", Unit: "count", Better: "lower", value: perRound("cluster.frames")},
	{Name: "cluster.lease_renew_us_p50", Unit: "us", Better: "lower", value: p50("cluster.lease_renew_us")},

	{Name: "proc.cpu_s_per_1k_rounds", Unit: "s", Better: "lower", value: func(p *pass) float64 {
		return p.cpu.Seconds() * 1000 / float64(max(p.rounds, 1))
	}},
	{Name: "proc.gc_cpu_share", Unit: "ratio", Better: "lower", value: count("proc.gc_cpu_share")},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower", value: func(*pass) float64 { return peakRSSMB() }},
	{Name: "proc.mutex_wait_ms", Unit: "ms", Better: "lower", value: count("proc.mutex_wait_ms")},
	{Name: "proc.sched_lag_ms_tail", Unit: "ms", Better: "lower", value: tail("proc.sched_lag_ms")},
	{Name: "proc.fsync_probe_us", Unit: "us", Better: "lower", value: count("proc.fsync_probe_us")},
	{Name: "proc.trace_overhead_share", Unit: "ratio", Better: "lower", value: count("proc.trace_overhead_share")},
	{Name: "proc.speed_index", Unit: "ratio", Better: "lower", value: (*pass).speedIndex},
	{Name: "proc.failed_share", Unit: "ratio", Better: "lower", value: func(p *pass) float64 {
		return float64(p.failed) / float64(max(p.attempted, 1))
	}},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// passResult is what one pass reports.
type passResult struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Traced      bool              `json:"traced"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Metrics     map[string]metric `json:"metrics"`
	Rounds      int               `json:"round_samples"`
	Decisions   int               `json:"decision_samples"`
	Fingerprint string            `json:"fingerprint"`
	Units       []string          `json:"unit_fingerprints"`
	UnitAtS     []float64         `json:"-"` // timed wall at each unit boundary
	Violations  []string          `json:"violations,omitempty"`
	TimedS      float64           `json:"timed_s"`
	Truncated   bool              `json:"truncated,omitempty"`
	Budget      []layerTime       `json:"budget,omitempty"`
}

// finish turns the recorder into a report. err is the workload's own error,
// if it stopped early.
func (p *pass) finish(err error) *passResult {
	if err != nil {
		p.fail("workload stopped", err)
	}
	defs := endToEnd
	if p.traced() {
		defs = perLayer
		p.counts["proc.mutex_wait_ms"] = procMetric("/sync/mutex/wait/total:seconds") * 1e3
		if total := procMetric("/cpu/classes/total:cpu-seconds"); total > 0 {
			p.counts["proc.gc_cpu_share"] = procMetric("/cpu/classes/gc/total:cpu-seconds") / total
		}
	}
	res := &passResult{
		Workload: p.w.name, Seed: p.seed, Seconds: p.seconds, Traced: p.traced(),
		Attempted: p.attempted, Failed: p.failed,
		Metrics: map[string]metric{},
		Rounds:  len(p.roundMs), Decisions: len(p.decisionMs),
		Units: p.units, UnitAtS: p.unitAt, Fingerprint: combine(p.units),
		Violations: append(p.violations, p.notes...), TimedS: p.timed.Seconds(),
		Truncated: p.counts["truncated"] > 0,
	}
	for _, d := range defs {
		v := d.value(p)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	res.Correct = len(p.violations) == 0 && p.failed == 0
	if len(p.violations) > 0 {
		// A workload whose outputs are wrong has no valid operations.
		res.Failed = max(res.Attempted, 1)
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed, res.Correct = 1, 1, false
	}
	return res
}
