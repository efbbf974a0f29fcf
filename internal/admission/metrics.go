package admission

import (
	"sort"
	"time"

	"repro/internal/monitor"
)

// latencyWindow bounds the decision-latency sample ring the quantiles are
// computed over; at load-generator rates this covers the last few seconds
// of traffic, which is what a p99 should describe.
const latencyWindow = 4096

// metrics is the engine's internal counter block (guarded by Engine.mu).
type metrics struct {
	submitted    uint64 // Submit calls that reached intake accounting
	admitted     uint64
	rejected     uint64 // solver rejections
	fastRejected uint64 // prefilter rejections
	shed         uint64 // ErrOverloaded + stop-orphaned
	failed       uint64 // solver errors

	rounds   uint64
	batchSum uint64

	lat    []time.Duration // latency ring
	latIdx int
	latN   int
}

func newMetrics() metrics {
	return metrics{lat: make([]time.Duration, latencyWindow)}
}

func (m *metrics) observeLatency(d time.Duration) {
	m.lat[m.latIdx] = d
	m.latIdx = (m.latIdx + 1) % len(m.lat)
	if m.latN < len(m.lat) {
		m.latN++
	}
}

// Snapshot is the engine's public metrics view.
type Snapshot struct {
	// Intake counters.
	Submitted    uint64 `json:"submitted"`
	Admitted     uint64 `json:"admitted"`
	Rejected     uint64 `json:"rejected"`
	FastRejected uint64 `json:"fast_rejected"`
	Shed         uint64 `json:"shed"`
	Failed       uint64 `json:"failed"`

	// QueueDepth is the current number of accepted-but-undecided requests.
	QueueDepth int `json:"queue_depth"`

	// Rounds and MeanBatch describe batching efficiency: decisions per LP
	// solve is the whole point of the micro-batcher.
	Rounds    uint64  `json:"rounds"`
	MeanBatch float64 `json:"mean_batch"`

	// Decision latency quantiles (submit → outcome) over the recent window.
	LatencyP50 time.Duration `json:"latency_p50_ns"`
	LatencyP99 time.Duration `json:"latency_p99_ns"`
}

// Metrics returns a consistent snapshot of the engine's counters.
func (e *Engine) Metrics() Snapshot {
	e.mu.Lock()
	s := Snapshot{
		Submitted:    e.met.submitted,
		Admitted:     e.met.admitted,
		Rejected:     e.met.rejected,
		FastRejected: e.met.fastRejected,
		Shed:         e.met.shed,
		Failed:       e.met.failed,
		QueueDepth:   e.queued,
		Rounds:       e.met.rounds,
	}
	if e.met.rounds > 0 {
		s.MeanBatch = float64(e.met.batchSum) / float64(e.met.rounds)
	}
	lat := make([]time.Duration, e.met.latN)
	if e.met.latN == len(e.met.lat) {
		copy(lat, e.met.lat)
	} else {
		copy(lat, e.met.lat[:e.met.latN])
	}
	e.mu.Unlock()

	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		s.LatencyP50 = quantile(lat, 0.50)
		s.LatencyP99 = quantile(lat, 0.99)
	}
	return s
}

// quantile reads the q-th quantile from a sorted sample (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// publishRound surfaces one round's wall time through the monitoring
// pipeline (§2.2.2's store), tagged per domain with the round number as the
// epoch. Batch sizes, queue depth and expected revenue are served elsewhere
// (Engine.Metrics, the yield ledger), so the store carries only this.
func (e *Engine) publishRound(domain string, seq uint64, roundMs float64) {
	if e.cfg.Store == nil {
		return
	}
	e.cfg.Store.Add(monitor.Sample{
		Slice: "admission", Metric: "round_ms", Element: domain,
		Epoch: int(seq), Value: roundMs,
	})
}
