package forecast

import "math"

// Forecaster is the interface the orchestrator consumes.
type Forecaster interface {
	// Observe feeds the measurement of the epoch that just ended.
	Observe(v float64)
	// Forecast predicts the next h epochs; element 0 is epoch t+1.
	Forecast(h int) []float64
	// Uncertainty returns σ̂ ∈ (0, 1]: 1 before the model has warmed up,
	// shrinking toward the recent relative RMSE as forecasts prove out.
	Uncertainty() float64
}

// errTracker maintains the exponentially weighted relative one-step error
// all three models share for their σ̂ estimate.
type errTracker struct {
	warm   bool
	relVar float64 // EWMA of squared relative error
	n      int
}

const errDecay = 0.2

func (e *errTracker) record(predicted, actual float64) {
	denom := math.Max(math.Abs(actual), 1e-9)
	rel := (predicted - actual) / denom
	if !e.warm {
		e.relVar = rel * rel
		e.warm = true
	} else {
		e.relVar = (1-errDecay)*e.relVar + errDecay*rel*rel
	}
	e.n++
}

// sigma maps the tracked error to (0, 1]. minSamples guards against
// overconfidence on a handful of lucky epochs.
func (e *errTracker) sigma(minSamples int) float64 {
	if e.n < minSamples {
		return 1
	}
	s := math.Sqrt(e.relVar)
	if s > 1 {
		return 1
	}
	if s < 1e-4 {
		return 1e-4 // σ̂ must stay strictly positive (0 < ξ ≤ L)
	}
	return s
}

// SES is simple (single) exponential smoothing: a flat-line forecaster.
type SES struct {
	alpha float64
	level float64
	init  bool
	et    errTracker
}

// NewSES returns a single-exponential-smoothing forecaster.
func NewSES(alpha float64) *SES { return &SES{alpha: alpha} }

// Observe implements Forecaster.
func (s *SES) Observe(v float64) {
	if !s.init {
		s.level, s.init = v, true
		return
	}
	s.et.record(s.level, v)
	s.level = s.alpha*v + (1-s.alpha)*s.level
}

// Forecast implements Forecaster.
func (s *SES) Forecast(h int) []float64 {
	out := make([]float64, h)
	for i := range out {
		out[i] = s.level
	}
	return out
}

// Uncertainty implements Forecaster.
func (s *SES) Uncertainty() float64 { return s.et.sigma(1) }

// DES is double (Holt) exponential smoothing: level plus linear trend.
type DES struct {
	alpha, beta  float64
	level, trend float64
	n            int
	et           errTracker
}

// NewDES returns a double-exponential-smoothing forecaster.
func NewDES(alpha, beta float64) *DES { return &DES{alpha: alpha, beta: beta} }

// Observe implements Forecaster.
func (d *DES) Observe(v float64) {
	switch d.n {
	case 0:
		d.level = v
	case 1:
		d.trend = v - d.level
		d.level = v
	default:
		d.et.record(d.level+d.trend, v)
		prevLevel := d.level
		d.level = d.alpha*v + (1-d.alpha)*(d.level+d.trend)
		d.trend = d.beta*(d.level-prevLevel) + (1-d.beta)*d.trend
	}
	d.n++
}

// Forecast implements Forecaster.
func (d *DES) Forecast(h int) []float64 {
	out := make([]float64, h)
	for i := range out {
		out[i] = math.Max(0, d.level+float64(i+1)*d.trend)
	}
	return out
}

// Uncertainty implements Forecaster.
func (d *DES) Uncertainty() float64 { return d.et.sigma(1) }

// HoltWinters is the multiplicative seasonal (triple) exponential smoothing
// model of Taylor/Holt-Winters the paper adopts: f_HW : λ(1..t-1) → λ̂(t+δ).
type HoltWinters struct {
	alpha, beta, gamma float64
	period             int

	level, trend float64
	seasonal     []float64
	history      []float64 // buffered until two full seasons are seen
	ready        bool
	step         int // index into the seasonal cycle
	et           errTracker
}

// NewHoltWinters returns a multiplicative Holt-Winters forecaster with the
// given smoothing factors and seasonal period (in epochs). Typical mobile
// traffic with hourly epochs uses period 24.
func NewHoltWinters(alpha, beta, gamma float64, period int) *HoltWinters {
	if period < 2 {
		panic("forecast: Holt-Winters period must be >= 2")
	}
	return &HoltWinters{alpha: alpha, beta: beta, gamma: gamma, period: period}
}

// Observe implements Forecaster.
func (hw *HoltWinters) Observe(v float64) {
	if !hw.ready {
		hw.history = append(hw.history, v)
		if len(hw.history) >= 2*hw.period {
			hw.initialize()
		}
		return
	}
	hw.et.record(hw.predict(1), v)

	idx := hw.step % hw.period
	s := hw.seasonal[idx]
	if s < 1e-9 {
		s = 1e-9
	}
	prevLevel := hw.level
	hw.level = hw.alpha*(v/s) + (1-hw.alpha)*(hw.level+hw.trend)
	hw.trend = hw.beta*(hw.level-prevLevel) + (1-hw.beta)*hw.trend
	if hw.level > 1e-12 {
		hw.seasonal[idx] = hw.gamma*(v/hw.level) + (1-hw.gamma)*s
	}
	hw.step++
}

// initialize seeds level/trend/seasonal from the first two seasons, the
// standard Holt-Winters warm start.
func (hw *HoltWinters) initialize() {
	m := hw.period
	mean1, mean2 := 0.0, 0.0
	for i := 0; i < m; i++ {
		mean1 += hw.history[i]
		mean2 += hw.history[m+i]
	}
	mean1 /= float64(m)
	mean2 /= float64(m)
	if mean1 < 1e-9 {
		mean1 = 1e-9
	}

	hw.level = mean2
	hw.trend = (mean2 - mean1) / float64(m)
	hw.seasonal = make([]float64, m)
	for i := 0; i < m; i++ {
		s1 := hw.history[i] / mean1
		s2 := hw.history[m+i] / math.Max(mean2, 1e-9)
		hw.seasonal[i] = (s1 + s2) / 2
		if hw.seasonal[i] < 1e-9 {
			hw.seasonal[i] = 1e-9
		}
	}
	hw.step = 0 // the cycle restarts after two seasons of history
	hw.ready = true
	hw.history = nil
}

// predict returns the h-step-ahead point forecast.
func (hw *HoltWinters) predict(h int) float64 {
	idx := (hw.step + h - 1) % hw.period
	v := (hw.level + float64(h)*hw.trend) * hw.seasonal[idx]
	return math.Max(0, v)
}

// Forecast implements Forecaster. Before warm-up it falls back to the last
// observation (or zero), which keeps the orchestrator maximally
// conservative on brand-new slices.
func (hw *HoltWinters) Forecast(h int) []float64 {
	out := make([]float64, h)
	if !hw.ready {
		last := 0.0
		if len(hw.history) > 0 {
			last = hw.history[len(hw.history)-1]
		}
		for i := range out {
			out[i] = last
		}
		return out
	}
	for i := range out {
		out[i] = hw.predict(i + 1)
	}
	return out
}

// Uncertainty implements Forecaster.
func (hw *HoltWinters) Uncertainty() float64 {
	if !hw.ready {
		return 1
	}
	return hw.et.sigma(1)
}

// Ready reports whether the model has seen its two warm-up seasons and is
// producing seasonal forecasts.
func (hw *HoltWinters) Ready() bool { return hw.ready }

// Adaptive is the orchestrator's production forecaster, a model-selection
// composite: while the Holt-Winters model accumulates its two warm-up
// seasons, the non-seasonal candidates — simple exponential smoothing and
// Holt's double (level+trend) smoothing — run side by side and the one
// with the lower tracked one-step error σ̂ serves the forecasts (SES on
// ties and before either has proven out, so flat workloads keep their
// historical behavior; DES takes over on sustained ramps, which it tracks
// and SES lags). Once two full seasons of history exist, seasonal
// Holt-Winters takes over for good. The paper's testbed admits a second
// slice two epochs after observing the first one's load (§5), which only
// works if the forecaster is useful long before a full season of history
// exists — that is what the non-seasonal phase is for.
type Adaptive struct {
	ses *SES
	des *DES
	hw  *HoltWinters
}

// The orchestrator's smoothing constants: every per-slice Adaptive tracker,
// the simulator's and the closed-loop controller's alike, is built with
// them (and a Holt-Winters period the caller chooses).
const (
	Alpha = 0.5  // level
	Beta  = 0.05 // trend
	Gamma = 0.15 // seasonal
)

// NewAdaptive returns the composite forecaster.
func NewAdaptive(alpha, beta, gamma float64, period int) *Adaptive {
	return &Adaptive{
		ses: NewSES(alpha),
		des: NewDES(alpha, beta),
		hw:  NewHoltWinters(alpha, beta, gamma, period),
	}
}

// Observe implements Forecaster. Every candidate observes every sample, so
// the moment one takes over it already carries the full history.
func (a *Adaptive) Observe(v float64) {
	a.ses.Observe(v)
	a.des.Observe(v)
	a.hw.Observe(v)
}

// active returns the currently selected model.
func (a *Adaptive) active() Forecaster {
	if a.hw.Ready() {
		return a.hw
	}
	if a.des.Uncertainty() < a.ses.Uncertainty() {
		return a.des
	}
	return a.ses
}

// Forecast implements Forecaster.
func (a *Adaptive) Forecast(h int) []float64 { return a.active().Forecast(h) }

// Uncertainty implements Forecaster.
func (a *Adaptive) Uncertainty() float64 { return a.active().Uncertainty() }

// View is the orchestrator's standard reading of a forecaster for a slice
// with SLA bitrate lam: the conservative (Λ, 1) while the model has not
// proven out (σ̂ ≥ 1, i.e. no trusted history), and otherwise the one-step
// point forecast — optionally padded by (1 + pad·σ̂) — clamped into the SLA.
// Exactly this reading feeds core.TenantSpec.{LambdaHat, Sigma} in the
// simulator, the ctrlplane orchestrator, and the closed-loop controller,
// so the three paths cannot drift apart.
func View(f Forecaster, lam, pad float64) (lambdaHat, sigma float64) {
	sigma = f.Uncertainty()
	if sigma >= 1 {
		return lam, 1 // no trusted history: reserve the full SLA
	}
	pred := f.Forecast(1)[0] * (1 + pad*sigma)
	return math.Min(pred, lam), sigma
}

// RMSE computes the root-mean-square error between two equal-length series;
// it is used by the forecasting-accuracy ablation (EXPERIMENTS.md A2).
func RMSE(pred, actual []float64) float64 {
	if len(pred) != len(actual) || len(pred) == 0 {
		return math.NaN()
	}
	s := 0.0
	for i := range pred {
		d := pred[i] - actual[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred)))
}

// MAPE computes the mean absolute percentage error, skipping zero actuals.
func MAPE(pred, actual []float64) float64 {
	if len(pred) != len(actual) || len(pred) == 0 {
		return math.NaN()
	}
	s, n := 0.0, 0
	for i := range pred {
		if math.Abs(actual[i]) < 1e-12 {
			continue
		}
		s += math.Abs(pred[i]-actual[i]) / math.Abs(actual[i])
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return s / float64(n)
}
