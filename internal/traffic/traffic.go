package traffic

import (
	"math"
	"math/rand"
)

// Generator produces one network-load sample (Mb/s) per monitoring slot θ.
type Generator interface {
	// Sample returns the load of monitoring slot θ of decision epoch t.
	Sample(t, theta int) float64
}

// Gaussian is the homogeneous-scenario process: i.i.d. normal samples with
// mean λ̄ and standard deviation σ, clipped at zero (not at the SLA rate: a
// tenant may offer more than it bought).
type Gaussian struct {
	MeanMbps float64
	StdMbps  float64
	rng      *rand.Rand
}

// NewGaussian returns a seeded Gaussian load process.
func NewGaussian(mean, std float64, seed int64) *Gaussian {
	return &Gaussian{MeanMbps: mean, StdMbps: std, rng: rand.New(rand.NewSource(seed))}
}

// Sample implements Generator.
func (g *Gaussian) Sample(t, theta int) float64 {
	v := g.MeanMbps + g.rng.NormFloat64()*g.StdMbps
	if v < 0 {
		v = 0
	}
	return v
}

// Constant is the deterministic mMTC process (σ_mMTC = 0 in Table 1).
type Constant struct{ MeanMbps float64 }

// Sample implements Generator.
func (c Constant) Sample(t, theta int) float64 { return c.MeanMbps }

// Diurnal follows the classic mobile-network day shape: a sinusoid with a
// morning ramp and evening peak plus Gaussian jitter, repeating every
// PeriodEpochs. It exercises the seasonal tracking of the Holt-Winters
// forecaster the way real slice traffic does (§2.2.2 cites [36] for this
// periodicity).
type Diurnal struct {
	BaseMbps        float64 // trough level
	PeakMbps        float64 // crest level
	PeriodEpochs    int     // epochs per day
	JitterMbps      float64
	SamplesPerEpoch int
	rng             *rand.Rand
}

// NewDiurnal returns a seeded diurnal load process.
func NewDiurnal(base, peak float64, periodEpochs, samplesPerEpoch int, jitter float64, seed int64) *Diurnal {
	if periodEpochs < 2 {
		panic("traffic: diurnal period must be >= 2 epochs")
	}
	return &Diurnal{BaseMbps: base, PeakMbps: peak, PeriodEpochs: periodEpochs,
		SamplesPerEpoch: samplesPerEpoch, JitterMbps: jitter,
		rng: rand.New(rand.NewSource(seed))}
}

// Sample implements Generator. The phase advances smoothly within the
// epoch so per-sample maxima reflect intra-epoch growth.
func (d *Diurnal) Sample(t, theta int) float64 {
	frac := float64(t) + float64(theta)/math.Max(1, float64(d.SamplesPerEpoch))
	phase := 2 * math.Pi * frac / float64(d.PeriodEpochs)
	// Shift so the minimum lands at t=0 (early morning).
	level := d.BaseMbps + (d.PeakMbps-d.BaseMbps)*(1-math.Cos(phase))/2
	v := level + d.rng.NormFloat64()*d.JitterMbps
	if v < 0 {
		v = 0
	}
	return v
}

// LogNormal is the heavy-tailed load process the flash-crowd and
// heavy-tail scenarios use: most samples sit below the mean but the upper
// tail reaches far past what a Gaussian with the same moments would
// produce, stressing the peak-tracking forecaster and the overbooking risk
// term. Parameterized by the target mean and standard deviation of the
// samples (moment-matched, not by the underlying normal's µ/σ).
type LogNormal struct {
	mu, sig float64
	rng     *rand.Rand
}

// NewLogNormal returns a seeded heavy-tailed load process whose samples
// have the given mean and standard deviation.
func NewLogNormal(mean, std float64, seed int64) *LogNormal {
	if mean <= 0 {
		panic("traffic: lognormal needs a positive mean")
	}
	cv2 := (std / mean) * (std / mean)
	sig2 := math.Log(1 + cv2)
	return &LogNormal{
		mu: math.Log(mean) - sig2/2, sig: math.Sqrt(sig2),
		rng: rand.New(rand.NewSource(seed)),
	}
}

// Sample implements Generator.
func (l *LogNormal) Sample(t, theta int) float64 {
	return math.Exp(l.mu + l.rng.NormFloat64()*l.sig)
}
