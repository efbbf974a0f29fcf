package forecast

import (
	"math"
	"testing"
)

// seasonal is the synthetic day shape the regime-change tests feed:
// a sinusoid over `period` epochs around a positive mean.
func seasonal(t, period int) float64 {
	return 100 + 40*math.Sin(2*math.Pi*float64(t)/float64(period))
}

// TestAdaptiveStartsOnSES pins the cold-start selection: before any model
// has proven out, the composite serves SES's flat-line forecast with full
// uncertainty — the conservative reading the orchestrator maps to a
// full-SLA reservation.
func TestAdaptiveStartsOnSES(t *testing.T) {
	a := NewAdaptive(0.5, 0.1, 0.1, 6)
	if got := a.Model(); got != "ses" {
		t.Fatalf("cold model = %q, want ses", got)
	}
	a.Observe(50)
	if got := a.Uncertainty(); got != 1 {
		t.Fatalf("uncertainty after one observation = %v, want 1", got)
	}
	if got := a.Forecast(2); got[0] != 50 || got[1] != 50 {
		t.Fatalf("one-observation forecast = %v, want flat 50s", got)
	}
}

// TestAdaptiveSelectsDESOnRamp drives a sustained linear ramp: DES tracks
// the trend while SES lags a full step behind, so the error-based selector
// must hand the composite to DES — and the served forecast must actually
// be the trend-following one.
func TestAdaptiveSelectsDESOnRamp(t *testing.T) {
	a := NewAdaptive(0.5, 0.3, 0.1, 24) // period 24: HW stays in warm-up throughout
	v := 0.0
	for i := 0; i < 16; i++ {
		v = 10 + 5*float64(i)
		a.Observe(v)
	}
	if got := a.Model(); got != "des" {
		t.Fatalf("model on a ramp = %q, want des", got)
	}
	next := v + 5
	got := a.Forecast(1)[0]
	ses := NewSES(0.5)
	for i := 0; i < 16; i++ {
		ses.Observe(10 + 5*float64(i))
	}
	if math.Abs(got-next) >= math.Abs(ses.Forecast(1)[0]-next) {
		t.Fatalf("selected forecast %v is no better than SES's %v (truth %v)", got, ses.Forecast(1)[0], next)
	}
	if sig := a.Uncertainty(); sig >= 1 {
		t.Fatalf("uncertainty on a learnable ramp = %v, want < 1", sig)
	}
}

// TestAdaptiveKeepsSESOnStationaryNoise is the other side of the selector:
// on mean-reverting data DES's trend term chases noise, its tracked error
// stays at or above SES's, and the composite must not flap away from SES.
func TestAdaptiveKeepsSESOnStationaryNoise(t *testing.T) {
	a := NewAdaptive(0.5, 0.3, 0.1, 48)
	// Deterministic mean-reverting sequence around 100.
	vals := []float64{100, 104, 97, 101, 99, 103, 98, 102, 100, 96, 103, 99, 101, 98, 104, 100}
	for _, v := range vals {
		a.Observe(v)
	}
	if got := a.Model(); got != "ses" {
		t.Fatalf("model on stationary noise = %q, want ses", got)
	}
}

// TestAdaptiveRegimeChangeToHoltWinters is the satellite's headline
// scenario: a slice starts flat (SES serves), ramps into a diurnal pattern
// (DES takes over mid-regime), and once two full seasons of history have
// accumulated the composite must switch to seasonal Holt-Winters — and
// must then out-forecast both non-seasonal candidates on the next season.
func TestAdaptiveRegimeChangeToHoltWinters(t *testing.T) {
	const period = 8
	a := NewAdaptive(0.5, 0.1, 0.2, period)
	ses := NewSES(0.5)
	des := NewDES(0.5, 0.1)

	feed := func(v float64) { a.Observe(v); ses.Observe(v); des.Observe(v) }

	seen := 0
	models := map[string]bool{}
	for i := 0; i < 2*period; i++ {
		feed(seasonal(i, period))
		seen++
		models[a.Model()] = true
		if a.Model() == "holt-winters" && seen < 2*period {
			t.Fatalf("switched to holt-winters after %d observations, before two seasons (%d)", seen, 2*period)
		}
	}
	if got := a.Model(); got != "holt-winters" {
		t.Fatalf("model after two seasons = %q, want holt-winters", got)
	}
	if !models["ses"] && !models["des"] {
		t.Fatalf("no non-seasonal model ever served during warm-up: %v", models)
	}

	// Over the next season, the seasonal model must beat both candidates.
	var truth, hwPred, sesPred, desPred []float64
	for i := 2 * period; i < 3*period; i++ {
		hwPred = append(hwPred, a.Forecast(1)[0])
		sesPred = append(sesPred, ses.Forecast(1)[0])
		desPred = append(desPred, des.Forecast(1)[0])
		v := seasonal(i, period)
		truth = append(truth, v)
		feed(v)
	}
	hwErr, sesErr, desErr := RMSE(hwPred, truth), RMSE(sesPred, truth), RMSE(desPred, truth)
	if !(hwErr < sesErr && hwErr < desErr) {
		t.Fatalf("holt-winters RMSE %v does not beat ses %v / des %v on seasonal data", hwErr, sesErr, desErr)
	}
	if got := a.Model(); got != "holt-winters" {
		t.Fatalf("model regressed to %q after the switch", got)
	}
}

// TestViewConservativeUntilProven pins the shared orchestrator reading:
// full-SLA (Λ, 1) while σ̂ = 1, the clamped point forecast afterwards.
func TestViewConservativeUntilProven(t *testing.T) {
	f := NewSES(0.5)
	lam := 50.0
	if lh, sig := View(f, lam, 0); lh != lam || sig != 1 {
		t.Fatalf("cold view = (%v, %v), want (%v, 1)", lh, sig, lam)
	}
	for i := 0; i < 10; i++ {
		f.Observe(20)
	}
	lh, sig := View(f, lam, 0)
	if sig >= 1 {
		t.Fatalf("view sigma after proving out = %v, want < 1", sig)
	}
	if math.Abs(lh-20) > 1e-9 {
		t.Fatalf("view λ̂ = %v, want the point forecast 20", lh)
	}
	// A forecast above the SLA is clamped to it.
	for i := 0; i < 20; i++ {
		f.Observe(80)
	}
	if lh, _ := View(f, lam, 0); lh != lam {
		t.Fatalf("view λ̂ = %v, want clamp to Λ=%v", lh, lam)
	}
}

// TestViewPadInflates: the pad multiplies the point forecast by (1+pad·σ̂)
// before the SLA clamp.
func TestViewPadInflates(t *testing.T) {
	f := NewSES(0.5)
	for i := 0; i < 10; i++ {
		f.Observe(20 + float64(i%2)) // a little residual error so σ̂ > 0
	}
	lam := 50.0
	bare, sig := View(f, lam, 0)
	padded, _ := View(f, lam, 1)
	if want := bare * (1 + sig); math.Abs(padded-want) > 1e-9 {
		t.Fatalf("padded view = %v, want %v", padded, want)
	}
}
