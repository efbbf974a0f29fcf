package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/parallel"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/topology"
)

// --- S1: SLA-violation footprint (§4.3.3 sanity numbers) -------------------

// SLAFootprint quantifies the overbooking footprint on tenants: the paper
// reports violations in fewer than 0.0001% of samples with at most 10% of
// traffic dropped under (σ = λ̄/2, m = 1), and 0.043% of samples with up to
// 20% dropped under the deliberately reckless (σ = 3λ̄/4, m → 0).
//
// The paper's unit is a monitoring sample in which the tenant's SLA traffic
// is dropped ("violations in fewer than 0.0001% of samples with at most 10%
// of traffic dropped"). What ViolationProb counts (yield.Assessment.Sample,
// via sim.Run) is a per-(slice, BS, monitoring slot) sample whose in-SLA
// load — demand clipped at Λ — exceeds that BS's reservation z by more than
// yield's violationEps (1e-9 Mb/s), however small the deficit. Counted so,
// the three configs below read 1.30%, 0.86% and 1.19% at simctl's defaults
// (seed 42): not the paper's figures, and not monotone in σ. EXPERIMENTS.md
// records the disagreement.
type SLAFootprint struct {
	SigmaFrac     float64
	Penalty       float64
	ViolationProb float64
	MeanDrop      float64
	Revenue       float64
}

// SLAViolationStudy measures the footprint across overbooking
// aggressiveness levels on the scaled Romanian topology.
func SLAViolationStudy(nBS, tenants, epochs int, seed int64) ([]SLAFootprint, error) {
	if nBS == 0 {
		nBS = 4
	}
	if tenants == 0 {
		tenants = 8
	}
	if epochs == 0 {
		epochs = 24
	}
	configs := []struct{ sf, m float64 }{
		{0.25, 1},  // moderate
		{0.5, 1},   // the paper's "most aggressive" shown configuration
		{0.75, .1}, // the paper's reckless sanity check (m ≈ 0)
	}
	return parallel.Map(len(configs), 0, func(i int) (SLAFootprint, error) {
		c := configs[i]
		specs := scenario.HomogeneousSpecs(slice.EMBB, tenants, 0.3, c.sf, c.m, seed)
		res, err := sim.Run(sim.Config{
			Net: topology.Romanian(nBS), Epochs: epochs, Slices: specs,
			Algorithm: "direct", KPaths: 2, ReofferPending: true,
		})
		if err != nil {
			return SLAFootprint{}, err
		}
		return SLAFootprint{
			SigmaFrac: c.sf, Penalty: c.m,
			ViolationProb: res.ViolationProb, MeanDrop: res.MeanDrop,
			Revenue: res.MeanRevenue,
		}, nil
	})
}

// PrintSLAStudy renders the footprint table.
func PrintSLAStudy(w io.Writer, rows []SLAFootprint) {
	fmt.Fprintln(w, "# §4.3.3 SLA-violation footprint")
	fmt.Fprintln(w, "sigma_frac\tpenalty_m\tviolation_pct\tmean_drop_pct\trevenue")
	for _, r := range rows {
		fmt.Fprintf(w, "%.2f\t%.2f\t%.4f\t%.1f\t%.3f\n",
			r.SigmaFrac, r.Penalty, 100*r.ViolationProb, 100*r.MeanDrop, r.Revenue)
	}
}

// --- A1: solver scaling (Benders "hours" vs KAC "seconds", §4.3.3) ---------

// SolverTiming is one (size, solver) measurement.
type SolverTiming struct {
	NBS, Tenants int
	Algorithm    string
	Seconds      float64
	Revenue      float64
	Iterations   int
}

// SolverScaling times the three solvers on growing instances, the claim
// behind "Benders may take a few hours ... KAC boils this down to a few
// seconds" (§4.3.3). Absolute numbers differ from CPLEX's, but the scaling
// gap between the exact methods and the heuristic is the reproduced shape.
func SolverScaling(sizes [][2]int, seed int64) ([]SolverTiming, error) {
	if sizes == nil {
		sizes = [][2]int{{2, 4}, {3, 6}, {4, 10}}
	}
	rng := rand.New(rand.NewSource(seed))
	var out []SolverTiming
	for _, sz := range sizes {
		net := topology.Romanian(sz[0])
		paths := net.Paths(1)
		var specs []core.TenantSpec
		for i := 0; i < sz[1]; i++ {
			ty := slice.Type(i % 3)
			sla := slice.SLA{Template: slice.Table1(ty), Duration: 8}.WithPenaltyFactor(1)
			specs = append(specs, core.TenantSpec{
				Name: fmt.Sprintf("t%d", i), SLA: sla,
				LambdaHat: sla.RateMbps * (0.2 + 0.3*rng.Float64()),
				Sigma:     0.1, RemainingEpochs: 8,
			})
		}
		inst := &core.Instance{Net: net, Paths: paths, Tenants: specs, Overbook: true, BigM: core.DefaultBigM}

		type solver struct {
			name string
			run  func() (*core.Decision, error)
		}
		solvers := []solver{
			{"direct", func() (*core.Decision, error) { return core.SolveDirect(inst) }},
			{"kac", func() (*core.Decision, error) { return core.SolveKAC(inst) }},
		}
		// Benders reproduces the paper's "may take hours" behaviour: its
		// single-cut masters grow combinatorially, so it only joins the
		// sweep on instances small enough to converge within the harness
		// budget — exactly the point the A1 ablation makes.
		if sz[0]*sz[1] <= 20 {
			solvers = append(solvers, solver{"benders", func() (*core.Decision, error) {
				return core.SolveBenders(inst, core.BendersOptions{MaxIterations: 80})
			}})
		}
		for _, s := range solvers {
			t0 := time.Now()
			d, err := s.run()
			if err != nil {
				return nil, fmt.Errorf("%s on nBS=%d nT=%d: %w", s.name, sz[0], sz[1], err)
			}
			out = append(out, SolverTiming{
				NBS: sz[0], Tenants: sz[1], Algorithm: s.name,
				Seconds: time.Since(t0).Seconds(), Revenue: d.Revenue(),
				Iterations: d.Iterations,
			})
		}
	}
	return out, nil
}

// PrintSolverScaling renders the timing table.
func PrintSolverScaling(w io.Writer, rows []SolverTiming) {
	fmt.Fprintln(w, "# A1: solver runtime scaling (Benders/exact vs KAC heuristic)")
	fmt.Fprintln(w, "nBS\ttenants\talgo\tseconds\trevenue\titerations")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%s\t%.3f\t%.3f\t%d\n",
			r.NBS, r.Tenants, r.Algorithm, r.Seconds, r.Revenue, r.Iterations)
	}
}

// --- A2: forecasting ablation (HW vs SES/DES, §2.2.2 footnote 6) -----------

// ForecastScore is one model's accuracy on seasonal mobile traffic.
type ForecastScore struct {
	Model string
	RMSE  float64
	MAPE  float64
}

// ForecastAblation compares Holt-Winters against single and double
// exponential smoothing on synthetic diurnal traffic — the paper's stated
// reason for a triple-smoothing forecaster.
func ForecastAblation(period, days int, noise float64, seed int64) []ForecastScore {
	if period == 0 {
		period = 24
	}
	if days == 0 {
		days = 20
	}
	n := period * days
	rng := rand.New(rand.NewSource(seed))
	series := make([]float64, n)
	for i := range series {
		base := 100 * (1 + 0.6*math.Sin(2*math.Pi*float64(i)/float64(period)))
		series[i] = math.Max(0, base+rng.NormFloat64()*noise)
	}

	models := []struct {
		name string
		fc   forecast.Forecaster
	}{
		{"holt-winters", forecast.NewHoltWinters(0.3, 0.05, 0.3, period)},
		{"ses", forecast.NewSES(0.3)},
		{"des", forecast.NewDES(0.3, 0.1)},
	}
	warm := 5 * period
	var out []ForecastScore
	for _, m := range models {
		var preds, actuals []float64
		for i, v := range series {
			if i > warm {
				preds = append(preds, m.fc.Forecast(1)[0])
				actuals = append(actuals, v)
			}
			m.fc.Observe(v)
		}
		out = append(out, ForecastScore{
			Model: m.name,
			RMSE:  forecast.RMSE(preds, actuals),
			MAPE:  forecast.MAPE(preds, actuals),
		})
	}
	return out
}

// PrintForecastAblation renders the accuracy table.
func PrintForecastAblation(w io.Writer, rows []ForecastScore) {
	fmt.Fprintln(w, "# A2: one-step forecast accuracy on diurnal traffic")
	fmt.Fprintln(w, "model\trmse\tmape")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.2f\t%.3f\n", r.Model, r.RMSE, r.MAPE)
	}
}
