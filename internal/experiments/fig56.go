package experiments

import (
	"fmt"
	"io"

	"repro/internal/parallel"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/slice"
)

// Topology names used across the Fig. 5/6 harnesses.
var TopologyNames = []string{"Romanian", "Swiss", "Italian"}

// sliceTypeByName resolves the Table 1 templates.
func sliceTypeByName(name string) slice.Type {
	ty, err := scenario.SliceTypeByName(name)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return ty
}

// Fig5Config controls the homogeneous-scenario sweep. The defaults are a
// CI-sized subsample of the paper's grid; cmd/simctl exposes the full one.
type Fig5Config struct {
	Topologies []string  // default all three
	SliceTypes []string  // default all three
	Alphas     []float64 // λ̄ = α·Λ; default {0.2, 0.4, 0.6, 0.8}
	SigmaFracs []float64 // σ = frac·λ̄; default {0, 0.25, 0.5}
	Penalties  []float64 // m; default {1, 4, 16}
	Tenants    int       // requests per run; default 10 (75 for Italian in the paper)
	NBS        int       // topology scale; default 4 (0 = full size)
	Epochs     int       // default 16
	KPaths     int       // default 2
	Algorithm  string    // sim.Config.Algorithm
	Seed       int64
	// Workers bounds the sweep's worker pool; 0 means GOMAXPROCS, 1 forces
	// a serial run (the benchmark baseline). Results are identical either
	// way — only wall-clock changes.
	Workers int
}

func (c Fig5Config) withDefaults() Fig5Config {
	if c.Topologies == nil {
		c.Topologies = TopologyNames
	}
	if c.SliceTypes == nil {
		c.SliceTypes = []string{"eMBB", "mMTC", "uRLLC"}
	}
	if c.Alphas == nil {
		c.Alphas = []float64{0.2, 0.4, 0.6, 0.8}
	}
	if c.SigmaFracs == nil {
		c.SigmaFracs = []float64{0, 0.25, 0.5}
	}
	if c.Penalties == nil {
		c.Penalties = []float64{1, 4, 16}
	}
	if c.Tenants == 0 {
		c.Tenants = 10
	}
	if c.NBS == 0 {
		c.NBS = 4
	}
	if c.Epochs == 0 {
		c.Epochs = 16
	}
	if c.KPaths == 0 {
		c.KPaths = 2
	}
	return c
}

// Fig5Point is one plotted point of Fig. 5: the relative net-revenue gain
// of an overbooking solver over the no-overbooking baseline.
type Fig5Point struct {
	Topology  string
	SliceType string
	Alpha     float64
	SigmaFrac float64
	Penalty   float64
	Algorithm string

	Revenue         float64 // steady-state per-epoch net revenue
	BaselineRevenue float64
	GainPct         float64 // 100·(Revenue−Baseline)/Baseline
	ViolationProb   float64
	MeanDrop        float64
}

// homogeneousSpecs builds n identical requests of one type; the population
// construction lives in the scenario engine (scenario.HomogeneousSpecs)
// and is shared with `scenario run`.
func homogeneousSpecs(ty slice.Type, n int, alpha, sigmaFrac, m float64, seed int64) []sim.SliceSpec {
	return scenario.HomogeneousSpecs(ty, n, alpha, sigmaFrac, m, seed)
}

// fig5Combo is one point of the Fig. 5 parameter grid.
type fig5Combo struct {
	topo, ty     string
	alpha, sf, m float64
}

// Fig5 sweeps the homogeneous scenarios and returns one point per
// parameter combination. Combinations are independent simulations (every
// slice carries its own seed), so the sweep fans out over a bounded worker
// pool; results come back in grid order, identical to a serial run.
func Fig5(cfg Fig5Config) ([]Fig5Point, error) {
	cfg = cfg.withDefaults()
	var combos []fig5Combo
	for _, topoName := range cfg.Topologies {
		for _, tyName := range cfg.SliceTypes {
			for _, alpha := range cfg.Alphas {
				for _, sf := range cfg.SigmaFracs {
					for _, m := range cfg.Penalties {
						combos = append(combos, fig5Combo{topoName, tyName, alpha, sf, m})
					}
				}
			}
		}
	}
	return parallel.Map(len(combos), cfg.Workers, func(i int) (Fig5Point, error) {
		c := combos[i]
		// Each worker builds its own topology: construction is cheap and
		// deterministic, and it keeps workers free of shared state.
		net, err := scenario.BuildTopology(c.topo, cfg.NBS)
		if err != nil {
			return Fig5Point{}, fmt.Errorf("fig5: %w", err)
		}
		specs := homogeneousSpecs(sliceTypeByName(c.ty), cfg.Tenants, c.alpha, c.sf, c.m, cfg.Seed)
		runCfg := sim.Config{
			Net: net, Epochs: cfg.Epochs, Slices: specs,
			KPaths: cfg.KPaths, ReofferPending: true,
		}
		runCfg.Algorithm = "no-overbooking"
		base, err := sim.Run(runCfg)
		if err != nil {
			return Fig5Point{}, fmt.Errorf("fig5 baseline %s/%s: %w", c.topo, c.ty, err)
		}
		runCfg.Algorithm = cfg.Algorithm
		over, err := sim.Run(runCfg)
		if err != nil {
			return Fig5Point{}, fmt.Errorf("fig5 %s/%s: %w", c.topo, c.ty, err)
		}
		gain := 0.0
		if base.MeanRevenue > 1e-9 {
			gain = 100 * (over.MeanRevenue - base.MeanRevenue) / base.MeanRevenue
		}
		return Fig5Point{
			Topology: c.topo, SliceType: c.ty,
			Alpha: c.alpha, SigmaFrac: c.sf, Penalty: c.m,
			Algorithm:       over.Config.Algorithm,
			Revenue:         over.MeanRevenue,
			BaselineRevenue: base.MeanRevenue,
			GainPct:         gain,
			ViolationProb:   over.ViolationProb,
			MeanDrop:        over.MeanDrop,
		}, nil
	})
}

// PrintFig5 renders the sweep as tab-separated rows.
func PrintFig5(w io.Writer, pts []Fig5Point) {
	fmt.Fprintln(w, "# Fig. 5: relative net revenue gain over no-overbooking (homogeneous slices)")
	fmt.Fprintln(w, "topology\tslice\talpha\tsigma_frac\tpenalty_m\talgo\trevenue\tbaseline\tgain_pct\tviolation_prob")
	for _, p := range pts {
		fmt.Fprintf(w, "%s\t%s\t%.2f\t%.2f\t%.0f\t%s\t%.3f\t%.3f\t%.1f\t%.6f\n",
			p.Topology, p.SliceType, p.Alpha, p.SigmaFrac, p.Penalty,
			p.Algorithm, p.Revenue, p.BaselineRevenue, p.GainPct, p.ViolationProb)
	}
}

// Fig6Config controls the heterogeneous-mix sweep (Fig. 6): λ̄ = 0.2Λ and
// the mix fraction β varies.
type Fig6Config struct {
	Topologies []string
	Mixes      [][2]string // slice-type pairs; β% of the second type
	Betas      []float64   // percent of the second type; default {0, 25, 50, 75, 100}
	SigmaFrac  float64     // default 0.25
	Penalty    float64     // default 1
	Tenants    int         // default 10
	NBS        int         // default 4
	Epochs     int         // default 16
	KPaths     int
	Algorithm  string // sim.Config.Algorithm
	Seed       int64
	// Workers bounds the sweep's worker pool; see Fig5Config.Workers.
	Workers int
}

func (c Fig6Config) withDefaults() Fig6Config {
	if c.Topologies == nil {
		c.Topologies = TopologyNames
	}
	if c.Mixes == nil {
		c.Mixes = [][2]string{{"eMBB", "mMTC"}, {"eMBB", "uRLLC"}, {"mMTC", "uRLLC"}}
	}
	if c.Betas == nil {
		c.Betas = []float64{0, 25, 50, 75, 100}
	}
	if c.SigmaFrac == 0 {
		c.SigmaFrac = 0.25
	}
	if c.Penalty == 0 {
		c.Penalty = 1
	}
	if c.Tenants == 0 {
		c.Tenants = 10
	}
	if c.NBS == 0 {
		c.NBS = 4
	}
	if c.Epochs == 0 {
		c.Epochs = 16
	}
	if c.KPaths == 0 {
		c.KPaths = 2
	}
	return c
}

// Fig6Point is one point of Fig. 6: absolute net revenue for a mix.
type Fig6Point struct {
	Topology  string
	Mix       string // e.g. "eMBB/mMTC"
	Beta      float64
	Algorithm string

	Revenue         float64
	BaselineRevenue float64
	ViolationProb   float64
}

// fig6Combo is one point of the Fig. 6 grid.
type fig6Combo struct {
	topo string
	mix  [2]string
	beta float64
}

// Fig6 sweeps the heterogeneous scenarios with fixed λ̄ = 0.2Λ, fanned out
// over the worker pool like Fig5, with grid-ordered results.
func Fig6(cfg Fig6Config) ([]Fig6Point, error) {
	cfg = cfg.withDefaults()
	const alpha = 0.2 // §4.3.4 fixes the mean load at 0.2·Λ
	var combos []fig6Combo
	for _, topoName := range cfg.Topologies {
		for _, mix := range cfg.Mixes {
			for _, beta := range cfg.Betas {
				combos = append(combos, fig6Combo{topoName, mix, beta})
			}
		}
	}
	return parallel.Map(len(combos), cfg.Workers, func(i int) (Fig6Point, error) {
		c := combos[i]
		net, err := scenario.BuildTopology(c.topo, cfg.NBS)
		if err != nil {
			return Fig6Point{}, fmt.Errorf("fig6: %w", err)
		}
		tyA, tyB := sliceTypeByName(c.mix[0]), sliceTypeByName(c.mix[1])
		nB := int(float64(cfg.Tenants)*c.beta/100 + 0.5)
		nA := cfg.Tenants - nB
		specs := append(
			homogeneousSpecs(tyA, nA, alpha, cfg.SigmaFrac, cfg.Penalty, cfg.Seed),
			homogeneousSpecs(tyB, nB, alpha, cfg.SigmaFrac, cfg.Penalty, cfg.Seed+1000)...)
		for i := range specs {
			specs[i].Name = fmt.Sprintf("t%d-%s", i, specs[i].Template.Type)
		}
		runCfg := sim.Config{
			Net: net, Epochs: cfg.Epochs, Slices: specs,
			KPaths: cfg.KPaths, ReofferPending: true,
		}
		runCfg.Algorithm = "no-overbooking"
		base, err := sim.Run(runCfg)
		if err != nil {
			return Fig6Point{}, fmt.Errorf("fig6 baseline %s %v: %w", c.topo, c.mix, err)
		}
		runCfg.Algorithm = cfg.Algorithm
		over, err := sim.Run(runCfg)
		if err != nil {
			return Fig6Point{}, fmt.Errorf("fig6 %s %v: %w", c.topo, c.mix, err)
		}
		return Fig6Point{
			Topology: c.topo, Mix: c.mix[0] + "/" + c.mix[1], Beta: c.beta,
			Algorithm:       over.Config.Algorithm,
			Revenue:         over.MeanRevenue,
			BaselineRevenue: base.MeanRevenue,
			ViolationProb:   over.ViolationProb,
		}, nil
	})
}

// PrintFig6 renders the sweep as tab-separated rows.
func PrintFig6(w io.Writer, pts []Fig6Point) {
	fmt.Fprintln(w, "# Fig. 6: net revenue in heterogeneous scenarios (λ̄ = 0.2Λ)")
	fmt.Fprintln(w, "topology\tmix\tbeta_pct\talgo\trevenue\tno_overbooking\tviolation_prob")
	for _, p := range pts {
		fmt.Fprintf(w, "%s\t%s\t%.0f\t%s\t%.3f\t%.3f\t%.6f\n",
			p.Topology, p.Mix, p.Beta, p.Algorithm, p.Revenue, p.BaselineRevenue, p.ViolationProb)
	}
}
