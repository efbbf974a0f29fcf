// Package repro's top-level benchmarks regenerate every table and figure
// of the paper's evaluation (§4.3 and §5). Each benchmark is a thin
// wrapper over internal/experiments; the first iteration prints the
// artifact's rows so that
//
//	go test -bench=. -benchmem
//
// doubles as the reproduction run. CI-sized parameter grids are used here;
// cmd/simctl -full runs the full published scales. The per-experiment
// index mapping benchmarks to paper artifacts lives in DESIGN.md §4, and
// paper-vs-measured outcomes are recorded in EXPERIMENTS.md.
package repro

import (
	"fmt"
	"io"
	"os"
	"sync"
	"testing"

	"repro/internal/experiments"
)

// once guards the printing of each artifact so repeated benchmark
// iterations do not flood the output.
var once sync.Map

func printOnce(key string, print func(w io.Writer)) {
	if _, loaded := once.LoadOrStore(key, true); !loaded {
		fmt.Println()
		print(os.Stdout)
	}
}

// BenchmarkTable1Templates regenerates Table 1 (slice templates).
func BenchmarkTable1Templates(b *testing.B) {
	for b.Loop() {
		rows := experiments.Table1()
		if len(rows) != 3 {
			b.Fatal("Table 1 must have three slice types")
		}
	}
	printOnce("table1", func(w io.Writer) { experiments.PrintTable1(w) })
}

// BenchmarkFig4PathCapacityCDF regenerates Fig. 4(d): per-path bottleneck
// capacity distributions of the three operator networks.
func BenchmarkFig4PathCapacityCDF(b *testing.B) {
	var rows []experiments.Fig4Row
	for b.Loop() {
		rows = experiments.Fig4(60, 8, 11)
	}
	printOnce("fig4", func(w io.Writer) { experiments.PrintFig4(w, rows) })
}

// BenchmarkFig4PathDelayCDF regenerates Fig. 4(e) (the same computation
// viewed on the delay axis; benchmarked separately so the two panels can
// be timed independently).
func BenchmarkFig4PathDelayCDF(b *testing.B) {
	for b.Loop() {
		rows := experiments.Fig4(60, 8, 11)
		for _, r := range rows {
			if len(r.DelayCDF) == 0 {
				b.Fatal("no delay distribution")
			}
		}
	}
}

// fig5BenchConfig is the CI-sized Fig. 5 grid shared by the serial and
// parallel sweep benchmarks.
func fig5BenchConfig(workers int) experiments.Fig5Config {
	return experiments.Fig5Config{
		Topologies: []string{"Romanian", "Swiss", "Italian"},
		SliceTypes: []string{"eMBB", "mMTC", "uRLLC"},
		Alphas:     []float64{0.2, 0.35, 0.5},
		SigmaFracs: []float64{0.25},
		Penalties:  []float64{1, 16},
		Tenants:    9,
		NBS:        3,
		Epochs:     12,
		KPaths:     1,
		Algorithm:  "direct",
		Seed:       42,
		Workers:    workers,
	}
}

// BenchmarkFig5Homogeneous regenerates Fig. 5: relative revenue gain of
// yield-driven overbooking over the no-overbooking baseline across
// homogeneous slice-type scenarios (CI-sized grid), fanned out over the
// GOMAXPROCS-bounded worker pool.
func BenchmarkFig5Homogeneous(b *testing.B) {
	var pts []experiments.Fig5Point
	for b.Loop() {
		var err error
		pts, err = experiments.Fig5(fig5BenchConfig(0))
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("fig5", func(w io.Writer) { experiments.PrintFig5(w, pts) })
}

// BenchmarkFig5HomogeneousSerial runs the identical grid on one worker —
// the pre-pool baseline. The parallel/serial ns/op ratio in CI output is
// the sweep's speedup; the printed rows are bit-identical by construction.
func BenchmarkFig5HomogeneousSerial(b *testing.B) {
	for b.Loop() {
		if _, err := experiments.Fig5(fig5BenchConfig(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Heterogeneous regenerates Fig. 6: absolute net revenue for
// mixed slice-type scenarios at λ̄ = 0.2Λ (CI-sized grid).
func BenchmarkFig6Heterogeneous(b *testing.B) {
	cfg := experiments.Fig6Config{
		Topologies: []string{"Romanian", "Swiss", "Italian"},
		Mixes:      [][2]string{{"eMBB", "mMTC"}, {"eMBB", "uRLLC"}, {"mMTC", "uRLLC"}},
		Betas:      []float64{0, 50, 100},
		Tenants:    9,
		NBS:        3,
		Epochs:     12,
		KPaths:     1,
		Algorithm:  "direct",
		Seed:       42,
	}
	var pts []experiments.Fig6Point
	for b.Loop() {
		var err error
		pts, err = experiments.Fig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("fig6", func(w io.Writer) { experiments.PrintFig6(w, pts) })
}

// BenchmarkFig8Revenue regenerates Fig. 8(a): testbed net revenue over the
// emulated day under both policies.
func BenchmarkFig8Revenue(b *testing.B) {
	var ours, baseline *experiments.Fig8Series
	for b.Loop() {
		var err error
		ours, err = experiments.Fig8(experiments.Fig8Config{Algorithm: "direct", Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		baseline, err = experiments.Fig8(experiments.Fig8Config{Algorithm: "no-overbooking", Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("fig8", func(w io.Writer) { experiments.PrintFig8(w, ours, baseline) })
}

// BenchmarkFig8Utilization regenerates Fig. 8(b)–(d): per-domain
// reservation vs actual utilization series for the same scenario.
func BenchmarkFig8Utilization(b *testing.B) {
	for b.Loop() {
		s, err := experiments.Fig8(experiments.Fig8Config{Algorithm: "direct", Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range s.Epochs {
			if len(e.PRBShare) != 2 || len(e.CPUReserved) != 2 {
				b.Fatal("utilization series malformed")
			}
		}
	}
}

// BenchmarkSLAViolationFootprint reproduces the §4.3.3 sanity numbers:
// overbooking's violation probability and dropped-traffic footprint.
func BenchmarkSLAViolationFootprint(b *testing.B) {
	var rows []experiments.SLAFootprint
	for b.Loop() {
		var err error
		rows, err = experiments.SLAViolationStudy(3, 6, 16, 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("sla", func(w io.Writer) { experiments.PrintSLAStudy(w, rows) })
}

// BenchmarkSolverScaling reproduces the §4.3.3 runtime claim: the exact
// methods slow down combinatorially while KAC stays in heuristic time.
func BenchmarkSolverScaling(b *testing.B) {
	var rows []experiments.SolverTiming
	for b.Loop() {
		var err error
		rows, err = experiments.SolverScaling(nil, 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("scaling", func(w io.Writer) { experiments.PrintSolverScaling(w, rows) })
}

// BenchmarkForecastAccuracy reproduces the §2.2.2 design rationale: on
// seasonal traffic Holt-Winters beats single/double exponential smoothing.
func BenchmarkForecastAccuracy(b *testing.B) {
	var rows []experiments.ForecastScore
	for b.Loop() {
		rows = experiments.ForecastAblation(24, 10, 5, 42)
	}
	printOnce("forecast", func(w io.Writer) { experiments.PrintForecastAblation(w, rows) })
}
