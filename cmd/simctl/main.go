// Command simctl regenerates the paper's simulation artifacts (Table 1,
// Fig. 4, Fig. 5, Fig. 6, the ablations and the §5 testbed day of Fig. 8)
// from the command line.
//
// Usage:
//
//	simctl -experiment fig5 [-nbs 4] [-tenants 10] [-epochs 16] [-algo direct]
//	simctl -experiment fig4 -full        # Fig. 4 on the full 198/197/200-BS topologies
//	simctl -experiment fig8 [-epochs 18] [-algo direct] [-seed 7]
//	simctl -experiment all               # every artifact back to back
//
// Output is tab-separated, one block per figure panel, suitable for
// gnuplot or a spreadsheet. EXPERIMENTS.md lists the measured runtime of
// every invocation; the exact solver on the default fig5 and fig6 grids
// runs about 1.5 and 1 min on two cores — -algo kac takes about half that.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("simctl: ")

	var (
		experiment = flag.String("experiment", "all", "table1 | fig4 | fig5 | fig6 | fig8 | sla | scaling | forecast | all")
		nbs        = flag.Int("nbs", 4, "BS count for scaled operator topologies")
		tenants    = flag.Int("tenants", 8, "slice requests per scenario")
		epochs     = flag.Int("epochs", 16, "decision epochs per run (fig8: 18, the emulated day)")
		algoName   = flag.String("algo", "direct", "overbooking solver: direct | benders | kac")
		full       = flag.Bool("full", false, "fig4 only: use the full published topology sizes")
		seed       = flag.Int64("seed", 42, "base RNG seed (fig8: 7)")
	)
	flag.Parse()

	if err := checkFull(*experiment, *full); err != nil {
		log.Print(err)
		os.Exit(2)
	}
	algo := *algoName
	if _, err := core.NewSolver(algo, core.BendersOptions{}); err != nil {
		log.Fatal(err)
	}
	fig4BS := *nbs
	if *full {
		fig4BS = 0 // topology.Romanian/Swiss/Italian build their published size at 0
	}

	run := func(name string) {
		switch name {
		case "table1":
			experiments.PrintTable1(os.Stdout)
		case "fig4":
			experiments.PrintFig4(os.Stdout, experiments.Fig4(fig4BS, 8, 21))
		case "fig5":
			pts, err := experiments.Fig5(experiments.Fig5Config{
				NBS: *nbs, Tenants: *tenants, Epochs: *epochs,
				Algorithm: algo, Seed: *seed,
			})
			if err != nil {
				log.Fatal(err)
			}
			experiments.PrintFig5(os.Stdout, pts)
		case "fig6":
			pts, err := experiments.Fig6(experiments.Fig6Config{
				NBS: *nbs, Tenants: *tenants, Epochs: *epochs,
				Algorithm: algo, Seed: *seed,
			})
			if err != nil {
				log.Fatal(err)
			}
			experiments.PrintFig6(os.Stdout, pts)
		case "fig8":
			// The §5 proof of concept: nine heterogeneous requests arriving
			// every two epochs on the emulated 2-BS / 2-CU testbed, once
			// with overbooking and once with the no-overbooking baseline.
			// The day has its own defaults unless the flags were given.
			day := experiments.Fig8Config{Algorithm: algo, Epochs: 18, Seed: 7}
			flag.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "epochs":
					day.Epochs = *epochs
				case "seed":
					day.Seed = *seed
				}
			})
			ours, err := experiments.Fig8(day)
			if err != nil {
				log.Fatal(err)
			}
			day.Algorithm = "no-overbooking"
			baseline, err := experiments.Fig8(day)
			if err != nil {
				log.Fatal(err)
			}
			experiments.PrintFig8(os.Stdout, ours, baseline)
		case "sla":
			rows, err := experiments.SLAViolationStudy(*nbs, *tenants, 2**epochs, *seed)
			if err != nil {
				log.Fatal(err)
			}
			experiments.PrintSLAStudy(os.Stdout, rows)
		case "scaling":
			rows, err := experiments.SolverScaling(nil, *seed)
			if err != nil {
				log.Fatal(err)
			}
			experiments.PrintSolverScaling(os.Stdout, rows)
		case "forecast":
			experiments.PrintForecastAblation(os.Stdout, experiments.ForecastAblation(24, 20, 5, *seed))
		default:
			log.Fatalf("unknown experiment %q", name)
		}
	}

	if *experiment == "all" {
		for _, name := range []string{"table1", "fig4", "fig5", "fig6", "fig8", "sla", "scaling", "forecast"} {
			fmt.Println()
			run(name)
		}
		return
	}
	run(*experiment)
}

// checkFull refuses -full where it cannot mean the published size: the
// Fig. 5/6 sweeps do not fit at 197–200 BSs with any solver yet, so -full
// applies to fig4 alone.
func checkFull(experiment string, full bool) error {
	if !full {
		return nil
	}
	switch experiment {
	case "fig5", "fig6", "all":
		return fmt.Errorf("-full applies to fig4 only: Fig. 5/6 at the published 197–200-BS sizes do not fit yet (ROADMAP item 14)")
	}
	return nil
}
