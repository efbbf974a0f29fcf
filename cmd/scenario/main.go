// Command scenario drives the declarative workload engine from the command
// line: list the built-in archetypes, run one under a seed, fan a
// multi-seed sweep out over the machine, or hunt the seed space for
// closed-loop yield regressions against the static baseline.
//
// Usage:
//
//	scenario list
//	scenario run   -name flash-crowd -seed 42 [-epochs 48] [-tenants 12] [-algo benders] [-cold] [-trace demand.json]
//	scenario sweep -name sla-mix -seeds 8 [-workers 0] [-algo benders]
//	scenario hunt  -name heavy-tail -seeds 16 [-seed 1] [-workers 0] [-out hit.json]
//	scenario hunt  -replay docs/reproducers/heavy-tail-ci.json
//
// Every archetype is runnable with any seed; identical (scenario, seed)
// invocations print identical traces at any worker count.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/traffic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scenario: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "list":
		list()
	case "run":
		run(os.Args[2:])
	case "sweep":
		sweep(os.Args[2:])
	case "hunt":
		hunt(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: scenario <list|run|sweep|hunt> [flags]")
	os.Exit(2)
}

// applyTrace reads a recorded demand file and makes every class replay it.
func applyTrace(spec scenario.Spec, path string) scenario.Spec {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	tf, err := traffic.DecodeTrace(data)
	if err != nil {
		log.Fatal(err)
	}
	return scenario.WithTrace(spec, tf)
}

func list() {
	fmt.Println("name\ttopology\ttenants\tepochs\tarrivals\tdescription")
	for _, s := range scenario.Archetypes() {
		fmt.Printf("%s\t%s(%d)\t%d\t%d\t%s\t%s\n",
			s.Name, s.Topology, s.NBS, s.Tenants, s.Epochs, s.Arrivals.Kind, s.Description)
	}
}

// specFlags applies the shared overrides and resolves the archetype.
func specFlags(fs *flag.FlagSet, args []string) (scenario.Spec, *flag.FlagSet) {
	name := fs.String("name", "homogeneous", "archetype name (see `scenario list`)")
	epochs := fs.Int("epochs", 0, "override the archetype's epoch count")
	tenants := fs.Int("tenants", 0, "override the archetype's tenant count")
	nbs := fs.Int("nbs", -1, "override the topology scale (0 = full size)")
	algo := fs.String("algo", "", "override the solver: direct | benders | kac | no-overbooking")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	spec, err := scenario.ByName(*name)
	if err != nil {
		log.Fatal(err)
	}
	if *epochs > 0 {
		spec.Epochs = *epochs
	}
	if *tenants > 0 {
		spec.Tenants = *tenants
	}
	if *nbs >= 0 {
		spec.NBS = *nbs
	}
	if *algo != "" {
		spec.Algorithm = *algo
	}
	return spec, fs
}

func run(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	seed := fs.Int64("seed", 42, "scenario RNG seed")
	cold := fs.Bool("cold", false, "disable cross-epoch solver state (identical decisions, slower)")
	trace := fs.String("trace", "", "replay a recorded demand file (JSON/CSV) as every class's load")
	spec, _ := specFlags(fs, args)
	if *trace != "" {
		spec = applyTrace(spec, *trace)
	}

	cfg, err := spec.Compile(*seed)
	if err != nil {
		log.Fatal(err)
	}
	cfg.ColdSolver = *cold
	res, err := sim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("# scenario %s seed=%d topology=%s slices=%d algo=%s\n",
		spec.Name, *seed, spec.Topology, len(cfg.Slices), cfg.Algorithm)
	fmt.Println("epoch\taccepted\trevenue\texpected\tviolations\tdeficit_cost")
	for _, es := range res.Epochs {
		fmt.Printf("%d\t%d\t%.3f\t%.3f\t%d/%d\t%.2f\n",
			es.Epoch, es.Accepted, es.Revenue, es.ExpectedRevenue, es.Violations, es.Samples, es.DeficitCost)
	}
	fmt.Printf("# total=%.3f steady_mean=%.3f violation_prob=%.6f mean_drop=%.4f\n",
		res.TotalRevenue, res.MeanRevenue, res.ViolationProb, res.MeanDrop)
}

func sweep(args []string) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	seeds := fs.Int("seeds", 8, "number of seeds (0..n-1 offsets from -seed)")
	seed := fs.Int64("seed", 42, "base seed")
	workers := fs.Int("workers", 0, "worker pool bound (0 = GOMAXPROCS, 1 = serial)")
	spec, _ := specFlags(fs, args)

	ss := make([]int64, *seeds)
	for i := range ss {
		ss[i] = *seed + int64(i)
	}
	results, err := scenario.Sweep(spec, ss, *workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("# scenario %s, %d seeds, algo=%s\n", spec.Name, len(ss), spec.Algorithm)
	fmt.Println("seed\tsteady_mean\ttotal\tviolation_prob")
	var means []float64
	for i, r := range results {
		fmt.Printf("%d\t%.3f\t%.3f\t%.6f\n", ss[i], r.MeanRevenue, r.TotalRevenue, r.ViolationProb)
		means = append(means, r.MeanRevenue)
	}
	mean, se := meanStderr(means)
	fmt.Printf("# steady_mean over seeds: %.3f ± %.3f (stderr)\n", mean, se)
}

// hunt sweeps seeds comparing closed-loop vs static-reservation yield on
// identical worlds, reporting every seed where the closed loop loses. With
// -out, the first hit is written as a reproducer file; with -replay, a
// committed reproducer re-runs both arms and the process fails unless the
// regression still reproduces (the CI determinism check).
func hunt(args []string) {
	fs := flag.NewFlagSet("hunt", flag.ExitOnError)
	replay := fs.String("replay", "", "re-run a committed reproducer file and require the regression to reproduce")
	seeds := fs.Int("seeds", 16, "number of seeds to sweep (offsets from -seed)")
	seed := fs.Int64("seed", 1, "base seed")
	workers := fs.Int("workers", 0, "worker pool bound (0 = GOMAXPROCS, 1 = serial)")
	out := fs.String("out", "", "write the first regression hit as a reproducer JSON file")
	// -replay short-circuits the archetype flags, so peek before specFlags.
	if len(args) > 0 && (args[0] == "-replay" || args[0] == "--replay") {
		if err := fs.Parse(args); err != nil {
			os.Exit(2)
		}
		replayReproducer(*replay)
		return
	}
	spec, _ := specFlags(fs, args)

	results, err := scenario.Hunt(spec, *seed, *seeds, *workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("# scenario hunt %s, seeds [%d,%d), closed-loop vs static baseline\n",
		spec.Name, *seed, *seed+int64(*seeds))
	fmt.Println("seed\tclosed\tstatic\tregression")
	hits := 0
	var first *scenario.HuntResult
	for i := range results {
		r := results[i]
		mark := ""
		if r.Regressed() {
			hits++
			mark = "\tREGRESSED"
			if first == nil {
				first = &results[i]
			}
		}
		fmt.Printf("%d\t%.3f\t%.3f\t%.3f%s\n", r.Seed, r.Closed, r.Static, r.Regression, mark)
	}
	fmt.Printf("# %d/%d seeds regressed\n", hits, len(results))
	if first != nil && *out != "" {
		data, err := scenario.EncodeReproducer(scenario.Reproducer{Spec: spec, Seed: first.Seed, Hit: *first})
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("# reproducer written to %s (seed %d)\n", *out, first.Seed)
	}
}

func replayReproducer(path string) {
	if path == "" {
		log.Fatal("hunt -replay needs a reproducer file")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := scenario.DecodeReproducer(data)
	if err != nil {
		log.Fatal(err)
	}
	got, err := rep.Replay()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("# reproducer %s: spec=%s seed=%d\n", path, rep.Spec.Name, rep.Seed)
	fmt.Printf("committed: closed=%.3f static=%.3f regression=%.3f\n", rep.Hit.Closed, rep.Hit.Static, rep.Hit.Regression)
	fmt.Printf("replayed:  closed=%.3f static=%.3f regression=%.3f\n", got.Closed, got.Static, got.Regression)
	if !got.Regressed() {
		log.Fatalf("regression no longer reproduces (regression %.3f <= 0)", got.Regression)
	}
	fmt.Println("# regression reproduced")
}

// meanStderr returns the sample mean and its standard error — the paper's
// §4.3 stopping rule reports results once this stderr is small.
func meanStderr(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	ss := 0.0
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1) / float64(len(xs)))
}
