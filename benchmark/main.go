// Command benchmark is the repository's end-to-end benchmark: six pinned
// workloads drive the admission stack from the outside, exactly as a tenant
// or an operator's epoch loop would, and report seven end-to-end metrics per
// workload plus a per-layer budget measured on a separate traced pass.
// README.md in this directory is the manual; BENCHMARK.json at the repository
// root is the contract the CI driver reads.
//
// Usage:
//
//	go run ./benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	go run ./benchmark run [-seed 1] [-seconds 10] [-reps 3] [-trace] [-workload name] [-out file]
//	go run ./benchmark compare A.json B.json
//	go run ./benchmark vet [-from 0] [-to 256]
//	go run ./benchmark spec > BENCHMARK.json
//
// The first form is one pass of one workload, for the driver: the last line
// of standard output is one JSON object {correct, attempted, failed,
// metrics}. `run` executes every workload in one process, prints every metric
// by name with unit, quartiles and sample counts, checks fingerprints and
// writes a result set; `compare` judges two result sets; `vet` rebuilds the
// excluded-seed lists in pools.go; `spec` prints BENCHMARK.json from the tables
// in this package.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one pinned input set. why is the one line BENCHMARK.json
// carries.
type workload struct {
	name string
	why  string
	run  func(p *pass) error
	// roundTail and decisionTail are the workload's tail percentiles: the
	// highest of p99/p95/p90 that leaves some two hundred samples beyond it
	// at full size, p75 where the samples are too few for that. Two sit in
	// the middle of a slow population instead of on its edge: metro-cold's
	// p97 round is the median cold batch round (one round in seventeen is
	// cold), crash-recover's p85 decision the median long restart (one
	// cycle in three).
	roundTail, decisionTail float64
	// segments, when above 1, reports each percentile and the rate as the
	// median over that many consecutive stretches of the pass, which keeps a
	// burst of slow fsyncs out of the number.
	segments int
}

var workloads = []*workload{
	{"steady-drift", "only forecasts move, so the warm BendersSession/SolveFrom path does all the work; WAL, cluster, REST and cold solves do none", runSteadyDrift, 0.99, 0.99, 1},
	{"arrival-churn", "every arrival, expiry and topology event changes the solver's shape, so those rounds rebuild cold; single arrivals set the median decision, spike batches the tails", runArrivalChurn, 0.95, 0.90, 1},
	{"metro-cold", "the same cold path but LP-size-bound (24-BS pod, dense tableau, LU refactor); two pods in flight show domain overlap or its absence", runMetroCold, 0.97, 0.75, 1},
	{"online-durable", "tiny solves behind a real fsync: append, sync and batch wait dominate; the only workload that builds a queue (open-loop phase)", runOnlineDurable, 0.95, 0.95, 10},
	{"crash-recover", "the same engine and WAL read back: open, replay and cold re-warm after a kill; guards recovery against commit-path speed-ups", runCrashRecover, 0.75, 0.85, 1},
	{"rest-stack", "the ovnes HA deployment over HTTP: JSON, hops, controller programming and wire RTT dominate a 0.3 ms solve; bypasses every solver optimisation", runRestStack, 0.90, 0.90, 1},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// outDir is where passes keep scratch data and write traces and result
// sets; it is inside the benchmark's own directory and git-ignored. A variable
// so that the tests can point it at a temporary directory.
var outDir = "benchmark/out"

// runPass executes one pass of w and returns its report.
func runPass(w *workload, seed int64, seconds float64, traced bool) (*passResult, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	runtime.GC()
	p := newPass(w, seed, seconds, traced, dir)
	defer p.close()
	if traced {
		p.counts["proc.fsync_probe_us"] = fsyncProbe(dir)
	}
	werr := w.run(p)
	if traced {
		replayLayers(p, p.replay, time.Duration(seconds*0.3*float64(time.Second)))
		tree, terr := resolve(p.tr.spans)
		if terr != nil {
			p.violate("trace: %v", terr)
		} else {
			p.fromTree(tree)
			if err := writeTrace(outDir, w.name, seed, tree); err != nil {
				return nil, err
			}
		}
		res := p.finish(werr)
		if tree != nil {
			res.Budget = tree.budget()
		}
		return res, nil
	}
	return p.finish(werr), nil
}

// fromTree fills the per-layer series that are defined on the span tree: a
// round's self time (round minus its log and solve children — in a closed-
// loop step, its non-solve time) and the HTTP overhead of an epoch (what the
// client saw minus what the handler spent).
func (p *pass) fromTree(t *spanTree) {
	for i, s := range t.spans {
		switch s.Name {
		case "round":
			p.series["admission.self_ms"] = append(p.series["admission.self_ms"], float64(t.self[i])/1e6)
			p.series["reopt.nonsolve_us"] = append(p.series["reopt.nonsolve_us"], float64(t.self[i])/1e3)
		case "ctrlplane.post_epoch":
			if pi := t.parent[i]; pi >= 0 {
				client := t.spans[pi].End - t.spans[pi].Start
				p.series["ctrlplane.http_overhead_ms"] = append(p.series["ctrlplane.http_overhead_ms"], float64(client-(s.End-s.Start))/1e6)
			}
		}
	}
}

func main() {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "run":
			os.Exit(cmdRun(os.Args[2:]))
		case "compare":
			os.Exit(cmdCompare(os.Args[2:]))
		case "vet":
			os.Exit(cmdVet(os.Args[2:]))
		case "spec":
			os.Exit(cmdSpec())
		}
	}
	os.Exit(cmdDriver(os.Args[1:]))
}

// cmdDriver is the driver's entry point: one pass, one JSON line.
func cmdDriver(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", runSeconds, "nominal measuring time; unit counts scale with it")
	trace := fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be positive")
		return 2
	}
	var calib *passResult
	if *trace != 0 {
		// The tracing overhead needs an untraced reference in the same
		// process: the first quarter of the same units, untraced.
		var err error
		if calib, err = runPass(w, *seed, *seconds/4, false); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	res, err := runPass(w, *seed, *seconds, *trace != 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if calib != nil {
		setOverhead(res, calib)
	}
	checkPinned(res)
	for _, v := range res.Violations {
		fmt.Fprintln(os.Stderr, "benchmark:", v)
	}
	out, err := json.Marshal(map[string]interface{}{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": res.Metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// setOverhead fills proc.trace_overhead_share on a traced result: the traced
// pass's timed wall over the units the untraced reference also ran, divided
// by the reference's, minus one.
func setOverhead(traced, ref *passResult) {
	k := len(ref.UnitAtS)
	if k == 0 || len(traced.UnitAtS) < k || ref.UnitAtS[k-1] <= 0 {
		return
	}
	m := traced.Metrics["proc.trace_overhead_share"]
	m.Value = traced.UnitAtS[k-1]/ref.UnitAtS[k-1] - 1
	traced.Metrics["proc.trace_overhead_share"] = m
}

// resultSet is what `run` writes and `compare` reads.
type resultSet struct {
	Seed      int64                 `json:"seed"`
	Seconds   float64               `json:"seconds"`
	GoVersion string                `json:"go_version"`
	NumCPU    int                   `json:"num_cpu"`
	Workloads map[string]*wlSummary `json:"workloads"`
}

// wlSummary is one workload's reported values: per metric the median over
// the untraced repetitions with quartiles, plus the traced pass.
type wlSummary struct {
	Fingerprint string             `json:"fingerprint"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Rounds      int                `json:"round_samples"`
	Decisions   int                `json:"decision_samples"`
	EndToEnd    map[string]*spread `json:"end_to_end"`
	PerLayer    map[string]metric  `json:"per_layer,omitempty"`
	Budget      []layerTime        `json:"budget,omitempty"`
	Runs        []*passResult      `json:"runs"`
}

// spread is a metric over repetitions.
type spread struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
