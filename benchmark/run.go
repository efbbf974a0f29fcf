package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// pinnedJSON holds the decision fingerprints of the default run (seed and
// seconds as recorded in the file). A pass with those parameters must
// reproduce them: that is what makes two measurements comparable — they
// provably timed the same decisions. Rewrite with `benchmark run -pin` after
// a change that legitimately moves a decision.
//
//go:embed fingerprints.json
var pinnedJSON []byte

type pinnedSet struct {
	Seed         int64             `json:"seed"`
	Seconds      float64           `json:"seconds"`
	Fingerprints map[string]string `json:"fingerprints"`
}

func pinned() pinnedSet {
	var ps pinnedSet
	_ = json.Unmarshal(pinnedJSON, &ps) // an unreadable file pins nothing; the smoke test checks it parses
	return ps
}

// checkPinned marks a result incorrect when it ran the pinned parameters and
// decided differently.
func checkPinned(res *passResult) {
	ps := pinned()
	want, ok := ps.Fingerprints[res.Workload]
	if !ok || res.Seed != ps.Seed || res.Seconds != ps.Seconds || res.Truncated {
		return
	}
	if res.Fingerprint != want {
		res.Violations = append(res.Violations, fmt.Sprintf("%s: decision fingerprint %s, pinned %s", res.Workload, res.Fingerprint, want))
		res.Correct = false
		res.Failed = max(res.Attempted, 1)
	}
}

// cmdRun runs every workload in this process and reports everything.
func cmdRun(args []string) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", runSeconds, "nominal measuring time per pass")
	reps := fs.Int("reps", 3, "untraced repetitions per workload; reported values are their median")
	trace := fs.Bool("trace", false, "add the traced pass: per-layer metrics, layer budget, trace files")
	only := fs.String("workload", "", "run one workload only")
	out := fs.String("out", filepath.Join(outDir, "results.json"), "result set to write")
	pin := fs.Bool("pin", false, "rewrite benchmark/fingerprints.json from this run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *reps < 1 {
		*reps = 1
	}
	set := &resultSet{Seed: *seed, Seconds: *seconds, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		Workloads: map[string]*wlSummary{}}
	ok := true
	for _, w := range workloads {
		if *only != "" && *only != w.name {
			continue
		}
		sum := &wlSummary{EndToEnd: map[string]*spread{}}
		set.Workloads[w.name] = sum
		for r := 0; r < *reps; r++ {
			res, err := runPass(w, *seed, *seconds, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if !*pin {
				checkPinned(res)
			}
			if r > 0 && res.Fingerprint != sum.Runs[0].Fingerprint {
				res.Correct = false
				res.Violations = append(res.Violations, fmt.Sprintf("repetition %d decided %s, repetition 0 decided %s", r, res.Fingerprint, sum.Runs[0].Fingerprint))
			}
			sum.Runs = append(sum.Runs, res)
		}
		first := sum.Runs[0]
		sum.Fingerprint, sum.Rounds, sum.Decisions = first.Fingerprint, first.Rounds, first.Decisions
		for _, res := range sum.Runs {
			sum.Attempted += res.Attempted
			sum.Failed += res.Failed
		}
		for _, d := range endToEnd {
			sp := &spread{Unit: d.Unit}
			for _, res := range sum.Runs {
				sp.Values = append(sp.Values, res.Metrics[d.Name].Value)
			}
			sp.Q1, sp.Median, sp.Q3 = quartiles(sp.Values)
			sum.EndToEnd[d.Name] = sp
		}
		var traced *passResult
		if *trace {
			var err error
			if traced, err = runPass(w, *seed, *seconds, true); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if traced.Fingerprint != sum.Fingerprint {
				traced.Correct = false
				traced.Violations = append(traced.Violations, fmt.Sprintf("traced pass decided %s, untraced %s: a seam moved a decision", traced.Fingerprint, sum.Fingerprint))
			}
			var walls []float64
			for _, res := range sum.Runs {
				walls = append(walls, res.TimedS)
			}
			if ref := median(walls); ref > 0 {
				traced.Metrics["proc.trace_overhead_share"] = metric{Value: traced.TimedS/ref - 1, Unit: "ratio"}
			}
			sum.PerLayer, sum.Budget = traced.Metrics, traced.Budget
			sum.Runs = append(sum.Runs, traced)
		}
		for _, res := range sum.Runs {
			ok = ok && res.Correct
		}
		printSummary(w, sum, traced)
	}
	if err := writeJSON(*out, set); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("\nresult set written to %s\n", *out)
	if *pin {
		ps := pinnedSet{Seed: *seed, Seconds: *seconds, Fingerprints: map[string]string{}}
		for name, sum := range set.Workloads {
			ps.Fingerprints[name] = sum.Fingerprint
		}
		if err := writeJSON("benchmark/fingerprints.json", ps); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Println("fingerprints pinned in benchmark/fingerprints.json")
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: at least one pass was incorrect or had failed operations")
		return 1
	}
	return 0
}

func printSummary(w *workload, sum *wlSummary, traced *passResult) {
	fmt.Printf("\n== %s — %s\n", w.name, w.why)
	fmt.Printf("fingerprint %s · %d round samples, %d decision samples per pass · failed %d of %d operations\n",
		sum.Fingerprint, sum.Rounds, sum.Decisions, sum.Failed, sum.Attempted)
	for _, res := range sum.Runs {
		for _, v := range res.Violations {
			fmt.Printf("  VIOLATION: %s\n", v)
		}
		if res.Truncated {
			fmt.Printf("  NOTE: a pass stopped early on its time budget\n")
		}
	}
	fmt.Printf("  %-24s %14s %-5s %14s %14s  %s\n", "end-to-end", "median", "unit", "q1", "q3", "n")
	for _, d := range endToEnd {
		sp := sum.EndToEnd[d.Name]
		fmt.Printf("  %-24s %14.6g %-5s %14.6g %14.6g  %d\n", d.Name, sp.Median, sp.Unit, sp.Q1, sp.Q3, len(sp.Values))
	}
	if traced == nil {
		return
	}
	fmt.Printf("  %-40s %14s %s\n", "per-layer (traced pass)", "value", "unit")
	for _, d := range perLayer {
		m := traced.Metrics[d.Name]
		fmt.Printf("  %-40s %14.6g %s\n", d.Name, m.Value, m.Unit)
	}
	fmt.Printf("  layer budget — self time as a share of all `round` time:\n")
	roundMs := 0.0
	for _, lt := range traced.Budget {
		if lt.Name == "round" {
			roundMs = lt.TotalMs
		}
	}
	rows := append([]layerTime(nil), traced.Budget...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMs > rows[j].SelfMs })
	for _, lt := range rows {
		name := lt.Name
		if name == "round" {
			name = "round (self = admission.self)"
		}
		share := "     —"
		if roundMs > 0 && lt.RoundSelfMs > 0 {
			share = fmt.Sprintf("%5.1f%%", 100*lt.RoundSelfMs/roundMs)
		}
		fmt.Printf("    %-32s %s  self %10.1f ms  total %10.1f ms  n=%d\n", name, share, lt.SelfMs, lt.TotalMs, lt.Count)
	}
}
