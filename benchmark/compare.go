package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Verdicts of `compare`, per (metric, workload).
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares candidate b against baseline a on one end-to-end metric.
// The tolerance is the metric's bound, relative to the baseline median, but
// never less than its absolute floor. A median that moved by more than the
// tolerance is better or worse; but where either side's own quartile spread
// is wider than the tolerance the runs cannot carry that verdict, and the
// metric is unresolved — unless every run of one side beats every run of the
// other, which no amount of spread explains away.
func judge(d metricDef, a, b *spread) string {
	sign := 1.0 // positive delta = worse
	if d.Better == "higher" {
		sign = -1
	}
	delta := sign * (b.Median - a.Median)
	tol := d.Bound * abs(a.Median)
	if tol < d.Floor {
		tol = d.Floor
	}
	noisy := a.Q3-a.Q1 > tol || b.Q3-b.Q1 > tol
	switch {
	case delta > tol:
		if noisy && !separated(sign, a.Values, b.Values) {
			return verdictUnresolved
		}
		return verdictWorse
	case delta < -tol:
		if noisy && !separated(-sign, a.Values, b.Values) {
			return verdictUnresolved
		}
		return verdictBetter
	case noisy:
		return verdictUnresolved
	}
	return verdictSame
}

// separated reports whether every b value is worse than every a value, worse
// meaning larger when sign is +1 and smaller when it is -1.
func separated(sign float64, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	worstA, bestB := sign*a[0], sign*b[0]
	for _, v := range a {
		worstA = max(worstA, sign*v)
	}
	for _, v := range b {
		bestB = min(bestB, sign*v)
	}
	return bestB > worstA
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// compareSets judges candidate against baseline and returns the printed rows
// and whether the candidate regressed: a worse metric, a higher failed share,
// or different decisions under the same parameters.
func compareSets(base, cand *resultSet) (rows []string, regressed bool) {
	names := make([]string, 0, len(base.Workloads))
	for name := range base.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	sameInputs := base.Seed == cand.Seed && base.Seconds == cand.Seconds
	for _, name := range names {
		a, b := base.Workloads[name], cand.Workloads[name]
		if b == nil {
			rows = append(rows, fmt.Sprintf("%-15s missing from the candidate set", name))
			regressed = true
			continue
		}
		if sameInputs && a.Fingerprint != b.Fingerprint {
			rows = append(rows, fmt.Sprintf("%-15s decisions differ: fingerprint %s vs %s — the two sets did not time the same work", name, a.Fingerprint, b.Fingerprint))
			regressed = true
		}
		fa, fb := float64(a.Failed)/float64(max(a.Attempted, 1)), float64(b.Failed)/float64(max(b.Attempted, 1))
		if fb > fa {
			rows = append(rows, fmt.Sprintf("%-15s failed_share rose from %.4g to %.4g", name, fa, fb))
			regressed = true
		}
		for _, d := range endToEnd {
			sa, sb := a.EndToEnd[d.Name], b.EndToEnd[d.Name]
			if sa == nil || sb == nil {
				continue
			}
			v := judge(d, sa, sb)
			if v == verdictWorse {
				regressed = true
			}
			change := 0.0
			if sa.Median != 0 {
				change = 100 * (sb.Median - sa.Median) / abs(sa.Median)
			}
			rows = append(rows, fmt.Sprintf("%-15s %-20s %-10s %12.6g -> %12.6g %-4s (%+6.1f%%, bound %2.0f%%, IQR %.3g / %.3g)",
				name, d.Name, v, sa.Median, sb.Median, d.Unit, change, 100*d.Bound, sa.Q3-sa.Q1, sb.Q3-sb.Q1))
		}
	}
	return rows, regressed
}

// cmdCompare judges result set B against result set A.
func cmdCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	base, err := readSet(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	cand, err := readSet(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	rows, regressed := compareSets(base, cand)
	for _, r := range rows {
		fmt.Println(r)
	}
	if regressed {
		fmt.Println("verdict: REGRESSED")
		return 1
	}
	fmt.Println("verdict: ok (no metric worse beyond its bound; unresolved rows need more runs)")
	return 0
}
