package main

import (
	"strings"
	"testing"
)

func sp(values ...float64) *spread {
	s := &spread{Values: values}
	s.Q1, s.Median, s.Q3 = quartiles(values)
	return s
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "round_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Floor: 0.05}
	higher := metricDef{Name: "decisions_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	cases := []struct {
		name string
		d    metricDef
		a, b *spread
		want string
	}{
		{"within bound", lower, sp(10, 10.1, 10.2), sp(10.5, 10.6, 10.4), verdictSame},
		{"worse beyond bound", lower, sp(10, 10.1, 10.2), sp(12, 12.1, 12.2), verdictWorse},
		{"better beyond bound", lower, sp(10, 10.1, 10.2), sp(8, 8.1, 8.2), verdictBetter},
		{"higher is better: drop is worse", higher, sp(1000, 1010, 1020), sp(800, 810, 820), verdictWorse},
		{"higher is better: rise is better", higher, sp(1000, 1010, 1020), sp(1200, 1210, 1220), verdictBetter},
		{"absolute floor hides a sub-floor move", lower, sp(0.10, 0.10, 0.10), sp(0.14, 0.14, 0.14), verdictSame},
		{"beyond the floor counts", lower, sp(0.10, 0.10, 0.10), sp(0.17, 0.17, 0.17), verdictWorse},
		{"noisy and overlapping: unresolved, not worse", lower, sp(8, 10, 14), sp(9, 12, 15), verdictUnresolved},
		{"noisy but every run worse: worse", lower, sp(8, 10, 12), sp(14, 15, 18), verdictWorse},
		{"noisy but every run better: better", lower, sp(14, 15, 18), sp(8, 10, 12), verdictBetter},
		{"noisy and unchanged: unresolved, not same", lower, sp(8, 10, 14), sp(8, 10.2, 14), verdictUnresolved},
	}
	for _, c := range cases {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func set(fp string, failed int, roundP50 ...float64) *resultSet {
	sum := &wlSummary{Fingerprint: fp, Attempted: 100, Failed: failed, EndToEnd: map[string]*spread{}}
	for _, d := range endToEnd {
		sum.EndToEnd[d.Name] = sp(5, 5, 5)
	}
	sum.EndToEnd["round_p50_ms"] = sp(roundP50...)
	return &resultSet{Seed: 1, Seconds: 10, Workloads: map[string]*wlSummary{"steady-drift": sum}}
}

func TestCompareSets(t *testing.T) {
	cases := []struct {
		name      string
		a, b      *resultSet
		regressed bool
		mention   string
	}{
		{"identical", set("f", 0, 1, 1, 1), set("f", 0, 1, 1, 1), false, "same"},
		{"one metric worse", set("f", 0, 1, 1, 1), set("f", 0, 2, 2, 2), true, "worse"},
		{"better is not a regression", set("f", 0, 2, 2, 2), set("f", 0, 1, 1, 1), false, "better"},
		{"more failures", set("f", 0, 1, 1, 1), set("f", 3, 1, 1, 1), true, "failed_share"},
		{"different decisions", set("f", 0, 1, 1, 1), set("g", 0, 1, 1, 1), true, "decisions differ"},
		{"workload missing", set("f", 0, 1, 1, 1), &resultSet{Seed: 1, Seconds: 10, Workloads: map[string]*wlSummary{}}, true, "missing"},
	}
	for _, c := range cases {
		rows, regressed := compareSets(c.a, c.b)
		if regressed != c.regressed {
			t.Errorf("%s: regressed = %v, want %v", c.name, regressed, c.regressed)
		}
		if !strings.Contains(strings.Join(rows, "\n"), c.mention) {
			t.Errorf("%s: report does not mention %q:\n%s", c.name, c.mention, strings.Join(rows, "\n"))
		}
	}
}

// TestQuartiles pins the exclusive method against values computed with
// Python's statistics.quantiles(n=4), which the driver uses.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(3,1,2) = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func TestResolveRejectsMalformedTrees(t *testing.T) {
	ok := []Span{
		{Name: "round", ID: "w/d/1", Start: 0, End: 1000},
		{Name: "solve", ID: "w/d/1", Parent: "round", Start: 100, End: 600},
		{Name: "core.solve", ID: "w/d/1", Parent: "solve", Start: 100, End: 600},
		{Name: "wal.sync", ID: "w/d/1", Parent: "round", Start: 600, End: 900},
	}
	tree, err := resolve(ok)
	if err != nil {
		t.Fatal(err)
	}
	if tree.self[0] != 200 || tree.self[1] != 0 || tree.self[2] != 500 {
		t.Errorf("self times = %v, want round 200, solve 0, core.solve 500", tree.self)
	}
	bad := map[string][]Span{
		"missing parent":    {{Name: "solve", ID: "w/d/1", Parent: "round", Start: 0, End: 1}},
		"child outside":     {{Name: "round", ID: "x", Start: 0, End: 1000}, {Name: "solve", ID: "x", Parent: "round", Start: 500, End: 9000000}},
		"negative duration": {{Name: "round", ID: "x", Start: 10, End: 5}},
	}
	for name, spans := range bad {
		if _, err := resolve(spans); err == nil {
			t.Errorf("%s: resolve accepted a malformed tree", name)
		}
	}
}
