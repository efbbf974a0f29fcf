package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// smokeSeconds scales every workload to about a seventy-fifth of its benchmark
// size: one unit each.
const smokeSeconds = 0.2

// TestSmoke runs every workload once untraced and once traced at smoke size
// and checks what the benchmark promises: every named metric is emitted, no
// operation fails, both passes decide identically (the seams move no
// decision), and the traced pass leaves a well-formed span tree behind.
func TestSmoke(t *testing.T) {
	outDir = t.TempDir()
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			plain, err := runPass(w, 1, smokeSeconds, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runPass(w, 1, smokeSeconds, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range []*passResult{plain, traced} {
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d violations=%v",
						res.Traced, res.Correct, res.Failed, res.Attempted, res.Violations)
				}
			}
			for _, d := range endToEnd {
				m, ok := plain.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("end-to-end metric %s missing or unit %q", d.Name, m.Unit)
				} else if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v; it must never be 0", d.Name, m.Value)
				}
			}
			if len(plain.Metrics) != len(endToEnd) {
				t.Errorf("untraced pass reports %d metrics, want the %d end-to-end ones", len(plain.Metrics), len(endToEnd))
			}
			for _, d := range perLayer {
				if m, ok := traced.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("per-layer metric %s missing or unit %q", d.Name, m.Unit)
				}
			}
			if len(traced.Metrics) != len(perLayer) {
				t.Errorf("traced pass reports %d metrics, want the %d per-layer ones", len(traced.Metrics), len(perLayer))
			}
			if plain.Fingerprint != traced.Fingerprint || plain.Fingerprint == "" {
				t.Errorf("fingerprints: untraced %q, traced %q", plain.Fingerprint, traced.Fingerprint)
			}

			data, err := os.ReadFile(filepath.Join(outDir, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			tree, err := resolve(tf.Spans)
			if err != nil {
				t.Fatalf("span tree: %v", err)
			}
			rounds, children := 0, 0
			for i, s := range tree.spans {
				if s.Name == "round" {
					rounds++
				}
				if tree.parent[i] >= 0 {
					children++
				}
				if tree.self[i] < 0 {
					t.Fatalf("span %s %s has negative self time", s.Name, s.ID)
				}
			}
			if rounds == 0 || children == 0 {
				t.Errorf("trace has %d round spans and %d child spans; want both", rounds, children)
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json — the contract the CI driver reads —
// in step with the tables in this package.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the package has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the package %q / %q", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the package has %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := spec.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the package %s %s %s %v", i, got, d.Name, d.Unit, d.Better, d.Bound)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the package has %d", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := spec.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the package %s %s %s", i, got, d.Name, d.Unit, d.Better)
		}
	}
	ps := pinned()
	if ps.Seconds != float64(spec.RunSeconds) {
		t.Errorf("fingerprints.json pins seconds=%v, BENCHMARK.json runs %d", ps.Seconds, spec.RunSeconds)
	}
	for _, w := range workloads {
		if ps.Fingerprints[w.name] == "" {
			t.Errorf("fingerprints.json pins nothing for %s", w.name)
		}
	}
}

func TestDriverRejectsBadInput(t *testing.T) {
	if code := cmdDriver([]string{"--workload", "nope"}); code == 0 {
		t.Error("unknown workload accepted")
	}
	if code := cmdDriver([]string{"--workload", "steady-drift", "--seconds", "0"}); code == 0 {
		t.Error("zero seconds accepted")
	}
}

// TestCommands drives the subcommands end to end at smoke size: two result
// sets from `run`, `compare` over them, the one-pass form the driver uses
// (traced, so that the untraced reference pass runs too), `spec`, and one
// seed of `vet`.
func TestCommands(t *testing.T) {
	outDir = t.TempDir()
	a, b := filepath.Join(outDir, "a.json"), filepath.Join(outDir, "b.json")
	for _, out := range []string{a, b} {
		if code := cmdRun([]string{"-seconds", "0.2", "-reps", "2", "-trace", "-workload", "online-durable", "-out", out}); code != 0 {
			t.Fatalf("run exited %d", code)
		}
	}
	// At this size noise may well read as a regression; what is checked is
	// that the two sets load, decided the same and are judged.
	if code := cmdCompare([]string{a, b}); code != 0 && code != 1 {
		t.Errorf("compare exited %d", code)
	}
	sa, err := readSet(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := readSet(b)
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := sa.Workloads["online-durable"].Fingerprint, sb.Workloads["online-durable"].Fingerprint; fa != fb || fa == "" {
		t.Errorf("two runs decided %q and %q", fa, fb)
	}
	if code := cmdCompare([]string{a}); code != 2 {
		t.Errorf("compare with one argument exited %d, want 2", code)
	}
	if code := cmdDriver([]string{"--workload", "crash-recover", "--seed", "3", "--seconds", "0.4", "--trace", "1"}); code != 0 {
		t.Errorf("driver form exited %d", code)
	}
	if code := cmdSpec(); code != 0 {
		t.Errorf("spec exited %d", code)
	}
	if code := vetChild("heavy-tail/stripped", 0, 1); code != 0 {
		t.Errorf("vet child exited %d", code)
	}
}
