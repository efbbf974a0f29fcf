package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// runSeconds is the measuring time BENCHMARK.json asks the driver for; the
// unit counts in the workloads are sized for it on the reference box.
const runSeconds = 15

// cmdSpec prints BENCHMARK.json as the tables in this package define it
// (`go run ./benchmark spec > BENCHMARK.json`); TestBenchmarkJSON fails when
// the committed file and the tables drift apart.
func cmdSpec() int {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"go", "run", "./benchmark"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}
