package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/slice"
	"repro/internal/topology"
)

// ExampleSolveDirect is the library's quickstart: build a data-plane
// topology, describe three slice requests, run the yield-driven AC-RR
// optimizer, and inspect the decision.
func ExampleSolveDirect() {
	// The §5 testbed: two 20 MHz BSs, one switch, a 16-core edge CU and a
	// 64-core core CU behind a ~30 ms backhaul.
	net := topology.Testbed()
	paths := net.Paths(3) // P_{b,c}: up to 3 shortest paths per (BS, CU)

	// Three tenants from the Table 1 templates. Each reports the
	// forecaster's view: expected peak demand λ̂ and uncertainty σ̂.
	mk := func(name string, ty slice.Type, lambdaHat, sigma float64) core.TenantSpec {
		sla := slice.SLA{Template: slice.Table1(ty), Duration: 12}.WithPenaltyFactor(1)
		return core.TenantSpec{Name: name, SLA: sla,
			LambdaHat: lambdaHat, Sigma: sigma, RemainingEpochs: 12}
	}
	inst := &core.Instance{
		Net:   net,
		Paths: paths,
		Tenants: []core.TenantSpec{
			mk("urllc-robots", slice.URLLC, 10, 0.1), // low-latency factory control
			mk("mmtc-meters", slice.MMTC, 10, 0.05),  // deterministic meter readings
			mk("embb-video", slice.EMBB, 20, 0.2),    // bursty video distribution
		},
		Overbook: true, // reserve forecasts, not SLAs
		BigM:     1e4,
	}

	dec, err := core.SolveDirect(inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("expected net revenue: %.2f monetary units/epoch\n", dec.Revenue())
	for t, spec := range inst.Tenants {
		if !dec.Accepted[t] {
			fmt.Printf("%-14s REJECTED\n", spec.Name)
			continue
		}
		cu := "edge CU"
		if !net.CUs[dec.CU[t]].Edge {
			cu = "core CU"
		}
		fmt.Printf("%-14s accepted on %s, per-BS reservation %.1f/%.1f Mb/s (SLA %v)\n",
			spec.Name, cu, dec.Z[t][0], dec.Z[t][1], spec.SLA.RateMbps)
	}
	// Output:
	// expected net revenue: 5.76 monetary units/epoch
	// urllc-robots   accepted on edge CU, per-BS reservation 10.0/10.0 Mb/s (SLA 25)
	// mmtc-meters    accepted on core CU, per-BS reservation 10.0/10.0 Mb/s (SLA 10)
	// embb-video     accepted on edge CU, per-BS reservation 50.0/50.0 Mb/s (SLA 50)
}
