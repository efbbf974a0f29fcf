package reopt

import (
	"fmt"
	"testing"

	"repro/internal/admission"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/yield"
)

// BenchmarkReoptRound measures the steady-state cost of one closed-loop
// cycle — settle the ended epoch's samples, feed the forecasters, install
// the views, warm re-solve, snapshot, advance — on the testbed topology
// with 3 committed slices and κ=12 samples per (slice, BS) per epoch.
//
// mode=closed is the forecast-driven loop (reservations rescale every
// step, riding the warm session's rebind path); mode=static freezes the
// forecasts, so its rounds are the incumbent short-circuit floor — the
// delta is what forecast drift actually costs per epoch.
func BenchmarkReoptRound(b *testing.B) {
	for _, mode := range []struct {
		name       string
		reoptEvery int
	}{{"closed", 1}, {"static", -1}} {
		b.Run("mode="+mode.name, func(b *testing.B) {
			net := topology.Testbed()
			store := monitor.NewStore(0)
			ledger := yield.NewLedger()
			eng := admission.New(admission.Config{Ledger: ledger})
			if err := eng.AddDomain("", admission.DomainConfig{Net: net, Algorithm: "benders"}); err != nil {
				b.Fatal(err)
			}
			if err := eng.Start(); err != nil {
				b.Fatal(err)
			}
			defer eng.Stop()
			ctrl, err := New(Config{Engine: eng, Store: store, Ledger: ledger, ReoptEvery: mode.reoptEvery})
			if err != nil {
				b.Fatal(err)
			}

			const nSlices, kappa = 3, 12
			gens := map[string][]traffic.Generator{}
			for i := 0; i < nSlices; i++ {
				sp := sim.SliceSpec{
					Name: fmt.Sprintf("s%d", i), MeanMbps: 8, StdMbps: 2,
					Seed: int64(i + 1), Shape: sim.ShapeDiurnal,
				}
				sla := slice.SLA{Template: slice.Table1(slice.EMBB), MeanMbps: 8, Duration: 1 << 20}.
					WithPenaltyFactor(1)
				if _, err := eng.Submit(admission.Request{Name: sp.Name, SLA: sla}); err != nil {
					b.Fatal(err)
				}
				gs := make([]traffic.Generator, net.NumBS())
				for bs := range gs {
					gs[bs] = sim.NewGenerator(sim.Config{SamplesPerEpoch: kappa, HWPeriod: 12}, sp, bs)
				}
				gens[sp.Name] = gs
			}

			step := func(epoch int) {
				if _, err := ctrl.Step(); err != nil {
					b.Fatal(err)
				}
				for name, gs := range gens {
					for bs, g := range gs {
						for theta := 0; theta < kappa; theta++ {
							store.Add(monitor.Sample{
								Slice: name, Metric: monitor.LoadMetric, Element: monitor.BSElement(bs),
								Epoch: epoch, Theta: theta, Value: g.Sample(epoch, theta),
							})
						}
					}
				}
			}
			// Warm-up: admission round, forecaster ramp, first rescales.
			epoch := 0
			for ; epoch < 4; epoch++ {
				step(epoch)
			}

			for b.Loop() {
				step(epoch)
				epoch++
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rounds/s")
		})
	}
}
