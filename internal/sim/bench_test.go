package sim

import "testing"

// steadyConfig is the benchmark scenario: a committed steady state where
// consecutive epochs differ only in forecasts, i.e. the exact regime the
// cross-epoch session is built for. Eight eMBB tenants arrive at epoch 0;
// once all are admitted the tenant set, commitments and placements are
// fixed and every instance re-solve is a pure forecast delta.
func steadyConfig(epochs int, cold bool) Config {
	cfg := testConfig("benders", embbSpecs(8, 0.2, 0.1, 1), epochs)
	cfg.ColdSolver = cold
	return cfg
}

// BenchmarkSimEpochs measures the marginal steady-state epoch cost with the
// cross-epoch warm session versus from-scratch per-epoch solves: the engine
// runs 8 warm-up epochs untimed (arrivals, commitments, forecaster ramp),
// then the timer covers b.N additional steady-state epochs — the regime a
// long-running orchestrator lives in. EXPERIMENTS.md records the warm/cold
// ratio; the acceptance floor is 2x on this scenario. The shared epoch-0
// cold start (identical in both modes) is deliberately outside the timer.
func BenchmarkSimEpochs(b *testing.B) {
	const warmup = 8
	for _, mode := range []struct {
		name string
		cold bool
	}{{"warm", false}, {"cold", true}} {
		b.Run(mode.name, func(b *testing.B) {
			eng, err := newEngine(steadyConfig(warmup, mode.cold))
			if err != nil {
				b.Fatal(err)
			}
			for t := 0; t < warmup; t++ {
				if err := eng.step(t); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; b.Loop(); i++ {
				if err := eng.step(warmup + i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimRun measures whole runs (cold start included) for the
// end-to-end view of the same scenario.
func BenchmarkSimRun(b *testing.B) {
	for _, mode := range []struct {
		name string
		cold bool
	}{{"warm", false}, {"cold", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for b.Loop() {
				res, err := Run(steadyConfig(16, mode.cold))
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Epochs) != 16 {
					b.Fatal("short run")
				}
			}
		})
	}
}
