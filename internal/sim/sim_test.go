package sim

import (
	"math"
	"testing"

	"repro/internal/slice"
	"repro/internal/topology"
)

// embbSpecs builds n identical eMBB requests arriving at epoch 0 with mean
// load α·Λ.
func embbSpecs(n int, alpha, sigmaFrac, m float64) []SliceSpec {
	tmpl := slice.Table1(slice.EMBB)
	mean := alpha * tmpl.RateMbps
	var out []SliceSpec
	for i := 0; i < n; i++ {
		out = append(out, SliceSpec{
			Name: "e", Template: tmpl, PenaltyFactor: m,
			MeanMbps: mean, StdMbps: sigmaFrac * mean,
			ArrivalEpoch: 0, Duration: 1 << 20, Seed: int64(i + 1),
		})
	}
	return out
}

func testConfig(algo string, specs []SliceSpec, epochs int) Config {
	return Config{
		Net:             topology.Testbed(),
		Epochs:          epochs,
		Slices:          specs,
		Algorithm:       algo,
		ReofferPending:  true,
		SamplesPerEpoch: 8,
		HWPeriod:        6,
	}
}

func TestBaselineStableRevenue(t *testing.T) {
	// No-overbooking: admission at full reservation, revenue flat from the
	// first epoch, never a violation.
	res, err := Run(testConfig("no-overbooking", embbSpecs(4, 0.3, 0.1, 1), 6))
	if err != nil {
		t.Fatal(err)
	}
	if res.ViolationProb != 0 {
		t.Errorf("baseline produced SLA violations: %v", res.ViolationProb)
	}
	first := res.Epochs[0].Revenue
	for _, es := range res.Epochs[1:] {
		if math.Abs(es.Revenue-first) > 1e-9 {
			t.Fatalf("baseline revenue moved: %v -> %v", first, es.Revenue)
		}
	}
	// The 2-BS testbed carries 3 full eMBB reservations (150 Mb/s radio).
	if res.Epochs[0].Accepted != 3 {
		t.Errorf("baseline accepted %d, want 3", res.Epochs[0].Accepted)
	}
}

func TestOverbookingBeatsBaseline(t *testing.T) {
	specs := embbSpecs(5, 0.25, 0.1, 1)
	base, err := Run(testConfig("no-overbooking", specs, 14))
	if err != nil {
		t.Fatal(err)
	}
	over, err := Run(testConfig("direct", specs, 14))
	if err != nil {
		t.Fatal(err)
	}
	if !(over.MeanRevenue > base.MeanRevenue) {
		t.Errorf("overbooking steady revenue %v not above baseline %v",
			over.MeanRevenue, base.MeanRevenue)
	}
	// Overbooking admits more than the 3-slice full-reservation limit.
	last := over.Epochs[len(over.Epochs)-1]
	if last.Accepted <= 3 {
		t.Errorf("overbooking admitted %d slices at steady state, want > 3", last.Accepted)
	}
}

func TestOverbookingRampsUp(t *testing.T) {
	// Gains require learning: epoch 0 admission equals the baseline, later
	// epochs exceed it.
	res, err := Run(testConfig("direct", embbSpecs(5, 0.25, 0.1, 1), 14))
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs[0].Accepted != 3 {
		t.Errorf("cold-start admissions %d, want baseline 3", res.Epochs[0].Accepted)
	}
	if res.Epochs[len(res.Epochs)-1].Accepted <= res.Epochs[0].Accepted {
		t.Error("no admission ramp-up after forecaster warm-up")
	}
}

func TestViolationFootprintBounded(t *testing.T) {
	// §4.3.3 claims violations in <0.0001% of samples with ≤10% of traffic
	// dropped. With unpadded peak-forecast reservations (which the paper's
	// own testbed arithmetic requires, see sim.Config.ForecastPad) the
	// reproducible footprint is: a few percent of samples clip, and the
	// clipped amount is a small fraction of the SLA. Both properties are
	// asserted; EXPERIMENTS.md discusses the discrepancy.
	res, err := Run(testConfig("direct", embbSpecs(5, 0.3, 0.5, 1), 20))
	if err != nil {
		t.Fatal(err)
	}
	if res.ViolationProb > 0.08 {
		t.Errorf("violation probability %v, want < 8%%", res.ViolationProb)
	}
	if res.MeanDrop > 0.10 {
		t.Errorf("mean dropped SLA fraction %v exceeds the paper's 10%% bound", res.MeanDrop)
	}
	// A padded configuration must trade revenue for a smaller footprint.
	cfg := testConfig("direct", embbSpecs(5, 0.3, 0.5, 1), 20)
	cfg.ForecastPad = 2
	padded, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if padded.ViolationProb > res.ViolationProb+1e-9 {
		t.Errorf("padding increased violations: %v vs %v", padded.ViolationProb, res.ViolationProb)
	}
}

func TestKACRunsTheSameScenario(t *testing.T) {
	specs := embbSpecs(5, 0.25, 0.1, 1)
	kac, err := Run(testConfig("kac", specs, 12))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Run(testConfig("direct", specs, 12))
	if err != nil {
		t.Fatal(err)
	}
	// Realized revenue is stochastic (different admission trajectories see
	// different noise), so the per-instance optimality dominance only
	// holds approximately at the run level.
	if kac.MeanRevenue > direct.MeanRevenue*1.05+0.1 {
		t.Errorf("heuristic revenue %v well above exact %v", kac.MeanRevenue, direct.MeanRevenue)
	}
	if kac.MeanRevenue <= 0 {
		t.Error("KAC earned nothing")
	}
}

func TestSliceExpiry(t *testing.T) {
	tmpl := slice.Table1(slice.EMBB)
	specs := []SliceSpec{{
		Name: "short", Template: tmpl, PenaltyFactor: 1,
		MeanMbps: 10, StdMbps: 1, ArrivalEpoch: 0, Duration: 3, Seed: 1,
	}}
	cfg := testConfig("direct", specs, 6)
	cfg.ReofferPending = false
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, es := range res.Epochs {
		want := 1
		if i >= 3 {
			want = 0
		}
		if es.Accepted != want {
			t.Errorf("epoch %d: accepted %d, want %d", i, es.Accepted, want)
		}
	}
}

func TestOneShotRejectionIsFinal(t *testing.T) {
	// 5 requests, capacity for 3, no re-offer: rejected requests leave.
	cfg := testConfig("no-overbooking", embbSpecs(5, 0.5, 0.1, 1), 4)
	cfg.ReofferPending = false
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, es := range res.Epochs {
		if es.Accepted != 3 {
			t.Errorf("epoch %d accepted %d, want steady 3", es.Epoch, es.Accepted)
		}
	}
}

func TestStaggeredArrivals(t *testing.T) {
	tmpl := slice.Table1(slice.URLLC)
	var specs []SliceSpec
	for i := 0; i < 2; i++ {
		specs = append(specs, SliceSpec{
			Name: "u", Template: tmpl, PenaltyFactor: 1,
			MeanMbps: 12.5, StdMbps: 1.25,
			ArrivalEpoch: i * 2, Duration: 1 << 20, Seed: int64(i + 1),
		})
	}
	res, err := Run(testConfig("direct", specs, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs[0].Accepted != 1 {
		t.Errorf("epoch 0 accepted %d, want 1 (second request not yet arrived)", res.Epochs[0].Accepted)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config must fail")
	}
}

// TestWarmSolverMatchesCold pins the cross-epoch contract at the sim level:
// the Benders session carrying cuts and bases across epochs must produce
// the same admission decisions, placements and expected revenue as solving
// every epoch from scratch — including across arrivals, departures and
// commitment pinning, where the session cold-rebuilds.
func TestWarmSolverMatchesCold(t *testing.T) {
	cases := map[string]func() Config{
		"steady": func() Config { return testConfig("benders", embbSpecs(5, 0.25, 0.1, 1), 14) },
		"staggered": func() Config {
			tmpl := slice.Table1(slice.URLLC)
			var specs []SliceSpec
			for i := 0; i < 3; i++ {
				specs = append(specs, SliceSpec{
					Name: "u", Template: tmpl, PenaltyFactor: 1,
					MeanMbps: 12.5, StdMbps: 1.25,
					ArrivalEpoch: i * 2, Duration: 1 << 20, Seed: int64(i + 1),
				})
			}
			return testConfig("benders", specs, 10)
		},
		"churn": func() Config {
			tmpl := slice.Table1(slice.EMBB)
			var specs []SliceSpec
			for i := 0; i < 4; i++ {
				specs = append(specs, SliceSpec{
					Name: "c", Template: tmpl, PenaltyFactor: 1,
					MeanMbps: 15, StdMbps: 1.5,
					ArrivalEpoch: i, Duration: 4, Seed: int64(i + 1),
				})
			}
			cfg := testConfig("benders", specs, 10)
			cfg.ReofferPending = false
			return cfg
		},
	}
	for name, mk := range cases {
		cold := mk()
		cold.ColdSolver = true
		coldRes, err := Run(cold)
		if err != nil {
			t.Fatalf("%s cold: %v", name, err)
		}
		warmRes, err := Run(mk())
		if err != nil {
			t.Fatalf("%s warm: %v", name, err)
		}
		if coldRes.DecisionTrace() != warmRes.DecisionTrace() {
			t.Errorf("%s: warm and cold decision traces differ:\ncold:\n%s\nwarm:\n%s",
				name, coldRes.DecisionTrace(), warmRes.DecisionTrace())
		}
	}
}

// TestTraceDeterminism pins bit-identical traces across repeated runs in
// one process and across measurement worker counts.
func TestTraceDeterminism(t *testing.T) {
	mk := func(workers int) Config {
		cfg := testConfig("benders", embbSpecs(5, 0.25, 0.2, 1), 10)
		cfg.Workers = workers
		return cfg
	}
	first, err := Run(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	if first.Trace() != again.Trace() {
		t.Error("two serial runs of the same config diverged")
	}
	for _, w := range []int{2, 8} {
		par, err := Run(mk(w))
		if err != nil {
			t.Fatal(err)
		}
		if par.Trace() != first.Trace() {
			t.Errorf("trace at %d workers differs from serial", w)
		}
	}
}

// TestHeavyTailShape exercises the log-normal load path end to end.
func TestHeavyTailShape(t *testing.T) {
	specs := embbSpecs(3, 0.3, 0.5, 1)
	for i := range specs {
		specs[i].Shape = ShapeHeavyTail
	}
	res, err := Run(testConfig("direct", specs, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRevenue == 0 {
		t.Error("heavy-tail run earned nothing")
	}
}

func TestRealizedVsExpectedRevenueCoherent(t *testing.T) {
	res, err := Run(testConfig("direct", embbSpecs(4, 0.3, 0.1, 1), 12))
	if err != nil {
		t.Fatal(err)
	}
	for _, es := range res.Epochs {
		if es.Accepted == 0 {
			continue
		}
		// Realized revenue is at most the sum of rewards and, absent
		// violations, matches it.
		maxReward := 0.0
		for _, te := range es.Tenants {
			if te.Active {
				maxReward += slice.Table1(te.Type).Reward
			}
		}
		if es.Revenue > maxReward+1e-9 {
			t.Fatalf("epoch %d revenue %v exceeds reward sum %v", es.Epoch, es.Revenue, maxReward)
		}
	}
}
