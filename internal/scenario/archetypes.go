package scenario

import (
	"fmt"

	"repro/internal/topology"
)

// RecordedDayMbps is the committed demand recording the trace-replay
// archetype replays: one day of per-epoch eMBB load in Mb/s, mean ≈ 15
// (matching α=0.3 of the 50 Mb/s template so reservations and replayed
// load agree). Committed as a literal so CI needs no data file; the codec
// path (`scenario run -trace`, `loadgen -trace`) reads the same shape from
// JSON/CSV.
var RecordedDayMbps = []float64{
	7, 6, 5, 5, 6, 8, 11, 14, 17, 19, 21, 22,
	23, 22, 21, 20, 19, 18, 19, 21, 22, 18, 13, 9,
}

// Archetypes returns the built-in scenario suite: one Spec per workload
// family the system must handle, all runnable from `scenario run` with any
// seed and all covered by the warm/cold equality and determinism tests.
// EXPERIMENTS.md maps each archetype to the paper artifact it generalizes.
func Archetypes() []Spec {
	return []Spec{
		{
			Name:        "homogeneous",
			Description: "Fig. 5 point: identical Gaussian eMBB tenants, batch arrival, λ̄=0.3Λ σ=0.25λ̄ m=1",
			Topology:    "Romanian", NBS: 4,
			Tenants: 8, Epochs: 24,
			Arrivals:  Arrivals{Kind: Batch},
			Classes:   []Class{{Type: "eMBB", Alpha: 0.3, SigmaFrac: 0.25, Penalty: 1}},
			Algorithm: "benders", ReofferPending: true,
		},
		{
			Name:        "diurnal",
			Description: "Fig. 8 day shape: seasonal load tracked by the Holt-Winters forecaster on the testbed",
			Topology:    "Testbed",
			Tenants:     3, Epochs: 36, HWPeriod: 12,
			Arrivals:  Arrivals{Kind: Batch},
			Classes:   []Class{{Type: "uRLLC", Alpha: 0.5, SigmaFrac: 0.2, Penalty: 1, Shape: "diurnal"}},
			Algorithm: "benders", ReofferPending: true,
		},
		{
			Name:        "flash-crowd",
			Description: "Poisson eMBB background plus a spike of short-lived uRLLC slices at epoch 8",
			Topology:    "Romanian", NBS: 4,
			Tenants: 5, Epochs: 24,
			Arrivals: Arrivals{Kind: FlashCrowd, RatePerEpoch: 0.5,
				SpikeEpoch: 8, SpikeSize: 4, SpikeDuration: 3, SpikeClass: "crowd"},
			Classes: []Class{
				{Name: "bg", Type: "eMBB", Alpha: 0.3, SigmaFrac: 0.25, Penalty: 1},
				{Name: "crowd", Type: "uRLLC", Alpha: 0.6, SigmaFrac: 0.3, Penalty: 4},
			},
			Algorithm: "benders", ReofferPending: true,
		},
		{
			Name:        "sla-mix",
			Description: "Fig. 6 generalization: elastic eMBB (m=1) vs inelastic uRLLC (m=16) vs deterministic mMTC",
			Topology:    "Swiss", NBS: 4,
			Tenants: 9, Epochs: 24,
			Arrivals: Arrivals{Kind: Bursty, BurstSize: 3, BurstPeriod: 2},
			Classes: []Class{
				{Name: "elastic", Type: "eMBB", Weight: 1, Alpha: 0.25, SigmaFrac: 0.25, Penalty: 1},
				{Name: "strict", Type: "uRLLC", Weight: 1, Alpha: 0.5, SigmaFrac: 0.25, Penalty: 16},
				{Name: "iot", Type: "mMTC", Weight: 1, Alpha: 0.2, Penalty: 4},
			},
			Algorithm: "benders", ReofferPending: true,
		},
		{
			Name: "diurnal-drift",
			Description: "closed-loop showcase: day-shaped eMBB demand oversubscribes the grid at full-SLA " +
				"reservations; forecast-driven reoptimization shrinks σ̂ online and re-admits the overflow",
			Topology: "Romanian", NBS: 4,
			Tenants: 8, Epochs: 24, HWPeriod: 8,
			Arrivals:  Arrivals{Kind: Batch},
			Classes:   []Class{{Type: "eMBB", Alpha: 0.3, SigmaFrac: 0.2, Penalty: 1, Shape: "diurnal"}},
			Algorithm: "benders", ReofferPending: true,
		},
		{
			Name: "flash-drift",
			Description: "drift-heavy: diurnal eMBB background already overbooked when a uRLLC flash crowd " +
				"lands mid-run — the reopt loop must rescale committed reservations to absorb it",
			Topology: "Romanian", NBS: 4,
			Tenants: 5, Epochs: 20, HWPeriod: 8,
			Arrivals: Arrivals{Kind: FlashCrowd, RatePerEpoch: 0.8,
				SpikeEpoch: 9, SpikeSize: 3, SpikeDuration: 4, SpikeClass: "surge"},
			Classes: []Class{
				{Name: "bg", Type: "eMBB", Alpha: 0.3, SigmaFrac: 0.2, Penalty: 1, Shape: "diurnal"},
				{Name: "surge", Type: "uRLLC", Alpha: 0.5, SigmaFrac: 0.25, Penalty: 4},
			},
			Algorithm: "benders", ReofferPending: true,
		},
		{
			Name:        "heavy-tail",
			Description: "log-normal demand: rare far-above-mean peaks stress peak forecasting and the risk term",
			Topology:    "Italian", NBS: 4,
			Tenants: 6, Epochs: 24,
			Arrivals:  Arrivals{Kind: Poisson, RatePerEpoch: 1},
			Classes:   []Class{{Type: "eMBB", Alpha: 0.25, SigmaFrac: 0.5, Penalty: 2, Shape: "heavy-tail"}},
			Algorithm: "benders", ReofferPending: true,
		},
		{
			Name: "outage",
			Description: "adversarial: BS 1 goes dark at epoch 3 and recovers at epoch 6 — committed slices ride " +
				"the big-M deficit through the hole while the warm solver re-solves under shrunken capacity",
			Topology: "Romanian", NBS: 4,
			Tenants: 8, Epochs: 24, HWPeriod: 8,
			Arrivals: Arrivals{Kind: Batch},
			Classes:  []Class{{Type: "eMBB", Alpha: 0.3, SigmaFrac: 0.25, Penalty: 1}},
			Faults: Faults{Script: []topology.Event{
				topology.BSOutage(3, 1),
				topology.BSRecover(6, 1),
			}},
			Algorithm: "benders", ReofferPending: true,
		},
		{
			Name: "degradation",
			Description: "adversarial: a backhaul-wide brownout ramps every link down to 40% over four epochs " +
				"while new tenants keep arriving — admission must tighten without dropping committed slices",
			Topology: "Swiss", NBS: 4,
			Tenants: 8, Epochs: 24,
			Arrivals: Arrivals{Kind: Bursty, BurstSize: 2, BurstPeriod: 2},
			Classes:  []Class{{Type: "eMBB", Alpha: 0.25, SigmaFrac: 0.25, Penalty: 1}},
			Faults: Faults{Ramps: []Ramp{
				{BS: -1, StartEpoch: 2, Steps: 4, Floor: 0.4},
			}},
			Algorithm: "benders", ReofferPending: true,
		},
		{
			Name: "churn",
			Description: "adversarial: the core CU operator leaves the federation at epoch 2 and rejoins at 7, " +
				"with one seeded-random BS outage on top — sustained capacity churn under Poisson arrivals",
			Topology: "Romanian", NBS: 4,
			Tenants: 6, Epochs: 24,
			Arrivals: Arrivals{Kind: Poisson, RatePerEpoch: 1},
			Classes:  []Class{{Type: "eMBB", Alpha: 0.25, SigmaFrac: 0.25, Penalty: 1}},
			Faults: Faults{
				Script: []topology.Event{
					topology.CULeave(2, 1),
					topology.CUJoin(7, 1),
				},
				RandomOutages: 1, OutageEpochs: 2,
			},
			Algorithm: "benders", ReofferPending: true,
		},
		{
			Name: "handover",
			Description: "adversarial: the edge CU leaves at epoch 3 and returns at epoch 7, forcing compute onto " +
				"the core site — the sim-level face of slice handover, a capacity event inside one domain " +
				"(see EXPERIMENTS.md)",
			Topology: "Italian", NBS: 4,
			Tenants: 6, Epochs: 24, HWPeriod: 8,
			Arrivals: Arrivals{Kind: Batch},
			Classes: []Class{
				{Name: "mobile", Type: "uRLLC", Alpha: 0.4, SigmaFrac: 0.2, Penalty: 4},
				{Name: "bg", Type: "eMBB", Alpha: 0.25, SigmaFrac: 0.25, Penalty: 1},
			},
			Faults: Faults{Script: []topology.Event{
				topology.CULeave(3, 0),
				topology.CUJoin(7, 0),
			}},
			Algorithm: "benders", ReofferPending: true,
		},
		{
			Name: "trace-replay",
			Description: "recorded demand: every tenant replays the committed day trace at a seed-derived rotation " +
				"— bit-reproducible load with real diurnal structure, no synthetic process in the loop",
			Topology: "Romanian", NBS: 4,
			Tenants: 6, Epochs: 24, HWPeriod: 8,
			Arrivals: Arrivals{Kind: Batch},
			Classes: []Class{{Type: "eMBB", Alpha: 0.3, SigmaFrac: 0.25, Penalty: 1,
				Shape: "trace", TraceMbps: RecordedDayMbps}},
			Algorithm: "benders", ReofferPending: true,
		},
		{
			Name: "metro",
			Description: "metro-scale tier: a 1056-BS deployment of 44 strict-tree pods, each pod a 24-BS admission " +
				"domain under a deep four-tier CU hierarchy (edge/agg/metro/core) — uRLLC contends for the undersized " +
				"edge tiers while eMBB/mMTC sink down the chain (run all pods: `loadgen -scenario metro`)",
			Topology: "Metro", NBS: topology.MetroPodBS,
			Domains: topology.MetroPods,
			Tenants: 4, Epochs: 16,
			Arrivals: Arrivals{Kind: Batch},
			Classes: []Class{
				{Name: "lowlat", Type: "uRLLC", Weight: 2, Alpha: 0.4, SigmaFrac: 0.2, Penalty: 8},
				{Name: "broadband", Type: "eMBB", Weight: 1, Alpha: 0.3, SigmaFrac: 0.25, Penalty: 1},
				{Name: "iot", Type: "mMTC", Weight: 1, Alpha: 0.2, Penalty: 4},
			},
			Algorithm: "benders", KPaths: 1, ReofferPending: true,
		},
	}
}

// ByName resolves an archetype.
func ByName(name string) (Spec, error) {
	for _, s := range Archetypes() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("scenario: unknown archetype %q (run `scenario list`)", name)
}
