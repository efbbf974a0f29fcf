package lp_test

import (
	"testing"

	"repro/internal/lp"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestFactorEnginesAgreeOnSuite cross-validates the LP solver's two basis
// factorization engines at the system level: every archetype in the suite
// is simulated once with the production sparse-LU engine and once with the
// dense explicit-inverse reference engine, and the decision traces must be
// bit-identical. The engines round differently at the last float bit, so
// this passing is evidence that the decision layer's uniqueness margins
// (lexicographic tie-break, Benders epsilon) absorb factorization-level
// arithmetic differences — the property the repo's determinism pins
// (warm==cold, shard-count invariance) rest on.
func TestFactorEnginesAgreeOnSuite(t *testing.T) {
	defer lp.DebugForceDenseFactor(false)
	suite := scenario.Archetypes()
	if len(suite) < 7 {
		t.Fatalf("suite has %d archetypes, want the full 7", len(suite))
	}
	for _, spec := range suite {
		// CI-sized as internal/scenario's own tests are: exact solvers stay
		// fast while every structural feature survives.
		if spec.Tenants > 4 {
			spec.Tenants = 4
		}
		spec.Epochs = 10
		if spec.Arrivals.Kind == scenario.FlashCrowd {
			spec.Arrivals.SpikeEpoch, spec.Arrivals.SpikeSize = 4, 2
		}
		spec.Algorithm = "benders" // the solver living on the warm SolveFrom path
		cfgSparse, err := spec.Compile(11)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		lp.DebugForceDenseFactor(false)
		sparseRes, err := sim.Run(cfgSparse)
		if err != nil {
			t.Fatalf("%s sparse: %v", spec.Name, err)
		}

		cfgDense, err := spec.Compile(11)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		lp.DebugForceDenseFactor(true)
		denseRes, err := sim.Run(cfgDense)
		lp.DebugForceDenseFactor(false)
		if err != nil {
			t.Fatalf("%s dense: %v", spec.Name, err)
		}

		if sparseRes.DecisionTrace() != denseRes.DecisionTrace() {
			t.Errorf("%s: sparse-LU and dense engines decide differently:\nsparse:\n%s\ndense:\n%s",
				spec.Name, sparseRes.DecisionTrace(), denseRes.DecisionTrace())
		}
	}
}
