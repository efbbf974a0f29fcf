package scenario

import (
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
)

// validSpec is a minimal spec Validate accepts — each table case below
// breaks exactly one thing about it.
func validSpec() Spec {
	s, err := ByName("homogeneous")
	if err != nil {
		panic(err)
	}
	return s.withDefaults()
}

func TestSpecValidate(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("the base spec must validate: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string // substring of the error
	}{
		{"zero epochs", func(s *Spec) { s.Epochs = 0 }, "Epochs"},
		{"negative epochs", func(s *Spec) { s.Epochs = -3 }, "Epochs"},
		{"zero tenants", func(s *Spec) { s.Tenants = 0 }, "Tenants"},
		{"zero kpaths", func(s *Spec) { s.KPaths = 0 }, "KPaths"},
		{"negative samples per epoch", func(s *Spec) { s.SamplesPerEpoch = -1 }, "SamplesPerEpoch"},
		{"unknown topology", func(s *Spec) { s.Topology = "atlantis" }, "atlantis"},
		{"unknown algorithm", func(s *Spec) { s.Algorithm = "oracle" }, "oracle"},
		{"unknown arrival kind", func(s *Spec) { s.Arrivals.Kind = ArrivalKind(99) }, "arrival kind"},
		{"negative arrival rate", func(s *Spec) { s.Arrivals.RatePerEpoch = -1 }, "RatePerEpoch"},
		{"negative spike size", func(s *Spec) { s.Arrivals.SpikeSize = -2 }, "negative arrival parameter"},
		{"no classes", func(s *Spec) { s.Classes = nil }, "at least one class"},
		{"unknown class type", func(s *Spec) { s.Classes[0].Type = "xXLC" }, "xXLC"},
		{"unknown load shape", func(s *Spec) { s.Classes[0].Shape = "square-wave" }, "square-wave"},
		{"trace shape without samples", func(s *Spec) { s.Classes[0].Shape = "trace" }, "TraceMbps"},
		{"negative class alpha", func(s *Spec) { s.Classes[0].Alpha = -0.1 }, "negative parameter"},
		{"negative class sigma", func(s *Spec) { s.Classes[0].SigmaFrac = -1 }, "negative parameter"},
		{"negative class duration", func(s *Spec) { s.Classes[0].Duration = -4 }, "negative parameter"},
		{"negative ramp start", func(s *Spec) {
			s.Faults.Ramps = []Ramp{{BS: 0, StartEpoch: -1}}
		}, "ramp start"},
		{"ramp floor at 1", func(s *Spec) {
			s.Faults.Ramps = []Ramp{{BS: 0, StartEpoch: 1, Floor: 1}}
		}, "ramp floor"},
		{"negative random outages", func(s *Spec) { s.Faults.RandomOutages = -1 }, "RandomOutages"},
		{"negative outage duration", func(s *Spec) { s.Faults.OutageEpochs = -2 }, "OutageEpochs"},
		{"scripted event out of range", func(s *Spec) {
			s.Faults.Script = []topology.Event{topology.BSOutage(1, 999)}
		}, "out of range"},
		{"scripted event negative epoch", func(s *Spec) {
			s.Faults.Script = []topology.Event{topology.BSOutage(-1, 0)}
		}, "negative"},
		{"ramp targets missing BS", func(s *Spec) {
			s.Faults.Ramps = []Ramp{{BS: 999, StartEpoch: 1}}
		}, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec()
			tc.mut(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("Validate accepted the broken spec")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestValidateIsStricterThanCompile pins the split of responsibilities:
// Compile defaults what Validate rejects, so a zero-epoch spec compiles
// (to the 24-epoch default) yet fails strict validation.
func TestValidateIsStricterThanCompile(t *testing.T) {
	s := validSpec()
	s.Epochs = 0
	if err := s.Validate(); err == nil {
		t.Fatal("Validate accepted a zero-epoch spec")
	}
	cfg, err := s.Compile(1)
	if err != nil {
		t.Fatalf("Compile must default the zero epochs: %v", err)
	}
	if cfg.Epochs != 24 {
		t.Fatalf("Compile defaulted Epochs to %d, want 24", cfg.Epochs)
	}
}

// TestUnknownAlgorithmRefusedEverywhere pins the one algorithm vocabulary:
// a name core.NewSolver does not know is refused by every layer that takes
// one, each with core's message.
func TestUnknownAlgorithmRefusedEverywhere(t *testing.T) {
	_, coreErr := core.NewSolver("oracle", core.BendersOptions{})
	if coreErr == nil {
		t.Fatal("core.NewSolver accepted an unknown algorithm")
	}
	spec := validSpec()
	spec.Algorithm = "oracle"
	cases := []struct {
		layer string
		err   func() error
	}{
		{"scenario.Validate", spec.Validate},
		{"sim.Run", func() error {
			_, err := sim.Run(sim.Config{Net: topology.Testbed(), Epochs: 1, Algorithm: "oracle"})
			return err
		}},
		{"admission.AddDomain", func() error {
			return admission.New(admission.Config{}).AddDomain("", admission.DomainConfig{Net: topology.Testbed(), Algorithm: "oracle"})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.layer, func(t *testing.T) {
			err := tc.err()
			if err == nil || !strings.Contains(err.Error(), coreErr.Error()) {
				t.Fatalf("%s: error %v, want one carrying %q", tc.layer, err, coreErr)
			}
		})
	}
}

func TestByNameErrors(t *testing.T) {
	if _, err := ByName("no-such-archetype"); err == nil ||
		!strings.Contains(err.Error(), "no-such-archetype") {
		t.Fatalf("ByName error %v does not name the unknown archetype", err)
	}
	if _, err := ByName(""); err == nil {
		t.Fatal("ByName accepted an empty name")
	}
	// Every built-in archetype passes strict validation once defaulted —
	// the committed catalog must never rely on Compile-side leniency that
	// Validate would flag.
	for _, s := range Archetypes() {
		if err := s.withDefaults().Validate(); err != nil {
			t.Errorf("archetype %s fails strict validation: %v", s.Name, err)
		}
	}
}
