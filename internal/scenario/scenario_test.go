package scenario

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// ciSized shrinks an archetype so exact solvers stay fast in tests (also
// under -race) while every structural feature — arrival process, class
// mix, load shapes, commitment churn — survives.
func ciSized(s Spec) Spec {
	if s.Tenants > 4 {
		s.Tenants = 4
	}
	s.Epochs = 10
	if s.Arrivals.Kind == FlashCrowd {
		s.Arrivals.SpikeEpoch = 4
		s.Arrivals.SpikeSize = 2
	}
	return s
}

func TestArchetypesCompileAndRun(t *testing.T) {
	suite := Archetypes()
	if len(suite) < 4 {
		t.Fatalf("suite has %d archetypes, want >= 4", len(suite))
	}
	seen := map[string]bool{}
	for _, spec := range suite {
		if spec.Name == "" || seen[spec.Name] {
			t.Fatalf("archetype name %q empty or duplicated", spec.Name)
		}
		seen[spec.Name] = true
		res, err := ciSized(spec).Run(7)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if len(res.Epochs) != 10 {
			t.Errorf("%s: ran %d epochs", spec.Name, len(res.Epochs))
		}
		accepted := 0
		for _, es := range res.Epochs {
			accepted += es.Accepted
		}
		if accepted == 0 {
			t.Errorf("%s: no slice was ever admitted", spec.Name)
		}
	}
	for _, want := range []string{"homogeneous", "diurnal", "flash-crowd", "sla-mix"} {
		if !seen[want] {
			t.Errorf("required archetype %q missing", want)
		}
	}
}

// TestWarmMatchesColdOnSuite is the tentpole acceptance gate: on every
// scenario in the suite, the cross-epoch warm pipeline and the per-epoch
// cold pipeline must produce identical admission decisions.
func TestWarmMatchesColdOnSuite(t *testing.T) {
	for _, spec := range Archetypes() {
		spec = ciSized(spec)
		spec.Algorithm = "benders"
		cold, err := spec.Compile(11)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		cold.ColdSolver = true
		coldRes, err := sim.Run(cold)
		if err != nil {
			t.Fatalf("%s cold: %v", spec.Name, err)
		}
		warm, err := spec.Compile(11)
		if err != nil {
			t.Fatal(err)
		}
		warmRes, err := sim.Run(warm)
		if err != nil {
			t.Fatalf("%s warm: %v", spec.Name, err)
		}
		if coldRes.DecisionTrace() != warmRes.DecisionTrace() {
			t.Errorf("%s: warm and cold decisions diverge:\ncold:\n%s\nwarm:\n%s",
				spec.Name, coldRes.DecisionTrace(), warmRes.DecisionTrace())
		}
	}
}

// TestCompileDeterminism: the same (Spec, seed) always compiles to the same
// config, and the resulting sim traces are bit-identical across runs and
// across sweep worker counts.
func TestCompileDeterminism(t *testing.T) {
	spec := ciSized(mustByName(t, "sla-mix"))
	a, err := spec.Compile(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Compile(3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Slices, b.Slices) {
		t.Fatal("same (spec, seed) compiled to different slice lists")
	}
	c, err := spec.Compile(4)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Slices, c.Slices) {
		t.Error("different seeds compiled to identical slice lists")
	}

	seeds := []int64{1, 2, 3, 4, 5, 6}
	serial, err := Sweep(spec, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Sweep(spec, seeds, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seeds {
		if serial[i].Trace() != wide[i].Trace() {
			t.Errorf("seed %d: sweep trace differs between 1 and 8 workers", seeds[i])
		}
	}
	again, err := Sweep(spec, seeds, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seeds {
		if wide[i].Trace() != again[i].Trace() {
			t.Errorf("seed %d: two in-process sweeps diverged", seeds[i])
		}
	}
}

func TestArrivalProcesses(t *testing.T) {
	base := Spec{
		Topology: "Testbed", Tenants: 6, Epochs: 12,
		Classes:   []Class{{Type: "eMBB", Alpha: 0.3, SigmaFrac: 0.2}},
		Algorithm: "direct", ReofferPending: true,
	}

	batch := base
	batch.Arrivals = Arrivals{Kind: Batch, Epoch: 2}
	cfg, err := batch.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range cfg.Slices {
		if sp.ArrivalEpoch != 2 {
			t.Fatalf("batch arrival at %d, want 2", sp.ArrivalEpoch)
		}
	}

	pois := base
	pois.Arrivals = Arrivals{Kind: Poisson, RatePerEpoch: 1}
	cfg, err = pois.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	epochs := map[int]bool{}
	for _, sp := range cfg.Slices {
		epochs[sp.ArrivalEpoch] = true
	}
	if len(epochs) < 2 {
		t.Error("poisson arrivals all landed on one epoch")
	}

	flash := base
	flash.Arrivals = Arrivals{Kind: FlashCrowd, RatePerEpoch: 0.3, SpikeEpoch: 5, SpikeSize: 3, SpikeDuration: 2}
	cfg, err = flash.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Slices) != base.Tenants+3 {
		t.Fatalf("flash crowd compiled %d slices, want %d", len(cfg.Slices), base.Tenants+3)
	}
	spikes := 0
	for _, sp := range cfg.Slices {
		if sp.ArrivalEpoch == 5 && sp.Duration == 2 {
			spikes++
		}
	}
	if spikes < 3 {
		t.Errorf("only %d spike tenants found, want >= 3", spikes)
	}

	burst := base
	burst.Arrivals = Arrivals{Kind: Bursty, BurstSize: 3, BurstPeriod: 4}
	cfg, err = burst.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	atZero := 0
	for _, sp := range cfg.Slices {
		if sp.ArrivalEpoch == 0 {
			atZero++
		}
	}
	if atZero != 3 {
		t.Errorf("burst released %d tenants at epoch 0, want 3", atZero)
	}
	// A horizon shorter than the burst schedule must queue the tail on the
	// final epoch, never fold it back onto earlier bursts.
	tight := base
	tight.Tenants, tight.Epochs = 12, 8
	tight.Arrivals = Arrivals{Kind: Bursty, BurstSize: 2, BurstPeriod: 4}
	cfg, err = tight.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	perEpoch := map[int]int{}
	for _, sp := range cfg.Slices {
		perEpoch[sp.ArrivalEpoch]++
	}
	if perEpoch[0] != 2 || perEpoch[4] != 2 || perEpoch[7] != 8 {
		t.Errorf("bursty tail handling: arrivals per epoch = %v, want 2@0, 2@4, 8@7", perEpoch)
	}
}

// TestFlashCrowdSpikeClass pins that a spike-reserved class takes exactly
// the spike tenants: the background is dealt over the other classes only.
func TestFlashCrowdSpikeClass(t *testing.T) {
	spec := mustByName(t, "flash-crowd")
	cfg, err := spec.Compile(42)
	if err != nil {
		t.Fatal(err)
	}
	crowd, bg := 0, 0
	for _, sp := range cfg.Slices {
		switch {
		case strings.HasPrefix(sp.Name, "crowd-"):
			crowd++
			if sp.Template.Type.String() != "uRLLC" {
				t.Errorf("spike tenant %s has type %v, want uRLLC", sp.Name, sp.Template.Type)
			}
			if sp.ArrivalEpoch != spec.Arrivals.SpikeEpoch || sp.Duration != spec.Arrivals.SpikeDuration {
				t.Errorf("spike tenant %s arrival=%d dur=%d, want %d/%d",
					sp.Name, sp.ArrivalEpoch, sp.Duration, spec.Arrivals.SpikeEpoch, spec.Arrivals.SpikeDuration)
			}
		case strings.HasPrefix(sp.Name, "bg-"):
			bg++
		default:
			t.Errorf("unexpected class for %s", sp.Name)
		}
	}
	if crowd != spec.Arrivals.SpikeSize || bg != spec.Tenants {
		t.Errorf("crowd=%d bg=%d, want %d/%d", crowd, bg, spec.Arrivals.SpikeSize, spec.Tenants)
	}
	// Naming an unknown spike class must fail loudly.
	bad := spec
	bad.Arrivals.SpikeClass = "ghost"
	if _, err := bad.Compile(1); err == nil {
		t.Error("unknown SpikeClass accepted")
	}
}

func TestClassMixRespectWeights(t *testing.T) {
	spec := Spec{
		Topology: "Testbed", Tenants: 9, Epochs: 6,
		Arrivals: Arrivals{Kind: Batch},
		Classes: []Class{
			{Name: "a", Type: "eMBB", Weight: 2, Alpha: 0.3},
			{Name: "b", Type: "uRLLC", Weight: 1, Alpha: 0.4},
		},
		Algorithm: "direct",
	}
	cfg, err := spec.Compile(5)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, sp := range cfg.Slices {
		counts[strings.SplitN(sp.Name, "-", 2)[0]]++
	}
	if counts["a"] != 6 || counts["b"] != 3 {
		t.Errorf("class split %v, want a=6 b=3", counts)
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := (Spec{Topology: "Atlantis", Classes: []Class{{Type: "eMBB"}}}).Compile(1); err == nil {
		t.Error("unknown topology accepted")
	}
	if _, err := (Spec{Topology: "Testbed"}).Compile(1); err == nil {
		t.Error("classless scenario accepted")
	}
	if _, err := (Spec{Topology: "Testbed", Classes: []Class{{Type: "6G"}}}).Compile(1); err == nil {
		t.Error("unknown slice type accepted")
	}
	if _, err := (Spec{Topology: "Testbed", Algorithm: "oracle", Classes: []Class{{Type: "eMBB"}}}).Run(1); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown archetype resolved")
	}
}

func mustByName(t *testing.T, name string) Spec {
	t.Helper()
	s, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBuildTopologyNames pins the one topology-name table. Every name
// `ovnes -topology` accepts (lowercase, at its default -nbs 4), every
// archetype's (capitalised, at its own NBS) and the full published sizes
// the sweeps ask for with nBS 0 build the network they always built; an
// unknown name is an error naming it.
func TestBuildTopologyNames(t *testing.T) {
	for _, tc := range []struct {
		name         string
		nBS          int
		numBS, numCU int
	}{
		{"testbed", 4, 2, 2},
		{"romanian", 4, 4, 2},
		{"swiss", 4, 4, 2},
		{"italian", 4, 4, 2},
		{"Testbed", 0, 2, 2},
		{"Romanian", 4, 4, 2},
		{"Swiss", 4, 4, 2},
		{"Italian", 4, 4, 2},
		{"Metro", 24, 24, 4},
		{"Romanian", 0, 198, 2},
		{"Swiss", 0, 197, 2},
		{"Italian", 0, 200, 2},
	} {
		net, err := BuildTopology(tc.name, tc.nBS)
		if err != nil {
			t.Errorf("BuildTopology(%q, %d): %v", tc.name, tc.nBS, err)
			continue
		}
		if net.NumBS() != tc.numBS || net.NumCU() != tc.numCU {
			t.Errorf("BuildTopology(%q, %d) = %d BS / %d CU, want %d / %d",
				tc.name, tc.nBS, net.NumBS(), net.NumCU(), tc.numBS, tc.numCU)
		}
	}
	for _, s := range Archetypes() {
		if _, err := BuildTopology(s.Topology, s.NBS); err != nil {
			t.Errorf("archetype %s: %v", s.Name, err)
		}
	}
	if _, err := BuildTopology("atlantis", 4); err == nil || !strings.Contains(err.Error(), "atlantis") {
		t.Errorf("unknown topology: err = %v, want one naming it", err)
	}
}
