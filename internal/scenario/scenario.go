package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// ArrivalKind selects the arrival process of a Spec.
type ArrivalKind int

// Arrival processes.
const (
	// Batch offers every tenant at Arrivals.Epoch (the Fig. 5/6
	// steady-state methodology).
	Batch ArrivalKind = iota
	// Poisson draws the number of new tenants per epoch from a Poisson
	// distribution with mean RatePerEpoch.
	Poisson
	// Bursty releases BurstSize tenants every BurstPeriod epochs (on/off
	// batching).
	Bursty
	// FlashCrowd overlays a Poisson background with SpikeSize extra
	// short-lived tenants arriving together at SpikeEpoch.
	FlashCrowd
)

// String names the arrival kind.
func (k ArrivalKind) String() string {
	switch k {
	case Batch:
		return "batch"
	case Poisson:
		return "poisson"
	case Bursty:
		return "bursty"
	case FlashCrowd:
		return "flash-crowd"
	}
	return fmt.Sprintf("ArrivalKind(%d)", int(k))
}

// Arrivals describes when tenants appear.
type Arrivals struct {
	Kind ArrivalKind
	// Epoch is the batch arrival epoch (Batch only).
	Epoch int
	// RatePerEpoch is the Poisson mean (Poisson, FlashCrowd background).
	RatePerEpoch float64
	// BurstSize/BurstPeriod shape the Bursty process.
	BurstSize   int
	BurstPeriod int
	// SpikeEpoch/SpikeSize/SpikeDuration shape the FlashCrowd spike; spike
	// tenants arrive on top of Spec.Tenants and live SpikeDuration epochs.
	SpikeEpoch    int
	SpikeSize     int
	SpikeDuration int
	// SpikeClass names the Class spike tenants belong to. When set, that
	// class is reserved for the spike: background tenants are dealt over
	// the remaining classes only. Empty means spike tenants are dealt like
	// everyone else.
	SpikeClass string
}

// Class is one SLA-class population within a scenario: the slice template,
// its commercial terms, and its true load process. Elastic classes (low
// penalty m) tolerate overbooking aggressively; inelastic ones (high m)
// force near-full reservations — mixing them is the §4.3.4 heterogeneous
// setting.
type Class struct {
	Name      string
	Type      string  // "eMBB" | "mMTC" | "uRLLC"
	Weight    float64 // relative share of the tenant population; default 1
	Alpha     float64 // λ̄ = α·Λ
	SigmaFrac float64 // σ = SigmaFrac·λ̄ (forced 0 for mMTC, as in Table 1)
	Penalty   float64 // m, K = m·R; default 1
	Shape     string  // "gaussian" (default) | "diurnal" | "heavy-tail" | "trace"
	// Duration overrides the slice lifetime in epochs; 0 = whole run.
	Duration int
	// TraceMbps is the recorded load sequence Shape "trace" replays (each
	// tenant reads the shared recording at a seed-derived rotation).
	TraceMbps []float64
}

// Spec is a complete declarative scenario.
type Spec struct {
	Name        string
	Description string

	Topology string // "Romanian" | "Swiss" | "Italian" | "Testbed" | "Metro"
	NBS      int    // operator-topology scale; 0 = full published size

	// Domains is the deployment width the archetype describes: how many
	// independent operator domains (each compiling its own NBS-sized
	// network under a decorrelated seed) make up the full scenario. 0 or
	// 1 means a single-domain scenario, as all the paper-scale archetypes
	// are; the metro archetype declares its full pod count here, and
	// multi-domain drivers (loadgen) default their domain fan-out to it.
	Domains int

	Tenants  int // base tenant count (flash-crowd spikes add to it)
	Epochs   int
	Arrivals Arrivals
	Classes  []Class

	// Faults declares the adversarial topology dynamics (outages, ramps,
	// churn); the zero value means a static topology, as before.
	Faults Faults

	Algorithm       string // a core.NewSolver name; default "direct"
	KPaths          int
	SamplesPerEpoch int
	HWPeriod        int
	ReofferPending  bool
	ForecastPad     float64
}

// topologies is the one topology-name table: scenario specs, the Fig. 5/6
// sweeps and ovnes -topology all resolve through it. Keys are lowercase;
// BuildTopology matches names case-insensitively.
var topologies = map[string]func(nBS int) *topology.Network{
	"romanian": topology.Romanian,
	"swiss":    topology.Swiss,
	"italian":  topology.Italian,
	"testbed":  func(int) *topology.Network { return topology.Testbed() },
	"metro":    topology.Metro,
}

// BuildTopology instantiates a named operator network at the requested
// scale (0 = full published size; the testbed has one size). Names match
// case-insensitively ("Romanian", "romanian").
func BuildTopology(name string, nBS int) (*topology.Network, error) {
	build, ok := topologies[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown topology %q", name)
	}
	return build(nBS), nil
}

func parseShape(name string) (sim.LoadShape, error) {
	switch name {
	case "", "gaussian":
		return sim.ShapeGaussian, nil
	case "diurnal":
		return sim.ShapeDiurnal, nil
	case "heavy-tail":
		return sim.ShapeHeavyTail, nil
	case "trace":
		return sim.ShapeTrace, nil
	}
	return 0, fmt.Errorf("scenario: unknown load shape %q", name)
}

// WithTrace returns the spec with every class replaying the recorded demand
// file instead of its synthetic load shape (the trace-replay arrival mode
// `scenario run -trace` and `loadgen -trace` share). The class slice is
// copied, so the caller's archetype definition is untouched; the file's
// cadence is adopted only when the spec leaves SamplesPerEpoch unset.
func WithTrace(s Spec, tf *traffic.TraceFile) Spec {
	classes := append([]Class(nil), s.Classes...)
	for i := range classes {
		classes[i].Shape = "trace"
		classes[i].TraceMbps = tf.Samples
	}
	s.Classes = classes
	if tf.SamplesPerEpoch > 0 && s.SamplesPerEpoch == 0 {
		s.SamplesPerEpoch = tf.SamplesPerEpoch
	}
	return s
}

// HomogeneousSpecs builds n identical batch-arrival requests of one type —
// the Fig. 5 population — with the per-tenant seed derivation the figure
// harnesses have always used, so refactoring experiments onto the scenario
// engine cannot drift the published artifacts (pinned by the golden tests).
func HomogeneousSpecs(ty slice.Type, n int, alpha, sigmaFrac, m float64, seed int64) []sim.SliceSpec {
	tmpl := slice.Table1(ty)
	mean := alpha * tmpl.RateMbps
	specs := make([]sim.SliceSpec, n)
	for i := range specs {
		std := sigmaFrac * mean
		if ty == slice.MMTC {
			std = 0 // Table 1: mMTC load is deterministic
		}
		specs[i] = sim.SliceSpec{
			Name:          fmt.Sprintf("%s%d", ty, i+1),
			Template:      tmpl.WithStd(std),
			PenaltyFactor: m,
			MeanMbps:      mean,
			StdMbps:       std,
			ArrivalEpoch:  0,
			Duration:      1 << 20, // effectively the whole run, as in §4.3.2
			Seed:          seed + int64(i)*7 + 1,
		}
	}
	return specs
}

// Validate checks a spec strictly, with no defaults applied: what Compile
// quietly fills in (zero epochs, zero tenants, zero k-paths), Validate
// rejects, so a hand-written or machine-emitted spec file that relies on
// accidental zero values fails early with a named reason. Compile stays
// lenient — the archetypes and tests lean on its defaulting.
func (s Spec) Validate() error {
	if s.Epochs <= 0 {
		return fmt.Errorf("scenario %s: Epochs %d must be positive", s.Name, s.Epochs)
	}
	if s.Tenants <= 0 {
		return fmt.Errorf("scenario %s: Tenants %d must be positive", s.Name, s.Tenants)
	}
	if s.KPaths <= 0 {
		return fmt.Errorf("scenario %s: KPaths %d must be positive", s.Name, s.KPaths)
	}
	if s.SamplesPerEpoch < 0 {
		return fmt.Errorf("scenario %s: SamplesPerEpoch %d is negative", s.Name, s.SamplesPerEpoch)
	}
	if s.Domains < 0 {
		return fmt.Errorf("scenario %s: Domains %d is negative", s.Name, s.Domains)
	}
	net, err := BuildTopology(s.Topology, s.NBS)
	if err != nil {
		return err
	}
	if _, err := core.NewSolver(s.Algorithm, core.BendersOptions{}); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	a := s.Arrivals
	if a.Kind < Batch || a.Kind > FlashCrowd {
		return fmt.Errorf("scenario %s: unknown arrival kind %v", s.Name, a.Kind)
	}
	if a.RatePerEpoch < 0 {
		return fmt.Errorf("scenario %s: RatePerEpoch %v is negative", s.Name, a.RatePerEpoch)
	}
	if a.Epoch < 0 || a.SpikeEpoch < 0 || a.SpikeSize < 0 || a.SpikeDuration < 0 ||
		a.BurstSize < 0 || a.BurstPeriod < 0 {
		return fmt.Errorf("scenario %s: negative arrival parameter in %+v", s.Name, a)
	}
	if len(s.Classes) == 0 {
		return fmt.Errorf("scenario %s: needs at least one class", s.Name)
	}
	for _, c := range s.Classes {
		if _, err := slice.ParseType(c.Type); err != nil {
			return err
		}
		shape, err := parseShape(c.Shape)
		if err != nil {
			return err
		}
		if shape == sim.ShapeTrace && len(c.TraceMbps) == 0 {
			return fmt.Errorf("scenario %s: class %s uses shape trace but has no TraceMbps samples", s.Name, c.label())
		}
		if c.Alpha < 0 || c.SigmaFrac < 0 || c.Penalty < 0 || c.Weight < 0 || c.Duration < 0 {
			return fmt.Errorf("scenario %s: class %s has a negative parameter (alpha=%v sigmaFrac=%v penalty=%v weight=%v duration=%d)",
				s.Name, c.label(), c.Alpha, c.SigmaFrac, c.Penalty, c.Weight, c.Duration)
		}
	}
	if err := s.Faults.validate(s.Name); err != nil {
		return err
	}
	// Scripted events and expanded ramps must target real elements; random
	// outages are index-safe by construction (drawn with Intn(NumBS)).
	scripted := append([]topology.Event(nil), s.Faults.Script...)
	for _, r := range s.Faults.Ramps {
		scripted = append(scripted, r.expand()...)
	}
	if _, err := topology.NewSchedule(net, scripted); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return nil
}

func (s Spec) withDefaults() Spec {
	if s.Epochs == 0 {
		s.Epochs = 24
	}
	if s.Tenants == 0 {
		s.Tenants = 8
	}
	if s.KPaths == 0 {
		s.KPaths = 2
	}
	if s.Algorithm == "" {
		s.Algorithm = "direct"
	}
	return s
}

// arrival is one planned tenant appearance.
type arrival struct {
	epoch    int
	duration int  // 0 = whole run
	spike    bool // flash-crowd spike member (assigned to Arrivals.SpikeClass)
}

// planArrivals expands the arrival process into one entry per tenant,
// deterministically from the scenario RNG.
func (s Spec) planArrivals(rng *rand.Rand) ([]arrival, error) {
	a := s.Arrivals
	var out []arrival
	switch a.Kind {
	case Batch:
		for i := 0; i < s.Tenants; i++ {
			out = append(out, arrival{epoch: a.Epoch})
		}
	case Poisson:
		if a.RatePerEpoch <= 0 {
			return nil, fmt.Errorf("scenario %s: poisson arrivals need RatePerEpoch > 0", s.Name)
		}
		for t := 0; t < s.Epochs && len(out) < s.Tenants; t++ {
			for k := poissonDraw(rng, a.RatePerEpoch); k > 0 && len(out) < s.Tenants; k-- {
				out = append(out, arrival{epoch: t})
			}
		}
		// Whoever the process never released still joins on the last epoch's
		// queue if re-offering is on; otherwise they simply never appear.
		for len(out) < s.Tenants {
			out = append(out, arrival{epoch: s.Epochs - 1})
		}
	case Bursty:
		period := a.BurstPeriod
		if period <= 0 {
			period = 4
		}
		size := a.BurstSize
		if size <= 0 {
			size = 2
		}
		for t := 0; t < s.Epochs && len(out) < s.Tenants; t += period {
			for k := 0; k < size && len(out) < s.Tenants; k++ {
				out = append(out, arrival{epoch: t})
			}
		}
		// Tenants the burst schedule never released within the horizon join
		// the final epoch's queue, like the Poisson tail above — never
		// folded back onto earlier epochs, which would silently inflate a
		// burst beyond its declared size.
		for len(out) < s.Tenants {
			out = append(out, arrival{epoch: s.Epochs - 1})
		}
	case FlashCrowd:
		rate := a.RatePerEpoch
		if rate <= 0 {
			rate = 0.5
		}
		for t := 0; t < s.Epochs && len(out) < s.Tenants; t++ {
			for k := poissonDraw(rng, rate); k > 0 && len(out) < s.Tenants; k-- {
				out = append(out, arrival{epoch: t})
			}
		}
		for len(out) < s.Tenants {
			out = append(out, arrival{epoch: s.Epochs - 1})
		}
		spikeDur := a.SpikeDuration
		if spikeDur <= 0 {
			spikeDur = 3
		}
		for k := 0; k < a.SpikeSize; k++ {
			out = append(out, arrival{epoch: a.SpikeEpoch, duration: spikeDur, spike: true})
		}
	default:
		return nil, fmt.Errorf("scenario %s: unknown arrival kind %v", s.Name, a.Kind)
	}
	return out, nil
}

// poissonDraw samples Poisson(rate) by Knuth's product method (rate is
// small in every scenario, so the O(rate) loop is fine).
func poissonDraw(rng *rand.Rand, rate float64) int {
	l := math.Exp(-rate)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// label is the class's display/grouping name.
func (c Class) label() string {
	if c.Name != "" {
		return c.Name
	}
	return c.Type
}

// classSlots deals n tenants to classes by weight (largest remainder),
// skipping the excluded class index (a spike-reserved class, -1 for none),
// then shuffles the slot order with the scenario RNG so arrival order mixes
// classes instead of clustering them.
func (s Spec) classSlots(n, exclude int, rng *rand.Rand) ([]int, error) {
	w := make([]float64, len(s.Classes))
	total := 0.0
	for i, c := range s.Classes {
		if i == exclude {
			continue
		}
		w[i] = c.Weight
		if w[i] <= 0 {
			w[i] = 1
		}
		total += w[i]
	}
	if total == 0 {
		if n == 0 {
			return nil, nil
		}
		return nil, fmt.Errorf("scenario %s: no class left for background tenants", s.Name)
	}
	counts := make([]int, len(w))
	assigned := 0
	rems := make([]float64, len(w))
	for i := range w {
		exact := float64(n) * w[i] / total
		counts[i] = int(exact)
		rems[i] = exact - float64(counts[i])
		assigned += counts[i]
	}
	for assigned < n {
		best := -1
		for i := range rems {
			if w[i] > 0 && (best < 0 || rems[i] > rems[best]) {
				best = i
			}
		}
		counts[best]++
		rems[best] = -1
		assigned++
	}
	var slots []int
	for ci, k := range counts {
		for j := 0; j < k; j++ {
			slots = append(slots, ci)
		}
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	return slots, nil
}

// Compile expands the scenario into a fully seeded sim.Config. The same
// (Spec, seed) pair always yields the same config — and therefore, by the
// simulator's own determinism, the same trace.
func (s Spec) Compile(seed int64) (sim.Config, error) {
	s = s.withDefaults()
	if len(s.Classes) == 0 {
		return sim.Config{}, fmt.Errorf("scenario %s: needs at least one class", s.Name)
	}
	net, err := BuildTopology(s.Topology, s.NBS)
	if err != nil {
		return sim.Config{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	arrivals, err := s.planArrivals(rng)
	if err != nil {
		return sim.Config{}, err
	}
	// A spike-reserved class takes every spike arrival and none of the
	// background; everyone else is dealt over the remaining classes.
	spikeClass := -1
	if sc := s.Arrivals.SpikeClass; sc != "" {
		for i, c := range s.Classes {
			if c.label() == sc {
				spikeClass = i
			}
		}
		if spikeClass < 0 {
			return sim.Config{}, fmt.Errorf("scenario %s: SpikeClass %q not among the classes", s.Name, sc)
		}
	}
	background := 0
	for _, ar := range arrivals {
		if !(ar.spike && spikeClass >= 0) {
			background++
		}
	}
	slots, err := s.classSlots(background, spikeClass, rng)
	if err != nil {
		return sim.Config{}, err
	}

	specs := make([]sim.SliceSpec, len(arrivals))
	next := 0
	for i, ar := range arrivals {
		var c Class
		if ar.spike && spikeClass >= 0 {
			c = s.Classes[spikeClass]
		} else {
			c = s.Classes[slots[next]]
			next++
		}
		ty, err := slice.ParseType(c.Type)
		if err != nil {
			return sim.Config{}, err
		}
		shape, err := parseShape(c.Shape)
		if err != nil {
			return sim.Config{}, err
		}
		if shape == sim.ShapeTrace && len(c.TraceMbps) == 0 {
			return sim.Config{}, fmt.Errorf("scenario %s: class %s uses shape trace but has no TraceMbps samples", s.Name, c.label())
		}
		tmpl := slice.Table1(ty)
		mean := c.Alpha * tmpl.RateMbps
		std := c.SigmaFrac * mean
		if ty == slice.MMTC {
			std = 0
		}
		m := c.Penalty
		if m <= 0 {
			m = 1
		}
		dur := ar.duration
		if dur == 0 {
			dur = c.Duration
		}
		if dur == 0 {
			dur = 1 << 20
		}
		cname := c.label()
		specs[i] = sim.SliceSpec{
			Name:          fmt.Sprintf("%s-%d", cname, i+1),
			Template:      tmpl.WithStd(std),
			PenaltyFactor: m,
			MeanMbps:      mean,
			StdMbps:       std,
			ArrivalEpoch:  ar.epoch,
			Duration:      dur,
			Seed:          seed + int64(i)*7 + 1,
			Shape:         shape,
			TraceMbps:     c.TraceMbps,
		}
	}
	// Fault expansion draws LAST, after every arrival/slot draw above, so a
	// spec that adds faults reuses the exact tenant population its faultless
	// ancestor produced under the same seed.
	if err := s.Faults.validate(s.Name); err != nil {
		return sim.Config{}, err
	}
	events := s.Faults.expand(net.NumBS(), s.Epochs, rng)
	if _, err := topology.NewSchedule(net, events); err != nil {
		return sim.Config{}, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return sim.Config{
		Net:             net,
		KPaths:          s.KPaths,
		SamplesPerEpoch: s.SamplesPerEpoch,
		Epochs:          s.Epochs,
		Slices:          specs,
		Algorithm:       s.Algorithm,
		HWPeriod:        s.HWPeriod,
		ReofferPending:  s.ReofferPending,
		ForecastPad:     s.ForecastPad,
		Events:          events,
	}, nil
}

// Run compiles and executes the scenario under one seed.
func (s Spec) Run(seed int64) (*sim.Result, error) {
	cfg, err := s.Compile(seed)
	if err != nil {
		return nil, err
	}
	return sim.Run(cfg)
}

// Sweep runs the scenario once per seed, fanned out over a bounded worker
// pool (internal/parallel semantics: results in seed order, identical at
// any worker count).
func Sweep(spec Spec, seeds []int64, workers int) ([]*sim.Result, error) {
	return parallel.Map(len(seeds), workers, func(i int) (*sim.Result, error) {
		return spec.Run(seeds[i])
	})
}
